package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the writable handle the log appends to. It is the injection point
// of the fault harness: tests swap in files whose writes tear, whose Sync
// fails, or whose bytes flip.
type File interface {
	io.Writer
	// Sync forces written bytes to stable storage.
	Sync() error
	Close() error
}

// FS abstracts the directory a durable database lives in. Implementations:
// DirFS (the real filesystem) and MemFS (deterministic in-memory store the
// crash tests snapshot, truncate, and corrupt at will).
type FS interface {
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it when absent.
	OpenAppend(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (io.ReadCloser, error)
	// Rename atomically replaces newname with oldname's content.
	Rename(oldname, newname string) error
	// Remove deletes name (no error when absent).
	Remove(name string) error
	// Exists reports whether name is present.
	Exists(name string) (bool, error)
	// Size returns the byte size of name.
	Size(name string) (int64, error)
	// SyncDir forces directory metadata (renames, newly created entries) to
	// stable storage. Per-file Sync makes record bytes durable; SyncDir makes
	// the files themselves durable — without it a power loss can undo a
	// checkpoint rename while keeping the log truncation that followed it.
	SyncDir() error
}

// ReadAll reads the full content of name. When the underlying reader errors
// mid-stream (the short-read fault), it returns the bytes read so far along
// with the error — recovery treats such a log exactly like a torn one and
// salvages the readable prefix.
func ReadAll(fs FS, name string) ([]byte, error) {
	r, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	// Presized from the file's length, the read is one allocation instead of
	// io.ReadAll's doubling copies. A failed Size only costs that growth.
	size, _ := fs.Size(name)
	var buf bytes.Buffer
	buf.Grow(int(size) + bytes.MinRead)
	_, err = buf.ReadFrom(r)
	return buf.Bytes(), err
}

// ---------------------------------------------------------------------------
// DirFS: the real filesystem
// ---------------------------------------------------------------------------

// DirFS implements FS over a directory on the operating system's filesystem.
type DirFS struct{ root string }

// NewDirFS returns an FS rooted at dir, creating the directory if needed.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	return &DirFS{root: dir}, nil
}

// Root returns the directory the FS is rooted at.
func (d *DirFS) Root() string { return d.root }

func (d *DirFS) path(name string) string { return filepath.Join(d.root, name) }

func (d *DirFS) Create(name string) (File, error) {
	return os.OpenFile(d.path(name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (d *DirFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(d.path(name), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
}

func (d *DirFS) Open(name string) (io.ReadCloser, error) {
	return os.Open(d.path(name))
}

func (d *DirFS) Rename(oldname, newname string) error {
	return os.Rename(d.path(oldname), d.path(newname))
}

func (d *DirFS) Remove(name string) error {
	err := os.Remove(d.path(name))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

func (d *DirFS) Exists(name string) (bool, error) {
	_, err := os.Stat(d.path(name))
	if err == nil {
		return true, nil
	}
	if os.IsNotExist(err) {
		return false, nil
	}
	return false, err
}

func (d *DirFS) Size(name string) (int64, error) {
	st, err := os.Stat(d.path(name))
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (d *DirFS) SyncDir() error {
	f, err := os.Open(d.root)
	if err != nil {
		return fmt.Errorf("wal: opening %s for fsync: %w", d.root, err)
	}
	err = f.Sync()
	cerr := f.Close()
	if err != nil {
		return fmt.Errorf("wal: fsync %s: %w", d.root, err)
	}
	return cerr
}

// ---------------------------------------------------------------------------
// MemFS: deterministic in-memory store for crash simulation
// ---------------------------------------------------------------------------

// MemFS is an in-memory FS. Beyond the FS contract it exposes the surgical
// operations crash tests need: deep-copy snapshots, byte truncation (a torn
// write is a log whose tail never reached the disk), and bit flips.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory FS.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string][]byte)} }

// Clone returns an independent deep copy — the "state of the disk at this
// instant" a simulated crash recovers from.
func (m *MemFS) Clone() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMemFS()
	for name, data := range m.files {
		out.files[name] = append([]byte(nil), data...)
	}
	return out
}

// Bytes returns a copy of name's content (nil when absent).
func (m *MemFS) Bytes(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.files[name]...)
}

// Truncate cuts name to n bytes — the torn-write primitive.
func (m *MemFS) Truncate(name string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if data, ok := m.files[name]; ok && n < len(data) {
		m.files[name] = data[:n]
	}
}

// FlipBit XORs mask into byte off of name — the bit-rot primitive.
func (m *MemFS) FlipBit(name string, off int, mask byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if data, ok := m.files[name]; ok && off < len(data) {
		data[off] ^= mask
	}
}

// Names returns the sorted file names present.
func (m *MemFS) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for name := range m.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = nil
	return &memFile{fs: m, name: name}, nil
}

func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = nil
	}
	return &memFile{fs: m, name: name}, nil
}

func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("wal: open %s: %w", name, os.ErrNotExist)
	}
	return io.NopCloser(&sliceReader{data: append([]byte(nil), data...)}), nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("wal: rename %s: %w", oldname, os.ErrNotExist)
	}
	m.files[newname] = data
	delete(m.files, oldname)
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

func (m *MemFS) Exists(name string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.files[name]
	return ok, nil
}

func (m *MemFS) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return 0, fmt.Errorf("wal: size %s: %w", name, os.ErrNotExist)
	}
	return int64(len(data)), nil
}

// SyncDir is a no-op: the in-memory store has no directory metadata to lose.
func (m *MemFS) SyncDir() error { return nil }

// memFile appends to its MemFS entry. Writes always land in full — torn
// writes are simulated after the fact by truncating the store, which models a
// crash (the process never observes its own tear) more faithfully than a
// failing Write would.
type memFile struct {
	fs   *MemFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

type sliceReader struct {
	data []byte
	off  int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
