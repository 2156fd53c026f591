package wal

import (
	"errors"
	"io"
	"sync"
	"time"
)

// This file is the deterministic fault harness. FaultFS wraps any FS and
// injects failures at exactly the points the caller scripts: fsync errors
// after the nth sync, and short reads that cut a named file off after a byte
// budget. Torn writes and bit flips are injected through MemFS.Truncate and
// MemFS.FlipBit instead — they model damage that happens to bytes at rest,
// not errors the writing process observes.

// ErrInjectedSync is the error injected syncs fail with.
var ErrInjectedSync = errors.New("wal: injected fsync failure")

// ErrInjectedRead is the error injected short reads fail with.
var ErrInjectedRead = errors.New("wal: injected short read")

// ErrInjectedWrite is the error injected torn appends fail with.
var ErrInjectedWrite = errors.New("wal: injected write failure")

// FaultFS wraps an FS with scripted failures. The zero knobs inject nothing.
type FaultFS struct {
	inner FS

	mu sync.Mutex
	// syncsLeft counts successful Syncs remaining before every subsequent
	// Sync fails; -1 disables the fault.
	syncsLeft int
	// writesLeft counts successful Writes remaining before every subsequent
	// Write tears (half the bytes land, then an error); -1 disables.
	writesLeft int
	// shortReads maps file name -> byte budget for Open readers.
	shortReads map[string]int
	// delaySync stalls every Sync (and SyncDir) by this duration before the
	// sync proceeds; zero disables. Models a disk that is slow, not broken.
	delaySync time.Duration
	// delayWrite stalls every Write the same way.
	delayWrite time.Duration
	// stalled counts the Syncs inside their delay right now; healed is closed
	// by ClearFaults to end those delays early.
	stalled int
	healed  chan struct{}
}

// NewFaultFS wraps inner with no faults armed.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner, syncsLeft: -1, writesLeft: -1, shortReads: make(map[string]int), healed: make(chan struct{})}
}

// FailSyncsAfter arms the fsync fault: the next n Syncs (across all files)
// succeed, every one after that returns ErrInjectedSync. n < 0 disarms.
func (f *FaultFS) FailSyncsAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncsLeft = n
}

// FailWritesAfter arms the torn-append fault: the next n Writes (across all
// files) succeed, every one after that lands only half its bytes and returns
// ErrInjectedWrite — an ENOSPC/I/O error leaving a partial frame on disk.
// n < 0 disarms.
func (f *FaultFS) FailWritesAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writesLeft = n
}

// ShortRead arms the short-read fault: readers of name return at most limit
// bytes and then fail with ErrInjectedRead instead of io.EOF.
func (f *FaultFS) ShortRead(name string, limit int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortReads[name] = limit
}

// DelaySyncs arms the slow-disk fault: every subsequent Sync (and SyncDir)
// sleeps d before proceeding. The sync still succeeds — the fault models
// latency, not loss. d <= 0 disarms.
func (f *FaultFS) DelaySyncs(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delaySync = d
}

// DelayWrites arms the slow-disk fault for Writes: every subsequent Write
// sleeps d before landing. d <= 0 disarms.
func (f *FaultFS) DelayWrites(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delayWrite = d
}

// ClearFaults disarms every scripted fault; a Sync stalled by DelaySyncs
// proceeds at once.
func (f *FaultFS) ClearFaults() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncsLeft = -1
	f.writesLeft = -1
	f.shortReads = make(map[string]int)
	f.delaySync = 0
	f.delayWrite = 0
	close(f.healed)
	f.healed = make(chan struct{})
}

// StalledSyncs reports how many Syncs are inside a DelaySyncs delay right
// now, so a test can wait until a writer is wedged before it measures.
func (f *FaultFS) StalledSyncs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stalled
}

func (f *FaultFS) sleepSync() {
	f.mu.Lock()
	d, healed := f.delaySync, f.healed
	if d <= 0 {
		f.mu.Unlock()
		return
	}
	f.stalled++
	f.mu.Unlock()
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-healed:
		t.Stop()
	}
	f.mu.Lock()
	f.stalled--
	f.mu.Unlock()
}

func (f *FaultFS) sleepWrite() {
	f.mu.Lock()
	d := f.delayWrite
	f.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

func (f *FaultFS) syncErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.syncsLeft < 0 {
		return nil
	}
	if f.syncsLeft == 0 {
		return ErrInjectedSync
	}
	f.syncsLeft--
	return nil
}

func (f *FaultFS) writeTears() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.writesLeft < 0 {
		return false
	}
	if f.writesLeft == 0 {
		return true
	}
	f.writesLeft--
	return false
}

func (f *FaultFS) Create(name string) (File, error) {
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) OpenAppend(name string) (File, error) {
	file, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) Open(name string) (io.ReadCloser, error) {
	r, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	limit, ok := f.shortReads[name]
	f.mu.Unlock()
	if !ok {
		return r, nil
	}
	return &shortReader{r: r, left: limit}, nil
}

func (f *FaultFS) Rename(oldname, newname string) error { return f.inner.Rename(oldname, newname) }
func (f *FaultFS) Remove(name string) error             { return f.inner.Remove(name) }
func (f *FaultFS) Exists(name string) (bool, error)     { return f.inner.Exists(name) }
func (f *FaultFS) Size(name string) (int64, error)      { return f.inner.Size(name) }

// SyncDir routes through the same sync script as file Syncs: a scripted
// fsync fault also breaks directory syncs, as a failing disk would.
func (f *FaultFS) SyncDir() error {
	f.sleepSync()
	if err := f.syncErr(); err != nil {
		return err
	}
	return f.inner.SyncDir()
}

// faultFile defers writes to the wrapped file but routes Write and Sync
// through the harness's script.
type faultFile struct {
	File
	fs *FaultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.sleepWrite()
	if f.fs.writeTears() {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, ErrInjectedWrite
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	f.fs.sleepSync()
	if err := f.fs.syncErr(); err != nil {
		return err
	}
	return f.File.Sync()
}

// shortReader serves at most left bytes, then errors — never a clean EOF.
type shortReader struct {
	r    io.ReadCloser
	left int
}

func (s *shortReader) Read(p []byte) (int, error) {
	if s.left <= 0 {
		return 0, ErrInjectedRead
	}
	if len(p) > s.left {
		p = p[:s.left]
	}
	n, err := s.r.Read(p)
	s.left -= n
	if err == io.EOF {
		return n, io.EOF
	}
	if s.left <= 0 && err == nil {
		err = ErrInjectedRead
	}
	return n, err
}

func (s *shortReader) Close() error { return s.r.Close() }
