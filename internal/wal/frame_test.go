package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// TestFrameScannerDifferential pins the streaming decoder to Scan: for a log
// cut at every byte offset, both must agree on the decoded prefix and on how
// they classify the damage.
func TestFrameScannerDifferential(t *testing.T) {
	data := buildLog(t,
		[]byte("first"),
		[]byte{},
		[]byte("third record with more bytes"),
		bytes.Repeat([]byte{0xAB}, 300),
		bytes.Repeat([]byte{0xCD}, 2*frameChunk+100), // read over three buffer growths
	)
	for cut := 0; cut <= len(data); cut++ {
		records, tail := Scan(data[:cut])
		frames, err := ReadFrames(bytes.NewReader(data[:cut]))
		if len(frames) != len(records) {
			t.Fatalf("cut %d: stream decoded %d frames, Scan %d records", cut, len(frames), len(records))
		}
		for i := range frames {
			if !bytes.Equal(frames[i].Payload, records[i].Payload) {
				t.Fatalf("cut %d: frame %d payload mismatch", cut, i)
			}
		}
		if tail == nil {
			if err != nil {
				t.Fatalf("cut %d: Scan saw a clean end, stream saw %v", cut, err)
			}
			continue
		}
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("cut %d: Scan saw tail %q, stream saw %v", cut, tail.Reason, err)
		}
		if fe.Reason != tail.Reason {
			t.Fatalf("cut %d: Scan classified %q, stream classified %q", cut, tail.Reason, fe.Reason)
		}
	}
}

// TestFrameScannerCorruption flips every byte of a short log in turn: the
// streaming decoder must classify each flip exactly as Scan does, and the
// flips that damage payload bytes or checksums must report Corrupt().
func TestFrameScannerCorruption(t *testing.T) {
	data := buildLog(t, []byte("alpha"), []byte("beta"), []byte("gamma"))
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		records, tail := Scan(mut)
		frames, err := ReadFrames(bytes.NewReader(mut))
		if len(frames) != len(records) {
			t.Fatalf("flip %d: stream decoded %d frames, Scan %d records", i, len(frames), len(records))
		}
		if tail == nil {
			if err != nil {
				t.Fatalf("flip %d: Scan clean, stream saw %v", i, err)
			}
			continue
		}
		var fe *FrameError
		if !errors.As(err, &fe) || fe.Reason != tail.Reason {
			t.Fatalf("flip %d: Scan classified %q, stream saw %v", i, tail.Reason, err)
		}
		switch fe.Reason {
		case "checksum mismatch", "implausible record length":
			if !fe.Corrupt() {
				t.Fatalf("flip %d: %q must report Corrupt()", i, fe.Reason)
			}
		default:
			if fe.Corrupt() {
				t.Fatalf("flip %d: %q must not report Corrupt()", i, fe.Reason)
			}
		}
	}
}

// TestFrameScannerOneByteReads drives the scanner through a reader that
// yields one byte at a time: incremental reads must not change the result.
func TestFrameScannerOneByteReads(t *testing.T) {
	payloads := [][]byte{[]byte("one"), {}, bytes.Repeat([]byte{7}, 999), bytes.Repeat([]byte{8}, 2*frameChunk+100)}
	data := buildLog(t, payloads...)
	s := NewFrameScanner(iotest.OneByteReader(bytes.NewReader(data)))
	for i, want := range payloads {
		if !s.Scan() {
			t.Fatalf("Scan stopped at frame %d: %v", i, s.Err())
		}
		if !bytes.Equal(s.Frame().Payload, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if s.Scan() || s.Err() != nil {
		t.Fatalf("expected clean end, got err %v", s.Err())
	}
	if s.Offset() != int64(len(data)) {
		t.Fatalf("offset %d, want %d", s.Offset(), len(data))
	}
}

// TestFrameScannerSeveredStream pins the retryable classification: a reader
// that fails mid-frame with a transport error is severed, not corrupt, and
// the cause is preserved for the reconnect path.
func TestFrameScannerSeveredStream(t *testing.T) {
	data := buildLog(t, []byte("payload"))
	cause := errors.New("connection reset")
	for cut := 1; cut < len(data); cut++ {
		r := io.MultiReader(bytes.NewReader(data[:cut]), iotest.ErrReader(cause))
		_, err := ReadFrames(r)
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("cut %d: want FrameError, got %v", cut, err)
		}
		if fe.Corrupt() {
			t.Fatalf("cut %d: severed stream misclassified as corrupt (%q)", cut, fe.Reason)
		}
		if !errors.Is(err, cause) {
			t.Fatalf("cut %d: cause not preserved: %v", cut, err)
		}
	}
}

// TestFrameScannerClaimedLengthNotAllocated pins that a plausible length
// prefix is not an allocation request either: a header claiming 200 MiB
// followed by 100 bytes and EOF is a truncated record, found for the cost of
// the bytes that arrived.
func TestFrameScannerClaimedLengthNotAllocated(t *testing.T) {
	data := make([]byte, frameHeader+100)
	binary.LittleEndian.PutUint32(data, 200<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrames(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Reason != "truncated record" || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want a truncated record, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("allocated %d bytes to read 100", got)
	}
}

// TestFrameScannerImplausibleLength pins that a giant length prefix is
// corruption, not an allocation request.
func TestFrameScannerImplausibleLength(t *testing.T) {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxRecord+1)
	_, err := ReadFrames(bytes.NewReader(hdr[:]))
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Reason != "implausible record length" || !fe.Corrupt() {
		t.Fatalf("want corrupt implausible-length error, got %v", err)
	}
}

// FuzzFrameDecoders holds the log's two decoders — Scan over the bytes on
// disk, FrameScanner over the replication stream — to one reading of any
// bytes: the same payloads in order, the same reason for stopping, a clean end
// for both or neither, and a tail that starts where the accepted frames end.
// The seeds are a log written through MemFS, torn, bit-flipped, with an
// implausible length prefix, and followed by a frame that claims more bytes
// than arrive.
func FuzzFrameDecoders(f *testing.F) {
	fs := NewMemFS()
	file, err := fs.Create("wal.log")
	if err != nil {
		f.Fatal(err)
	}
	w := NewWriter(file, 0)
	payloads := [][]byte{[]byte("insert into MOVIES"), {}, bytes.Repeat([]byte{0xAB}, 300), []byte("delete")}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			f.Fatal(err)
		}
	}
	log := fs.Bytes("wal.log")
	f.Add(log)
	torn := fs.Clone()
	torn.Truncate("wal.log", len(log)-3)
	f.Add(torn.Bytes("wal.log"))
	flipped := fs.Clone()
	flipped.FlipBit("wal.log", frameHeader+2, 0x10)
	f.Add(flipped.Bytes("wal.log"))
	implausible := append([]byte(nil), log...)
	binary.LittleEndian.PutUint32(implausible[frameHeader+len(payloads[0]):], MaxRecord+1)
	f.Add(implausible)
	long := binary.LittleEndian.AppendUint32(append([]byte(nil), log...), 3*frameChunk)
	long = binary.LittleEndian.AppendUint32(long, 0)
	f.Add(append(long, make([]byte, frameChunk+10)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		records, tail := Scan(data)
		frames, err := ReadFrames(bytes.NewReader(data))
		if len(frames) != len(records) {
			t.Fatalf("stream decoded %d frames, Scan %d records", len(frames), len(records))
		}
		accepted := 0
		for i := range frames {
			if !bytes.Equal(frames[i].Payload, records[i].Payload) {
				t.Fatalf("frame %d: payload mismatch", i)
			}
			accepted += frameHeader + len(records[i].Payload)
		}
		if (tail == nil) != (err == nil) {
			t.Fatalf("Scan tail %+v, stream error %v", tail, err)
		}
		if tail == nil {
			if accepted != len(data) {
				t.Fatalf("clean end after %d of %d bytes", accepted, len(data))
			}
			return
		}
		var fe *FrameError
		if !errors.As(err, &fe) || fe.Reason != tail.Reason {
			t.Fatalf("Scan classified %q, stream saw %v", tail.Reason, err)
		}
		if tail.Off != accepted {
			t.Fatalf("tail at %d, accepted frames end at %d", tail.Off, accepted)
		}
	})
}
