// Streaming frame decoder: the same [length][CRC32C][payload] framing Scan
// parses out of a byte slice, decoded incrementally from an io.Reader. The
// replication layer reads WAL records off a TCP link with it, so the wire
// format and the on-disk format share one decoder instead of two copies.
//
// Unlike Scan, a stream has no salvageable suffix to quarantine — the only
// question is how it ended. FrameError keeps Scan's tail vocabulary ("torn
// frame header", "truncated record", "checksum mismatch", "implausible
// record length") and adds the one distinction a replica cares about:
// Corrupt() separates bytes that are provably wrong (the sender and receiver
// have diverged) from a stream that was merely severed mid-frame (reconnect
// and resume).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Frame is one framed record decoded from a byte stream.
type Frame struct {
	// Payload is the frame body. A FrameScanner reuses its buffer, so the
	// bytes are valid only until the next Scan; ReadFrames returns copies.
	Payload []byte
}

// FrameError classifies why a frame stream stopped yielding frames.
type FrameError struct {
	// Reason uses the same vocabulary as Tail.Reason.
	Reason string
	// Err is the underlying read error, if the stream failed rather than
	// the bytes (nil for checksum mismatch and implausible length).
	Err error
}

func (e *FrameError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("wal: %s: %v", e.Reason, e.Err)
	}
	return "wal: " + e.Reason
}

func (e *FrameError) Unwrap() error { return e.Err }

// Corrupt reports whether the frame bytes themselves are provably wrong — a
// checksum mismatch or an implausible length prefix — as opposed to a stream
// that ended or errored mid-frame. A severed stream is retryable; corrupt
// bytes mean the two ends have diverged.
func (e *FrameError) Corrupt() bool {
	return e.Reason == "checksum mismatch" || e.Reason == "implausible record length"
}

// frameChunk is the first buffer growth step of a frame payload.
const frameChunk = 4 << 10

// FrameScanner incrementally decodes framed records from r. It mirrors
// bufio.Scanner: Scan until it returns false, then check Err — nil means the
// stream ended cleanly on a frame boundary.
type FrameScanner struct {
	r     io.Reader
	hdr   [frameHeader]byte
	buf   []byte
	frame Frame
	err   error
	done  bool
	off   int64
}

// NewFrameScanner returns a scanner reading frames from r.
func NewFrameScanner(r io.Reader) *FrameScanner {
	return &FrameScanner{r: r}
}

// Scan reads the next frame. It returns false at end of stream or on the
// first undecodable frame; Err distinguishes the two.
func (s *FrameScanner) Scan() bool {
	if s.done {
		return false
	}
	n, err := io.ReadFull(s.r, s.hdr[:])
	s.off += int64(n)
	if err != nil {
		s.done = true
		if errors.Is(err, io.EOF) && n == 0 {
			return false // clean end on a frame boundary
		}
		s.err = &FrameError{Reason: "torn frame header", Err: err}
		return false
	}
	size := int(binary.LittleEndian.Uint32(s.hdr[:]))
	if size > MaxRecord {
		s.done = true
		s.err = &FrameError{Reason: "implausible record length"}
		return false
	}
	sum := binary.LittleEndian.Uint32(s.hdr[4:])
	// The buffer grows as bytes arrive, doubling up to the claimed size, so a
	// corrupt length prefix costs what the stream delivers, not what it claims.
	s.buf = s.buf[:0]
	for len(s.buf) < size {
		if len(s.buf) == cap(s.buf) {
			s.buf = slices.Grow(s.buf, min(max(len(s.buf), frameChunk), size-len(s.buf)))
		}
		n, err = io.ReadFull(s.r, s.buf[len(s.buf):min(cap(s.buf), size)])
		s.buf = s.buf[:len(s.buf)+n]
		s.off += int64(n)
		if err != nil {
			if errors.Is(err, io.EOF) && len(s.buf) > 0 {
				err = io.ErrUnexpectedEOF // as one ReadFull of the whole payload
			}
			s.done = true
			s.err = &FrameError{Reason: "truncated record", Err: err}
			return false
		}
	}
	if Checksum(s.buf) != sum {
		s.done = true
		s.err = &FrameError{Reason: "checksum mismatch"}
		return false
	}
	s.frame = Frame{Payload: s.buf}
	return true
}

// Frame returns the frame read by the last successful Scan. Its payload is
// valid only until the next Scan.
func (s *FrameScanner) Frame() Frame { return s.frame }

// Err returns the error that stopped the scanner, or nil if the stream
// ended cleanly on a frame boundary.
func (s *FrameScanner) Err() error { return s.err }

// Offset returns the number of bytes consumed from the reader so far.
func (s *FrameScanner) Offset() int64 { return s.off }

// ReadFrames decodes every frame in r, copying each payload. The returned
// frames are the longest valid prefix; err is nil only when the stream ended
// cleanly on a frame boundary.
func ReadFrames(r io.Reader) ([]Frame, error) {
	s := NewFrameScanner(r)
	var frames []Frame
	for s.Scan() {
		frames = append(frames, Frame{Payload: append([]byte(nil), s.frame.Payload...)})
	}
	return frames, s.Err()
}
