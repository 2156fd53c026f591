package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/querytotext"
)

// A requestBody is a JSON request object whose members are all strings.
// member returns the field that key names exactly, or nil.
type requestBody interface {
	member(key []byte) *string
}

func (req *askRequest) member(key []byte) *string {
	if string(key) == "sql" {
		return &req.SQL
	}
	return nil
}

func (req *sessionRequest) member(key []byte) *string {
	switch string(key) {
	case "session":
		return &req.Session
	case "profile":
		return &req.Profile
	}
	return nil
}

// bodyBufs holds the buffers request bodies are read into.
var bodyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1<<10); return &b }}

// bodyBufKeep is the largest buffer returned to bodyBufs: one big body does
// not pin its buffer for every request after it.
const bodyBufKeep = 64 << 10

// decodeBody decodes r's body into a T as
// json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode would,
// to the same fields, status and reply bytes. It reads at most s.maxBody
// bytes, once, into a pooled buffer, and decodeFlat decodes the common body
// there. A body decodeFlat refuses goes to that json.Decoder, reading the
// same bytes and then the rest of the body, which decides it and words any
// refusal. On a refusal decodeBody has answered w and reports false.
func decodeBody[T any, P interface {
	*T
	requestBody
}](s *server, w http.ResponseWriter, r *http.Request) (req T, ok bool) {
	bp := bodyBufs.Get().(*[]byte)
	buf, err := readBody(r.Body, (*bp)[:0], s.maxBody)
	defer func() {
		if cap(buf) <= bodyBufKeep {
			*bp = buf[:0]
			bodyBufs.Put(bp)
		}
	}()
	if decodeFlat(buf, P(&req)) {
		return req, true
	}
	req = *new(T)
	rest := io.Reader(r.Body)
	if err != nil {
		rest = errReader{err}
	}
	body := io.NopCloser(io.MultiReader(bytes.NewReader(buf), rest))
	if err := json.NewDecoder(http.MaxBytesReader(w, body, s.maxBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			// An oversized body is a client asking too much, not a malformed
			// request: 413, narrated like every other refusal.
			writeFields(w, http.StatusRequestEntityTooLarge,
				"answer", querytotext.BodyLimitEnglish(tooBig.Limit),
				"error", err.Error())
			return req, false
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
		return req, false
	}
	return req, true
}

// readBody appends r's bytes to buf until EOF, a read error or max bytes.
// err is the error that ended the read (io.EOF at the end of the body), or
// nil when buf holds max bytes and r has not been read past them.
func readBody(r io.Reader, buf []byte, max int64) (_ []byte, err error) {
	for int64(len(buf)) < max {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		room := buf[len(buf):cap(buf)]
		if left := max - int64(len(buf)); int64(len(room)) > left {
			room = room[:left]
		}
		n, err := r.Read(room)
		buf = buf[:len(buf)+n]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// errReader returns err from every Read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeFlat decodes the JSON object at the start of b into into's members
// and reports whether it could. It takes whitespace, members in any order
// and repeated (the last wins), and any string value; it ignores the bytes
// after the object, as json.Decoder does. It refuses, and leaves the body to
// encoding/json, a key that is not exactly a member's name or is escaped
// (encoding/json also matches keys case-insensitively), a value that is not
// a string, and anything that is not JSON.
func decodeFlat(b []byte, into requestBody) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return true
	}
	for i < len(b) && b[i] == '"' {
		end := bytes.IndexByte(b[i+1:], '"')
		if end < 0 {
			return false
		}
		field := into.member(b[i+1 : i+1+end])
		if field == nil {
			return false
		}
		if i = skipSpace(b, i+end+2); i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		v, n, ok := unquote(b[i:])
		if !ok {
			return false
		}
		*field = v
		if i = skipSpace(b, i+n); i == len(b) {
			return false
		}
		switch b[i] {
		case '}':
			return true
		case ',':
			i = skipSpace(b, i+1)
		default:
			return false
		}
	}
	return false
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// unquote decodes the JSON string at the start of b as encoding/json does —
// its escapes, a surrogate pair as one rune, and a lone surrogate or each
// byte of invalid UTF-8 as U+FFFD — and returns it with the number of bytes
// it spans. It refuses what is not a JSON string.
func unquote(b []byte) (s string, n int, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return "", 0, false
	}
	// Most strings need no decoding: scan to the closing quote.
	i := 1
	for i < len(b) {
		c := b[i]
		if c == '"' {
			return string(b[1:i]), i + 1, true
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	var stack [256]byte
	out := append(stack[:0], b[1:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			return string(out), i + 1, true
		case c < ' ':
			return "", 0, false
		case c == '\\':
			if i+1 == len(b) {
				return "", 0, false
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(b[i:])
				if r < 0 {
					return "", 0, false
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, hex4(b[i:])); pair != utf8.RuneError {
						r = pair
						i += 6
					}
				}
				out = utf8.AppendRune(out, r) // a lone surrogate as U+FFFD
				continue
			default:
				return "", 0, false
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return "", 0, false
}

// hex4 reads the \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
