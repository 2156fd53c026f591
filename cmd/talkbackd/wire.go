package main

import (
	"strconv"
	"sync"
	"unicode/utf8"

	talkback "repro"
	"repro/internal/core"
	"repro/internal/value"
)

// This file writes talkbackd's fixed-shape replies — /ask, /describe and the
// flat string objects (/entity, /schema, /session and the narrated
// refusals) — by appending them straight into a pooled scratch buffer. The
// bytes are exactly what json.MarshalIndent(v, "", "  ") plus a newline
// writes for the same reply as a Go value: members in struct-field order
// (sorted keys for a map), omitempty members left out when empty, two-space
// indentation, `[]` for an empty array, and strings escaped with HTML
// escaping on. The goldens under testdata and FuzzReplyWire hold the two
// to each other. Replies whose bodies are open maps or planner structs
// (/stats, /explain) still go through encodeJSON.

// scratch holds the buffers replies are written into. A buffer grown past
// maxPooled is dropped rather than pooled, so one huge answer does not pin
// its memory.
var scratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

const maxPooled = 1 << 20

// encodeAsk renders resp as the /ask reply body.
func encodeAsk(resp *core.Response) []byte {
	w := newWriter()
	w.ask(resp)
	return w.reply()
}

// encodeTranslation renders tr as the /describe reply body.
func encodeTranslation(tr *talkback.Translation) []byte {
	w := newWriter()
	w.translation(tr)
	return w.reply()
}

// encodeFields renders a flat object of string members, given as key,
// value pairs in any order: it writes them by sorted key, as a
// map[string]string marshals. A key must need no escaping.
func encodeFields(kv ...string) []byte {
	for i := 2; i < len(kv); i += 2 {
		for j := i; j > 0 && kv[j] < kv[j-2]; j -= 2 {
			kv[j], kv[j+1], kv[j-2], kv[j-1] = kv[j-2], kv[j-1], kv[j], kv[j+1]
		}
	}
	w := newWriter()
	w.open('{')
	for i := 0; i+1 < len(kv); i += 2 {
		w.key(kv[i])
		w.str(kv[i+1])
	}
	w.close('}')
	return w.reply()
}

// writer appends one indented JSON value to b, a scratch buffer drawn from
// the pool. depth is the nesting of the open object or array, and empty
// reports that nothing has been written into it yet.
type writer struct {
	pooled *[]byte
	b      []byte
	depth  int
	empty  bool
}

func newWriter() writer {
	bp := scratch.Get().(*[]byte)
	return writer{pooled: bp, b: (*bp)[:0]}
}

// reply returns the value written, with its trailing newline, as an
// exactly-sized copy — a cached /ask reply lives as long as its cache entry
// — and gives the scratch buffer back.
func (w *writer) reply() []byte {
	w.b = append(w.b, '\n')
	out := make([]byte, len(w.b))
	copy(out, w.b)
	if cap(w.b) <= maxPooled {
		*w.pooled = w.b
		scratch.Put(w.pooled)
	}
	return out
}

func (w *writer) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

// close ends the open object or array; an empty one stays on its line.
func (w *writer) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// next starts an element of the open array, or a member of the open object.
func (w *writer) next() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.newline()
}

// newline starts a line indented to depth.
func (w *writer) newline() {
	const indent = "\n                " // deep enough for every reply
	if n := 1 + 2*w.depth; n <= len(indent) {
		w.b = append(w.b, indent[:n]...)
		return
	}
	w.b = append(w.b, '\n')
	for i := 0; i < w.depth; i++ {
		w.b = append(w.b, ' ', ' ')
	}
}

// key starts a member of the open object; k is written unescaped.
func (w *writer) key(k string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':', ' ')
}

func (w *writer) str(s string) { w.b = appendString(w.b, s) }

func (w *writer) int(n int) { w.b = strconv.AppendInt(w.b, int64(n), 10) }

func (w *writer) strs(ss []string) {
	w.open('[')
	for _, s := range ss {
		w.next()
		w.str(s)
	}
	w.close(']')
}

// cell writes a result cell: SQL NULL as JSON null, anything else as its
// String text. Only TEXT needs escaping: every other kind renders as ASCII
// digits, letters and `.+-:()`.
func (w *writer) cell(v value.Value) {
	switch v.Kind() {
	case value.Null:
		w.b = append(w.b, "null"...)
	case value.Text:
		w.str(v.Text())
	default:
		w.b = append(w.b, '"')
		w.b = v.AppendString(w.b)
		w.b = append(w.b, '"')
	}
}

// ask writes the /ask reply: verification, columns, rows, row_count,
// affected, answer, feedback and plan, in that order.
func (w *writer) ask(resp *core.Response) {
	w.open('{')
	if resp.Verification != nil {
		w.key("verification")
		w.translation(resp.Verification)
	}
	rowCount := 0
	if r := resp.Result; r != nil {
		if len(r.Columns) > 0 {
			w.key("columns")
			w.strs(r.Columns)
		}
		if len(r.Rows) > 0 {
			w.key("rows")
			w.open('[')
			for _, row := range r.Rows {
				w.next()
				w.open('[')
				for _, v := range row {
					w.next()
					w.cell(v)
				}
				w.close(']')
			}
			w.close(']')
		}
		rowCount = len(r.Rows)
	}
	w.key("row_count")
	w.int(rowCount)
	if resp.Affected != 0 {
		w.key("affected")
		w.int(resp.Affected)
	}
	w.key("answer")
	w.str(resp.Answer)
	if resp.Feedback != "" {
		w.key("feedback")
		w.str(resp.Feedback)
	}
	if resp.Plan != nil && resp.Plan.Fingerprint != "" {
		w.key("plan")
		w.str(resp.Plan.Fingerprint)
	}
	w.close('}')
}

// translation writes a querytotext.Translation: text, category, subtype,
// declarative and notes.
func (w *writer) translation(tr *talkback.Translation) {
	w.open('{')
	w.key("text")
	w.str(tr.Text)
	if c := tr.Class.Category.String(); c != "" {
		w.key("category")
		w.str(c)
	}
	if s := tr.Class.Subtype.String(); s != "" {
		w.key("subtype")
		w.str(s)
	}
	w.key("declarative")
	w.b = strconv.AppendBool(w.b, tr.Declarative)
	if len(tr.Notes) > 0 {
		w.key("notes")
		w.strs(tr.Notes)
	}
	w.close('}')
}

// safe[c] reports whether byte c stands for itself inside a JSON string:
// printable ASCII other than `"`, `\` and the HTML-escaped `<`, `>`, `&`.
var safe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range "\"\\<>&" {
		t[c] = false
	}
	return t
}()

const hex = "0123456789abcdef"

// appendString appends s as a quoted JSON string, escaped as encoding/json
// escapes it: `\"`, `\\`, `\b`, `\f`, `\n`, `\r`, `\t`, any other control
// byte and `<`, `>`, `&` as \u00XX, U+2028 and U+2029 as \u2028 and \u2029,
// and each byte of invalid UTF-8 as \ufffd. Runs of safe bytes are copied
// whole.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if safe[c] {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r != '\u2028' && r != '\u2029' && (r != utf8.RuneError || size != 1) {
				i += size
				continue
			}
			b = append(b, s[start:i]...)
			if r == utf8.RuneError {
				b = append(b, `\ufffd`...)
			} else {
				b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			}
			i += size
			start = i
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
		i++
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
