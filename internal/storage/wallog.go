package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/value"
)

// This file is the logical-op codec of the write-ahead log. Every applied
// mutation encodes as one op; one WAL record carries the ops of one
// committed statement — one mutating storage call — under a monotonic
// sequence number, so recovery's unit of atomicity is exactly the unit Ask
// acknowledges. (Two raw-API writers whose applies race may share a record,
// and older logs hold records of several calls; replay treats any record as
// one unit.)
//
// Op layout (all integers varint unless noted):
//
//	insert      0x01 | rel | arity | value*
//	delete      0x02 | rel | count | position-delta*        (ascending rows)
//	update      0x05 | rel | count | position-delta* | attrCount | (attr | value*count)*
//	row update  0x03 | rel | count | (position, arity, value*)*  (read only)
//	index       0x04 | rel | name | attrCount | attr*            (refused)
//
// An update lists its rows once, as ascending position deltas, then each
// attribute it sets — ascending attribute indexes — with that attribute's
// values at those rows, in row order; the attributes it does not set are not
// logged. Op 0x03, one whole replacement row per position, is what older
// versions logged an UPDATE as; it is read only from older logs, decoded a
// run per attribute into the replay buffer and applied through the same
// update path. Op 0x04 defined a secondary hash
// index in older logs. This version indexes primary keys only and refuses
// such a record by table and index name rather than skipping it.
//
// Values encode as a kind byte plus a typed payload: 'n' NULL, 'i' zigzag
// int, 'f' 8-byte float bits, 't' length-prefixed text, 'd' zigzag epoch
// days, 'B'/'b' bool. Strings are length-prefixed so frames cannot alias.

const (
	opInsert    = 0x01
	opDelete    = 0x02
	opUpdateRow = 0x03
	opIndexDef  = 0x04
	opUpdate    = 0x05
)

func appendUvarint(buf []byte, x uint64) []byte { return binary.AppendUvarint(buf, x) }

func appendVarint(buf []byte, x int64) []byte { return binary.AppendVarint(buf, x) }

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendWalValue(buf []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.Null:
		return append(buf, 'n')
	case value.Int:
		buf = append(buf, 'i')
		return appendVarint(buf, v.Int())
	case value.Float:
		buf = append(buf, 'f')
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	case value.Text:
		buf = append(buf, 't')
		return appendString(buf, v.Text())
	case value.Date:
		buf = append(buf, 'd')
		return appendVarint(buf, v.DateDays())
	case value.Bool:
		if v.Bool() {
			return append(buf, 'B')
		}
		return append(buf, 'b')
	default:
		return append(buf, '?')
	}
}

// walDecoder consumes the typed fields of an op payload. Every read checks
// bounds: a decoder over corrupt bytes returns errors, never panics.
type walDecoder struct {
	buf []byte
	off int
	err error
}

func (d *walDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("storage: wal decode: "+format, args...)
	}
}

func (d *walDecoder) done() bool { return d.off >= len(d.buf) || d.err != nil }

func (d *walDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("unexpected end of record")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *walDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return x
}

func (d *walDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return x
}

func (d *walDecoder) uint64le() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("truncated 8-byte field")
		return 0
	}
	x := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return x
}

func (d *walDecoder) string() string { return string(d.bytes()) }

// bytes consumes a length-prefixed string and returns its bytes in place,
// without copying them.
func (d *walDecoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("string length %d exceeds record", n)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// count reads an element count, refusing one larger than the record.
func (d *walDecoder) count(what string) int {
	n := d.uvarint()
	if n > uint64(len(d.buf)) {
		d.fail("%s count %d exceeds record", what, n)
		return 0
	}
	return int(n)
}

// value decodes one value; borrow returns text that aliases the record
// instead of a copy.
func (d *walDecoder) value(borrow bool) value.Value {
	switch k := d.byte(); k {
	case 'n':
		return value.NewNull()
	case 'i':
		return value.NewInt(d.varint())
	case 'f':
		return value.NewFloat(math.Float64frombits(d.uint64le()))
	case 't':
		if b := d.bytes(); borrow {
			return value.NewText(unsafe.String(unsafe.SliceData(b), len(b)))
		} else {
			return value.NewText(string(b))
		}
	case 'd':
		return value.NewDateDays(d.varint())
	case 'B':
		return value.NewBool(true)
	case 'b':
		return value.NewBool(false)
	default:
		d.fail("unknown value kind 0x%02x", k)
		return value.NewNull()
	}
}

// ---------------------------------------------------------------------------
// Op encoding (writer side)
// ---------------------------------------------------------------------------

func (d *durability) logInsert(rel string, tup Tuple) {
	d.pending = append(d.pending, opInsert)
	d.pending = appendString(d.pending, rel)
	d.pending = appendUvarint(d.pending, uint64(len(tup)))
	for _, v := range tup {
		d.pending = appendWalValue(d.pending, v)
	}
	d.pendingOps++
}

func (d *durability) logDelete(rel string, positions []int) {
	d.pending = append(d.pending, opDelete)
	d.pending = appendString(d.pending, rel)
	d.pending = appendPositions(d.pending, positions)
	d.pendingOps++
}

// logUpdate logs the rows an update applied: their positions, then each set
// attribute with its values at them. vals holds one run of stride values per
// attribute, the applied rows' first.
func (d *durability) logUpdate(rel string, positions, attrs []int, vals []value.Value, stride int) {
	d.pending = append(d.pending, opUpdate)
	d.pending = appendString(d.pending, rel)
	d.pending = appendPositions(d.pending, positions)
	d.pending = appendUvarint(d.pending, uint64(len(attrs)))
	for c, a := range attrs {
		d.pending = appendUvarint(d.pending, uint64(a))
		for _, v := range vals[c*stride : c*stride+len(positions)] {
			d.pending = appendWalValue(d.pending, v)
		}
	}
	d.pendingOps++
}

// appendPositions appends a count and the ascending positions as deltas.
func appendPositions(buf []byte, positions []int) []byte {
	buf = appendUvarint(buf, uint64(len(positions)))
	prev := 0
	for _, p := range positions {
		buf = appendUvarint(buf, uint64(p-prev))
		prev = p
	}
	return buf
}

// ---------------------------------------------------------------------------
// Op replay (recovery side)
// ---------------------------------------------------------------------------

// replayBatch decodes and applies one committed WAL record body (after its
// sequence number) through the locked write internals live DML uses; the
// caller holds db.mu for the whole record, so nothing else writes between its
// ops and no op publishes or commits. A run of consecutive inserts into one
// table decodes into the database's reused buffer — its text borrowed from
// the record — and applies as one batch, which checks its rows in order as
// the one-row inserts it logged were checked; an update decodes into the same
// buffer and applies a column at a time. Any decode or apply error aborts the
// batch — the caller keeps its partial ops out of every published version.
// ops counts the ops applied, an insert run's accepted rows included.
func (db *Database) replayBatch(d *walDecoder) (ops int, err error) {
	run := &db.replay
	run.reset(nil)
	// flush applies the pending insert run; an apply error wins over a
	// decode error that stopped the run, as it would have one op at a time.
	flush := func() error {
		if run.tbl == nil {
			return nil
		}
		n, err := db.insertRowsLocked(run.tbl, run.tuples(), true)
		ops += n
		run.reset(nil)
		return err
	}
	opCount := d.uvarint()
	for i := uint64(0); i < opCount; i++ {
		op := d.byte()
		if d.err == nil && (op < opInsert || op > opUpdate) {
			return ops, cmp.Or(flush(), fmt.Errorf("storage: wal decode: unknown op 0x%02x", op))
		}
		rel := d.bytes()
		if d.err != nil {
			return ops, cmp.Or(flush(), d.err)
		}
		// A run goes on while the ops name its table as the catalog does,
		// as every logged op does.
		if op == opInsert && run.tbl != nil && string(rel) == run.tbl.rel.Name {
			if !run.decodeRow(d) {
				return ops, cmp.Or(flush(), d.err)
			}
			continue
		}
		if err := flush(); err != nil {
			return ops, err
		}
		tbl, err := db.tableLocked(unsafe.String(unsafe.SliceData(rel), len(rel)))
		if err != nil {
			return ops, err
		}
		switch op {
		case opInsert:
			run.reset(tbl)
			if !run.decodeRow(d) {
				return ops, cmp.Or(flush(), d.err)
			}
			continue
		case opDelete:
			positions := make([]int, d.count("delete"))
			pos := 0
			for j := range positions {
				pos += int(d.uvarint())
				positions[j] = pos
			}
			if d.err != nil {
				return ops, d.err
			}
			_, err = db.deleteAtLocked(tbl, positions)
		case opUpdate:
			if !run.decodeUpdate(d) {
				return ops, d.err
			}
			_, err = db.updateAtLocked(tbl, run.pos, run.attrs, run.vals, true)
		case opUpdateRow:
			rows := run.decodeRowUpdate(d, len(tbl.cols))
			if d.err != nil {
				return ops, d.err
			}
			if err = tbl.checkPositions(run.pos); err == nil {
				_, err = db.updateWholeRowsLocked(tbl, run.pos, run.vals, rows, true)
			}
		case opIndexDef:
			name := d.string()
			if d.err != nil {
				return ops, d.err
			}
			return ops, fmt.Errorf("storage: wal record defines index %q on %s, but only primary keys are indexed; the log cannot replay", name, tbl.rel.Name)
		}
		if err != nil {
			return ops, err
		}
		ops++
	}
	if err := flush(); err != nil {
		return ops, err
	}
	return ops, d.err
}

// replayBuf is replay's reused decode buffer: the rows of one run of inserts
// into tbl, their values laid end to end, or one update's positions, set
// attributes and runs of values. Its text borrows the record decoded into it.
type replayBuf struct {
	tbl   *Table
	vals  []value.Value
	ends  []int // insert row k is vals[ends[k-1]:ends[k]]
	rows  []Tuple
	pos   []int
	attrs []int
}

// reset empties the buffer and starts an insert run into tbl (nil: no run).
func (r *replayBuf) reset(tbl *Table) {
	r.tbl, r.vals, r.ends = tbl, r.vals[:0], r.ends[:0]
}

// release clears the buffer's values, which borrow the text of the records
// decoded into it, once they have applied: recovery after its last record,
// a follower after each.
func (r *replayBuf) release() {
	clear(r.vals[:cap(r.vals)])
	r.reset(nil)
}

// decodeRow appends one insert op's tuple, its text borrowed from the record;
// false reports a decode error (in d.err).
func (r *replayBuf) decodeRow(d *walDecoder) bool {
	arity := d.uvarint()
	if d.err == nil && arity > uint64(len(d.buf)-d.off)+1 {
		d.fail("arity %d exceeds record", arity)
	}
	if d.err != nil {
		return false
	}
	start := len(r.vals)
	r.vals = slices.Grow(r.vals, int(arity))[:start+int(arity)]
	for i := start; i < len(r.vals) && d.err == nil; i++ {
		r.vals[i] = d.borrowedValue()
	}
	if d.err != nil {
		r.vals = r.vals[:start]
		return false
	}
	r.ends = append(r.ends, len(r.vals))
	return true
}

// tuples returns the run's rows, sliced out of the value buffer.
func (r *replayBuf) tuples() []Tuple {
	r.rows = r.rows[:0]
	start := 0
	for _, end := range r.ends {
		r.rows = append(r.rows, r.vals[start:end:end])
		start = end
	}
	return r.rows
}

// decodeUpdate decodes an update op's positions, set attributes and runs of
// values, its text borrowed from the record; false reports a decode error
// (in d.err). Order and range are left to the update path's own checks.
func (r *replayBuf) decodeUpdate(d *walDecoder) bool {
	n := d.count("update")
	r.pos = r.pos[:0]
	pos := 0
	for range n {
		pos += int(d.uvarint())
		r.pos = append(r.pos, pos)
	}
	w := d.count("update attribute")
	if d.err == nil && uint64(n)*uint64(w) > uint64(len(d.buf)-d.off) {
		d.fail("%d values of %d attributes exceed record", n*w, w)
	}
	if d.err != nil {
		return false
	}
	r.attrs = r.attrs[:0]
	r.vals = slices.Grow(r.vals[:0], n*w)
	for range w {
		r.attrs = append(r.attrs, int(d.uvarint()))
		for range n {
			r.vals = append(r.vals, d.borrowedValue())
		}
	}
	return d.err == nil
}

// decodeRowUpdate decodes an older log's update op, one whole replacement
// row per position, into one run per attribute of a table of w attributes,
// its text borrowed from the record. rows is how many leading replacements
// have w values; the values of the rows from the first that does not are
// left out.
func (r *replayBuf) decodeRowUpdate(d *walDecoder, w int) (rows int) {
	n := d.count("update")
	r.pos = r.pos[:0]
	r.vals = slices.Grow(r.vals[:0], n*w)[:n*w]
	rows = n
	for k := 0; k < n && d.err == nil; k++ {
		r.pos = append(r.pos, int(d.uvarint()))
		arity := d.uvarint()
		if d.err == nil && arity > uint64(len(d.buf)-d.off)+1 {
			d.fail("arity %d exceeds record", arity)
		}
		if d.err != nil {
			break
		}
		if arity != uint64(w) {
			rows = min(rows, k)
		}
		for j := range int(arity) {
			if v := d.borrowedValue(); k < rows {
				r.vals[j*n+k] = v
			}
		}
	}
	return rows
}

// borrowedValue decodes one value, its text aliasing the record. An INT, the
// common case, decodes here; any other kind (or a short record) goes through
// value.
func (d *walDecoder) borrowedValue() value.Value {
	if d.err == nil && d.off < len(d.buf) && d.buf[d.off] == 'i' {
		if x, n := binary.Varint(d.buf[d.off+1:]); n > 0 {
			d.off += 1 + n
			return value.NewInt(x)
		}
	}
	return d.value(true)
}
