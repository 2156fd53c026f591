package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// This file holds the columnar backbone of a Table: one typed vector per
// attribute plus a null bitmap. Integers live in []int64, floats in
// []float64, text as []uint32 codes into a per-column string dictionary,
// dates as epoch-day []int64, and booleans as []bool. Tuples exist only at
// the API boundary — they are materialized on demand from the vectors.

// bitmap is a packed bit set marking NULL positions of one column.
//
// A frozen (snapshot) bitmap shares the writer's fully-populated words as a
// length-capped prefix and carries the boundary word — the one the writer is
// still filling — as a private masked copy in tail. Writer bitmaps keep
// tail == 0, so the extra branch in get never changes live semantics.
type bitmap struct {
	words []uint64
	tail  uint64
}

func (b *bitmap) get(i int) bool {
	w := i >> 6
	if w >= len(b.words) {
		if w == len(b.words) {
			return b.tail&(1<<(uint(i)&63)) != 0
		}
		return false
	}
	return b.words[w]&(1<<(uint(i)&63)) != 0
}

func (b *bitmap) set(i int, v bool) {
	w := i >> 6
	if w >= len(b.words) {
		if !v {
			return // storing false beyond the words is a no-op; null-free
			// columns keep an empty bitmap
		}
		for w >= len(b.words) {
			b.words = append(b.words, 0)
		}
	}
	mask := uint64(1) << (uint(i) & 63)
	if v {
		b.words[w] |= mask
	} else {
		b.words[w] &^= mask
	}
}

// truncate clears every bit at position n or beyond.
func (b *bitmap) truncate(n int) {
	full := (n + 63) >> 6
	if full < len(b.words) {
		b.words = b.words[:full]
	}
	if n&63 != 0 && len(b.words) == full && full > 0 {
		b.words[full-1] &= (1 << (uint(n) & 63)) - 1
	}
}

// dict is a per-column string dictionary: codes are assigned in first-seen
// order. Per-code reference counts track which entries live rows still hold,
// and maybeCompactDict (zonemap.go) reclaims the codes once dead entries
// dominate — so per-entry verdict loops never pay for churned-away strings
// forever. An opt-in sorted variant (EnableSortedDict) additionally keeps
// code<->rank tables in string sort order.
type dict struct {
	strs []string
	code map[string]uint32
	// codeMu guards the code map, which is shared between the writer's dict
	// and the frozen clones handed to snapshots: the writer interns under the
	// write lock while snapshot readers probe DictCode concurrently. The
	// pointer is shared across clones so everyone serializes on one lock.
	codeMu *sync.RWMutex
	// refs[c] counts live rows holding code c; live counts codes with
	// refs > 0 — the column's distinct count. Maintained by the writer paths
	// through retainRow/releaseRow (stats.go).
	refs []int32
	live int
	// ranked turns on the sorted dictionary: rank maps code -> sort rank,
	// order maps rank -> code. Writers flag rankStale when the vocabulary
	// changes; the tables rebuild lazily on the next ranked read (guarded by
	// rankMu so concurrent readers rebuild once), which keeps bulk loads
	// linear instead of re-sorting the dictionary after every statement.
	ranked    bool
	rankStale atomic.Bool
	rankMu    sync.Mutex
	rank      []uint32
	order     []uint32
}

func newDict() *dict {
	return &dict{code: make(map[string]uint32), codeMu: &sync.RWMutex{}}
}

// intern returns the code for s, assigning the next one on first sight.
func (d *dict) intern(s string) uint32 {
	d.codeMu.RLock()
	c, ok := d.code[s]
	d.codeMu.RUnlock()
	if ok {
		return c
	}
	c = uint32(len(d.strs))
	d.strs = append(d.strs, s)
	d.codeMu.Lock()
	d.code[s] = c
	d.codeMu.Unlock()
	d.refs = append(d.refs, 0)
	if d.ranked {
		d.rankStale.Store(true)
	}
	return c
}

// freeze builds a snapshot clone of the dictionary: the vocabulary is the
// length-capped strs prefix (the writer only appends), the code map is shared
// under codeMu with lookups filtered to the frozen vocabulary, and the rank
// tables rebuild lazily — privately, over the frozen vocabulary — on the
// clone's first ranked read. refs stay with the writer; a frozen dict never
// retains or releases.
func (d *dict) freeze() *dict {
	fd := &dict{
		strs:   d.strs[:len(d.strs):len(d.strs)],
		code:   d.code,
		codeMu: d.codeMu,
		live:   d.live,
		ranked: d.ranked,
	}
	if fd.ranked {
		fd.rankStale.Store(true)
	}
	return fd
}

// column is one attribute's storage: a typed vector (selected by kind) and
// the null bitmap. NULL positions carry a zero placeholder in the vector.
// Zone maps (zonemap.go) summarize each ZoneRows-sized range; Int/Date
// columns additionally keep a frame-of-reference encoding (per-zone base +
// byte deltas) while every zone's span fits in a byte.
type column struct {
	kind  value.Kind
	nulls bitmap
	ints  []int64 // Int payloads, or Date epoch days
	flts  []float64
	bls   []bool
	codes []uint32 // Text dictionary codes
	dict  *dict
	// counts maps an Int, Float or Date value's value.Key64 to the number of
	// live rows holding it — its size is the distinct count (stats.go). Nil
	// for Text (dict.live counts) and Bool (the bounds tell), and in frozen
	// columns, whose statistics are captured at freeze.
	counts map[uint64]int32
	// zones summarize ZoneRows-sized ranges; zrows is the number of rows they
	// cover (== the table's row count whenever no write is in flight).
	zones []zone
	zrows int
	// ztail is a frozen column's private copy of the partial boundary zone the
	// writer is still extending; zoneAt routes reads past len(zones) to it.
	// Writer columns keep hasZTail false.
	ztail    zone
	hasZTail bool
	// Frame-of-reference encoding: fb holds one base per zone, d8 one
	// ZoneRows-capacity chunk of byte deltas per zone (value = fb[z] +
	// d8[z][row&ZoneMask]). forOff sticks once any zone's span overflows a
	// byte. d8Cow marks the current partial chunk as shared with a frozen
	// snapshot: a rebase (the only in-place mutation) clones it first.
	fb     []int64
	d8     [][]uint8
	d8Cow  bool
	forOff bool
}

// zoneAt returns the zone summary for index z, routing a frozen column's
// boundary-zone reads to its private tail copy.
func (c *column) zoneAt(z int) *zone {
	if z < len(c.zones) {
		return &c.zones[z]
	}
	return &c.ztail
}

// zoneCount returns the number of zones summarizing the column, including a
// frozen column's private tail zone.
func (c *column) zoneCount() int {
	n := len(c.zones)
	if c.hasZTail {
		n++
	}
	return n
}

// d8Rows returns the number of rows the frame-of-reference chunks cover.
func (c *column) d8Rows() int {
	if len(c.d8) == 0 {
		return 0
	}
	return (len(c.d8)-1)<<ZoneShift + len(c.d8[len(c.d8)-1])
}

func newColumn(kind value.Kind) column {
	c := column{kind: kind}
	switch kind {
	case value.Text:
		c.dict = newDict()
	case value.Int, value.Float, value.Date:
		c.counts = make(map[uint64]int32)
	}
	if kind != value.Int && kind != value.Date {
		c.forOff = true // frame-of-reference applies to Int/Date only
	}
	return c
}

// appendVal appends v at position row (== the current column length). The
// caller has already coerced v to the column kind or NULL; anything else is
// a storage-invariant violation.
func (c *column) appendVal(v value.Value, row int) {
	null := v.IsNull()
	if null {
		c.nulls.set(row, true)
	} else if v.Kind() != c.kind {
		panic(fmt.Sprintf("storage: %s value appended to %s column", v.Kind(), c.kind))
	}
	switch c.kind {
	case value.Int:
		var x int64
		if !null {
			x = v.Int()
		}
		c.ints = append(c.ints, x)
	case value.Float:
		var x float64
		if !null {
			x = v.Float()
		}
		c.flts = append(c.flts, x)
	case value.Text:
		var x uint32
		if !null {
			x = c.dict.intern(v.Text())
		}
		c.codes = append(c.codes, x)
	case value.Date:
		var x int64
		if !null {
			x = v.DateDays()
		}
		c.ints = append(c.ints, x)
	case value.Bool:
		c.bls = append(c.bls, !null && v.Bool())
	default:
		panic(fmt.Sprintf("storage: column of kind %s", c.kind))
	}
	c.retainRow(row)
	c.zoneExtend(row)
}

// value materializes position i. Text shares the dictionary string; no
// allocation happens for any kind.
func (c *column) value(i int) value.Value {
	if c.nulls.get(i) {
		return value.NewNull()
	}
	switch c.kind {
	case value.Int:
		return value.NewInt(c.ints[i])
	case value.Float:
		return value.NewFloat(c.flts[i])
	case value.Text:
		return value.NewText(c.dict.strs[c.codes[i]])
	case value.Date:
		return value.NewDateDays(c.ints[i])
	case value.Bool:
		return value.NewBool(c.bls[i])
	default:
		return value.NewNull()
	}
}

// setVal overwrites position i (Update path; v is coerced or NULL). Zone
// maps are NOT maintained here — the Update path rebuilds the zones holding
// an updated row once the write completes.
func (c *column) setVal(i int, v value.Value) {
	null := v.IsNull()
	c.releaseRow(i) // the old value loses this row
	c.nulls.set(i, null)
	if !null && v.Kind() != c.kind {
		panic(fmt.Sprintf("storage: %s value stored into %s column", v.Kind(), c.kind))
	}
	switch c.kind {
	case value.Int:
		if null {
			c.ints[i] = 0
		} else {
			c.ints[i] = v.Int()
		}
	case value.Float:
		if null {
			c.flts[i] = 0
		} else {
			c.flts[i] = v.Float()
		}
	case value.Text:
		if null {
			c.codes[i] = 0
		} else {
			c.codes[i] = c.dict.intern(v.Text())
		}
	case value.Date:
		if null {
			c.ints[i] = 0
		} else {
			c.ints[i] = v.DateDays()
		}
	case value.Bool:
		c.bls[i] = !null && v.Bool()
	}
	c.retainRow(i)
}

// moveRows slides rows [src, end) down to start at dst (Delete compaction;
// dst <= src). Payloads move as one block; null bits move one by one, and not
// at all for a column that never stored a NULL.
func (c *column) moveRows(dst, src, end int) {
	if dst == src || src >= end {
		return
	}
	switch c.kind {
	case value.Int, value.Date:
		copy(c.ints[dst:], c.ints[src:end])
	case value.Float:
		copy(c.flts[dst:], c.flts[src:end])
	case value.Text:
		copy(c.codes[dst:], c.codes[src:end])
	case value.Bool:
		copy(c.bls[dst:], c.bls[src:end])
	}
	if len(c.nulls.words) == 0 {
		return
	}
	for i := src; i < end; i++ {
		c.nulls.set(dst+i-src, c.nulls.get(i))
	}
}

// truncate drops every position at n or beyond.
func (c *column) truncate(n int) {
	c.nulls.truncate(n)
	switch c.kind {
	case value.Int, value.Date:
		c.ints = c.ints[:n]
	case value.Float:
		c.flts = c.flts[:n]
	case value.Text:
		c.codes = c.codes[:n]
	case value.Bool:
		c.bls = c.bls[:n]
	}
}

// Col is a read-only handle on one column vector, the engine's zero-copy
// window into the table. The slices it exposes are the live storage — safe
// for concurrent readers under the storage contract (writers are exclusive),
// and never to be mutated.
type Col struct {
	c *column
}

// Kind returns the column's value kind (Date columns report value.Date but
// expose epoch days through Ints).
func (c Col) Kind() value.Kind { return c.c.kind }

// Null reports whether position i is NULL.
func (c Col) Null(i int) bool { return c.c.nulls.get(i) }

// HasNulls reports whether any position is NULL (cheap word scan), letting
// vectorized filters skip the per-row null check entirely.
func (c Col) HasNulls() bool {
	for _, w := range c.c.nulls.words {
		if w != 0 {
			return true
		}
	}
	return c.c.nulls.tail != 0
}

// Ints exposes the Int payloads — or, for Date columns, the epoch days.
func (c Col) Ints() []int64 { return c.c.ints }

// Floats exposes the Float payloads.
func (c Col) Floats() []float64 { return c.c.flts }

// Bools exposes the Bool payloads.
func (c Col) Bools() []bool { return c.c.bls }

// Codes exposes the Text dictionary codes.
func (c Col) Codes() []uint32 { return c.c.codes }

// DictLen returns the dictionary size (distinct strings ever stored).
func (c Col) DictLen() int { return len(c.c.dict.strs) }

// DictString resolves a dictionary code to its string (shared, not copied).
func (c Col) DictString(code uint32) string { return c.c.dict.strs[code] }

// DictCode looks up the code for s; ok is false when s never occurred in the
// column — which proves no row equals s without touching a single string. The
// map is shared with the writer's dictionary (codeMu serializes against
// interning), and codes past the frozen vocabulary — strings first seen after
// the snapshot — report as absent.
func (c Col) DictCode(s string) (uint32, bool) {
	d := c.c.dict
	d.codeMu.RLock()
	code, ok := d.code[s]
	d.codeMu.RUnlock()
	if ok && code >= uint32(len(d.strs)) {
		return 0, false
	}
	return code, ok
}

// Value materializes position i (allocation-free; Text shares the
// dictionary string).
func (c Col) Value(i int) value.Value { return c.c.value(i) }
