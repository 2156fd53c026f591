package storage

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/value"
)

// This file adds per-morsel zone maps and lightweight encodings on top of the
// column vectors. Every ZoneRows-sized range of a column keeps a zone: its
// null count and typed min/max bounds over the comparable values — enough for
// a predicate to decide a whole morsel without touching the payload vector.
//
// Zones follow the rows a write touches, the maintenance rule of small
// materialized aggregates. A value arriving — an appended row, an UPDATE's new
// value, a row a DELETE slides down from the next zone — is folded in, which
// only widens the bounds. A value leaving — a deleted row, an UPDATE's old
// value, a row sliding down to the previous zone — is subtracted: that adjusts
// the NULL count, and marks the zone stale only when the value sits on one of
// its bounds or is NaN, since what else the zone holds is unknown. Before a
// write returns it rescans its stale zones (rederive), so it pays for the rows
// it touches plus the zones whose extremes it removed. Checkpoint load builds
// every zone with the same range builder appends use (extend).
//
// Two encodings ride on the same maintenance:
//
//   - Frame-of-reference for Int/Date columns: when every zone's value span
//     fits in a byte, the column keeps a per-zone base — the zone minimum —
//     plus one uint8 delta per row. Range predicates then stream 1/8th of the
//     bytes. An appended value below the base rebases the zone's deltas; an
//     UPDATE rewrites its row's one byte; a DELETE slides the bytes with the
//     payload and re-encodes a row that crosses into another zone against
//     that zone's base. A value that does not fit under its zone's base marks
//     the zone stale, and the rescan re-encodes it. The encoding drops out
//     permanently the first time a zone's span overflows — sorted or
//     clustered columns keep it, random wide columns shed it immediately. A
//     zone whose values are all equal (min == max) is the degenerate
//     run-length case: its deltas are all zero and bounds alone decide every
//     predicate.
//
//   - An opt-in sorted dictionary for Text columns (EnableSortedDict): the
//     dictionary keeps a code->rank table in string sort order, so range and
//     LIKE-prefix predicates compare integer ranks instead of strings.

const (
	// ZoneShift is log2(ZoneRows).
	ZoneShift = 12
	// ZoneRows is the zone-map granularity: one zone summarizes one
	// morsel-sized range of rows. planner.MorselRows aliases this constant so
	// the planner's zone-skip estimate and the zone maps agree on the unit.
	ZoneRows = 1 << ZoneShift

	// ZoneMask extracts a row's offset within its zone; the engine indexes
	// frame-of-reference delta chunks with d8[i>>ZoneShift][i&ZoneMask].
	ZoneMask = ZoneRows - 1
)

// zone summarizes rows [z*ZoneRows, (z+1)*ZoneRows) of one column. Bounds
// cover the comparable non-NULL values: NaN never enters minF/maxF (it is
// incomparable), so a float zone flags hasNaN and predicates treat it as
// undecidable instead.
type zone struct {
	nulls  int32
	has    bool // any bounded (non-NULL, non-NaN) value
	hasNaN bool
	// stale marks a zone a write could not subtract a value from; the write
	// rescans it before returning, so no reader ever sees it set.
	stale bool
	minI  int64 // Int/Date bounds; Bool bounds as 0/1
	maxI  int64
	minF  float64
	maxF  float64
	minS  string // Text bounds (shared dictionary strings)
	maxS  string
}

// extend folds rows [lo, hi) — appended at the column's end, payloads and
// NULL bits stored — into the derived state: the distinct counts or
// dictionary references, then each zone the range touches, one typed pass per
// zone, growing the zone slice (and the frame-of-reference vectors) at zone
// boundaries. An append and a checkpoint load (over [0, n)) both build it
// this way.
func (c *column) extend(lo, hi int) {
	c.retainRange(lo, hi)
	for z := lo >> ZoneShift; z < chunksFor(hi); z++ {
		a, b := max(lo, z<<ZoneShift), min(hi, (z+1)<<ZoneShift)
		if z == len(c.zones) {
			c.zones = append(c.zones, zone{})
			if !c.forOff {
				c.fb = append(c.fb, 0)
				c.d8 = append(c.d8, nil)
				c.d8Own = append(c.d8Own, c.gen) // a fresh chunk is writer-private
			}
		}
		c.foldRange(&c.zones[z], a, b)
		if !c.forOff {
			c.forExtend(z, a, b)
		}
	}
	c.zrows = hi
}

// foldRange folds rows [a, b) of one zone into zn in row order, as fold
// would one row at a time, reading the zone's payload chunk directly.
func (c *column) foldRange(zn *zone, a, b int) {
	nulls := c.nulls.any(a, b)
	off := a &^ ZoneMask
	switch c.kind {
	case value.Int, value.Date:
		chunk := c.ints[a>>ZoneShift]
		for r := a; r < b; r++ {
			if nulls && c.nulls.get(r) {
				zn.nulls++
			} else {
				widen(zn, &zn.minI, &zn.maxI, chunk[r-off])
			}
		}
	case value.Float:
		chunk := c.flts[a>>ZoneShift]
		for r := a; r < b; r++ {
			switch x := chunk[r-off]; {
			case nulls && c.nulls.get(r):
				zn.nulls++
			case math.IsNaN(x):
				zn.hasNaN = true
			default:
				widen(zn, &zn.minF, &zn.maxF, x)
			}
		}
	case value.Text:
		chunk, strs := c.codes[a>>ZoneShift], c.dict.strs
		for r := a; r < b; r++ {
			if nulls && c.nulls.get(r) {
				zn.nulls++
			} else {
				widen(zn, &zn.minS, &zn.maxS, strs[chunk[r-off]])
			}
		}
	case value.Bool:
		chunk := c.bls[a>>ZoneShift]
		for r := a; r < b; r++ {
			if nulls && c.nulls.get(r) {
				zn.nulls++
			} else {
				widen(zn, &zn.minI, &zn.maxI, b2i(chunk[r-off]))
			}
		}
	}
}

// fold widens zn by row's stored value: a NULL counts, a NaN flags the zone,
// and a bounded value stretches the bounds — keeping the first-seen of equal
// bounds, as a pass in row order does.
func (c *column) fold(zn *zone, row int) {
	if c.nulls.get(row) {
		zn.nulls++
		return
	}
	switch c.kind {
	case value.Int, value.Date:
		widen(zn, &zn.minI, &zn.maxI, c.int(row))
	case value.Float:
		if x := c.flt(row); math.IsNaN(x) {
			zn.hasNaN = true
		} else {
			widen(zn, &zn.minF, &zn.maxF, x)
		}
	case value.Text:
		widen(zn, &zn.minS, &zn.maxS, c.dict.strs[c.code(row)])
	case value.Bool:
		widen(zn, &zn.minI, &zn.maxI, b2i(c.bl(row)))
	}
}

// widen stretches [*lo, *hi] over x; the zone's first bounded value sets both.
func widen[T int64 | float64 | string](zn *zone, lo, hi *T, x T) {
	if !zn.has {
		zn.has = true
		*lo, *hi = x, x
	} else if x < *lo {
		*lo = x
	} else if x > *hi {
		*hi = x
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// unfold subtracts row's stored value from its zone ahead of the value
// leaving: a NULL uncounts, and a value on one of the bounds — or a NaN, which
// the bounds leave out — marks the zone stale.
func (c *column) unfold(row int) {
	zn := &c.zones[row>>ZoneShift]
	if zn.stale {
		return
	}
	if c.nulls.get(row) {
		zn.nulls--
		return
	}
	switch c.kind {
	case value.Int, value.Date:
		x := c.int(row)
		zn.stale = x == zn.minI || x == zn.maxI
	case value.Float:
		x := c.flt(row)
		zn.stale = math.IsNaN(x) || x == zn.minF || x == zn.maxF
	case value.Text:
		s := c.dict.strs[c.code(row)]
		zn.stale = s == zn.minS || s == zn.maxS
	case value.Bool:
		x := b2i(c.bl(row))
		zn.stale = x == zn.minI || x == zn.maxI
	}
}

// arrive folds row's newly stored value into its zone out of row order — an
// UPDATE's new value, a row a DELETE slid in — and writes its
// frame-of-reference byte. Two arrivals mark the zone stale instead: a float
// equal to a bound but for its sign (-0.0 against +0.0), because a pass in row
// order keeps whichever comes first; and an Int/Date value that does not fit
// in a byte above the zone's base.
func (c *column) arrive(row int) {
	z := row >> ZoneShift
	zn := &c.zones[z]
	if zn.stale {
		return
	}
	null := c.nulls.get(row)
	if c.kind == value.Float && zn.has && !null {
		x := c.flt(row)
		if x == zn.minF && math.Signbit(x) != math.Signbit(zn.minF) ||
			x == zn.maxF && math.Signbit(x) != math.Signbit(zn.maxF) {
			zn.stale = true
			return
		}
	}
	c.fold(zn, row)
	if c.forOff || null {
		return // a NULL row's byte is a placeholder, never read
	}
	base := c.fb[z]
	d := c.int(row) - base
	if zn.minI != base || uint64(d) > 255 {
		zn.stale = true // a new minimum, or past the byte
		return
	}
	c.ownD8(z)[row&ZoneMask] = uint8(d)
}

// rederive rescans zone z over its rows below n and re-encodes its
// frame-of-reference chunk.
func (c *column) rederive(z, n int) {
	lo := z << ZoneShift
	hi := min(lo+ZoneRows, n)
	var zn zone
	for r := lo; r < hi; r++ {
		c.fold(&zn, r)
	}
	c.zones[z] = zn
	if c.forOff {
		return
	}
	var base int64
	if zn.has {
		if uint64(zn.maxI-zn.minI) > 255 {
			c.forDrop()
			return
		}
		base = zn.minI
	}
	chunk := c.d8[z]
	if c.d8Own[z] != c.gen || cap(chunk) < hi-lo {
		chunk = make([]uint8, 0, ZoneRows)
		c.d8Own[z] = c.gen
	}
	chunk = chunk[:hi-lo]
	for r := lo; r < hi; r++ {
		var b uint8
		if !c.nulls.get(r) {
			b = uint8(c.int(r) - base)
		}
		chunk[r-lo] = b
	}
	c.fb[z], c.d8[z] = base, chunk
}

// forExtend extends zone z's frame-of-reference deltas over rows [a, b);
// the zone's bounds already include them. A minimum below the base — or the
// zone's first bounded value — rebases the zone's earlier deltas onto it
// once; a span past a byte drops the encoding for good.
func (c *column) forExtend(z, a, b int) {
	zn := &c.zones[z]
	if zn.has && uint64(zn.maxI-zn.minI) > 255 {
		c.forDrop()
		return
	}
	if base := c.fb[z]; zn.has && base != zn.minI {
		chunk := c.ownD8(z)
		shift := uint8(base - zn.minI)
		for i := range chunk {
			chunk[i] += shift // NULL placeholders shift too; they are never read
		}
		c.fb[z] = zn.minI
	}
	base, off := c.fb[z], a&^ZoneMask
	chunk, payload := slices.Grow(c.d8[z], b-a), c.ints[z]
	nulls := c.nulls.any(a, b)
	for r := a; r < b; r++ {
		var d uint8 // placeholder for a NULL row; never read
		if !nulls || !c.nulls.get(r) {
			d = uint8(payload[r-off] - base)
		}
		chunk = append(chunk, d)
	}
	c.d8[z] = chunk
}

// ownD8 returns frame-of-reference chunk z ready for an in-place write:
// cloned first when it is not the writer's own since the last freeze.
func (c *column) ownD8(z int) []uint8 {
	if c.d8Own[z] != c.gen {
		c.d8[z] = slices.Clone(c.d8[z])
		c.countCopied(len(c.d8[z]))
		c.d8Own[z] = c.gen
	}
	return c.d8[z]
}

func (c *column) forDrop() {
	c.forOff = true
	c.fb, c.d8, c.d8Own = nil, nil, nil
}

// minMaxZones folds the zone bounds instead of rescanning payloads; the
// caller guarantees the zones cover exactly the live rows.
func (c *column) minMaxZones() (min, max value.Value) {
	first := true
	var loI, hiI int64
	var loF, hiF float64
	var loS, hiS string
	for i := range c.zones {
		zn := &c.zones[i]
		if !zn.has {
			continue
		}
		switch c.kind {
		case value.Int, value.Date, value.Bool:
			if first {
				loI, hiI = zn.minI, zn.maxI
			} else {
				if zn.minI < loI {
					loI = zn.minI
				}
				if zn.maxI > hiI {
					hiI = zn.maxI
				}
			}
		case value.Float:
			if first {
				loF, hiF = zn.minF, zn.maxF
			} else {
				if zn.minF < loF {
					loF = zn.minF
				}
				if zn.maxF > hiF {
					hiF = zn.maxF
				}
			}
		case value.Text:
			if first {
				loS, hiS = zn.minS, zn.maxS
			} else {
				if zn.minS < loS {
					loS = zn.minS
				}
				if zn.maxS > hiS {
					hiS = zn.maxS
				}
			}
		}
		first = false
	}
	if first {
		return value.NewNull(), value.NewNull()
	}
	switch c.kind {
	case value.Int:
		return value.NewInt(loI), value.NewInt(hiI)
	case value.Date:
		return value.NewDateDays(loI), value.NewDateDays(hiI)
	case value.Bool:
		return value.NewBool(loI == 1), value.NewBool(hiI == 1)
	case value.Float:
		return value.NewFloat(loF), value.NewFloat(hiF)
	case value.Text:
		return value.NewText(loS), value.NewText(hiS)
	}
	return value.NewNull(), value.NewNull()
}

// ---------------------------------------------------------------------------
// Dictionary liveness, compaction, and the opt-in sorted dictionary
// ---------------------------------------------------------------------------

// retain notes one more live row holding code c.
func (d *dict) retain(c uint32) {
	d.refs[c]++
	if d.refs[c] == 1 {
		d.live++
	}
}

// release notes one fewer live row holding code c.
func (d *dict) release(c uint32) {
	d.refs[c]--
	if d.refs[c] == 0 {
		d.live--
	}
}

// maybeCompactDict drops dead dictionary entries once they outnumber the live
// ones (and the dictionary is big enough to matter), remapping the code
// vector over the column's rows — every chunk of it, each made private first.
// Codes are reassigned in first-seen order among survivors, so the engine's
// per-entry verdict loops shrink back to the live vocabulary.
func (c *column) maybeCompactDict(rows int) {
	if c.kind != value.Text {
		return
	}
	d := c.dict
	if len(d.strs) < dictCompactMin || 2*d.live >= len(d.strs) {
		return
	}
	remap := make([]uint32, len(d.strs))
	strs := make([]string, 0, d.live)
	refs := make([]int32, 0, d.live)
	code := new(pkIndex)
	code.reserve(d.live)
	for old, s := range d.strs {
		if d.refs[old] <= 0 {
			// Dead entries are simply left out of the fresh table — the old
			// one is never mutated, because frozen snapshots may still read
			// it (their rows legitimately hold codes the live table dropped).
			continue
		}
		// A loaded dictionary's entries are substrings of one section
		// (segment.go); a kept entry is cloned so the compacted dictionary
		// does not pin the whole section.
		s = strings.Clone(s)
		nc := uint32(len(strs))
		remap[old] = nc
		strs = append(strs, s)
		refs = append(refs, d.refs[old])
		code.add(strHash(s), int(nc))
	}
	for z := range chunksFor(rows) {
		chunk := ownChunk(c, &c.codes, z)
		for off := range min(ZoneRows, rows-z<<ZoneShift) {
			if c.nulls.get(z<<ZoneShift + off) {
				chunk[off] = 0 // NULL placeholder; never dereferenced
			} else {
				chunk[off] = remap[chunk[off]]
			}
		}
	}
	d.strs, d.refs = strs, refs
	d.codeMu.Lock()
	d.code = code
	d.codeMu.Unlock()
	if d.ranked {
		d.rankStale.Store(true)
	}
}

// dictCompactMin is the smallest dictionary worth compacting.
const dictCompactMin = 64

// buildRanks derives the code<->rank tables for a sorted dictionary.
func (d *dict) buildRanks() {
	d.order = make([]uint32, len(d.strs))
	for i := range d.order {
		d.order[i] = uint32(i)
	}
	sort.Slice(d.order, func(a, b int) bool { return d.strs[d.order[a]] < d.strs[d.order[b]] })
	d.rank = make([]uint32, len(d.strs))
	for r, code := range d.order {
		d.rank[code] = uint32(r)
	}
	// Publish after the tables are written: readers acquire through this
	// load in SortedDict before touching rank/order.
	d.rankStale.Store(false)
}

// finishWrite completes a write that moved or replaced rows from zone z0 on
// (DELETE, UPDATE): every column rescans the zones the write
// left stale and compacts a churned dictionary. Sorted-dict ranks are NOT
// rebuilt here — every statement of a bulk load grows the vocabulary, so an
// eager per-statement re-sort would make loading quadratic; the next ranked
// read rebuilds once instead.
func (t *Table) finishWrite(z0 int) {
	for j := range t.cols {
		c := &t.cols[j]
		for z := z0; z < len(c.zones); z++ {
			if c.zones[z].stale {
				c.rederive(z, t.rows)
			}
		}
		c.maybeCompactDict(t.rows)
	}
}

// EnableSortedDict turns on the sorted dictionary for a TEXT attribute of
// relName: the column keeps code<->rank tables in string sort order so text
// range and LIKE-prefix predicates compare integer ranks. The tables are
// rebuilt at write completion whenever the vocabulary changed.
func (db *Database) EnableSortedDict(relName, attr string) error {
	if d := db.dur; d != nil {
		// Serialize against commits so the re-publish below cannot interleave
		// with a commit's freeze/install window (lock order: durability.mu
		// before db.mu).
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	tbl := db.index.table(db.tables, relName)
	if tbl == nil {
		return fmt.Errorf("storage: unknown relation %q", relName)
	}
	p := tbl.rel.AttrIndex(attr)
	if p < 0 {
		return fmt.Errorf("storage: unknown attribute %s.%s", relName, attr)
	}
	c := &tbl.cols[p]
	if c.kind != value.Text {
		return fmt.Errorf("storage: sorted dictionary needs a TEXT attribute, %s.%s is %s", relName, attr, c.kind)
	}
	if !c.dict.ranked {
		c.dict.ranked = true
		c.dict.buildRanks()
		// Re-publish at the same sequence: results are identical, but the
		// current snapshot's frozen dictionary must carry the ranked flag so
		// snapshot readers get the rank-compare fast path too.
		tbl.dirty = true
		db.publishLocked(db.pubSeq)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Read-side accessors (Col)
// ---------------------------------------------------------------------------

// ZoneCount returns the number of zones currently summarizing the column
// (including a frozen column's private boundary-zone copy).
func (c Col) ZoneCount() int { return c.c.zoneCount() }

// ZonesSynced reports whether the zones cover exactly n rows — the guard the
// engine checks once per scan before trusting zone verdicts.
func (c Col) ZonesSynced(n int) bool { return c.c.zrows == n }

// ZoneNulls returns the NULL count of zone z.
func (c Col) ZoneNulls(z int) int { return int(c.c.zoneAt(z).nulls) }

// ZoneHasNaN reports whether zone z holds any NaN (floats only): its bounds
// cover the comparable values but cannot decide predicates wholesale.
func (c Col) ZoneHasNaN(z int) bool { return c.c.zoneAt(z).hasNaN }

// ZoneIntBounds returns zone z's Int/Date (or Bool, as 0/1) bounds; ok is
// false when the zone holds no bounded value.
func (c Col) ZoneIntBounds(z int) (lo, hi int64, ok bool) {
	zn := c.c.zoneAt(z)
	return zn.minI, zn.maxI, zn.has
}

// ZoneFloatBounds returns zone z's Float bounds over its comparable values;
// ok is false when the zone holds no bounded value. Callers must also check
// ZoneHasNaN before treating the bounds as covering every row.
func (c Col) ZoneFloatBounds(z int) (lo, hi float64, ok bool) {
	zn := c.c.zoneAt(z)
	return zn.minF, zn.maxF, zn.has
}

// ZoneTextBounds returns zone z's Text bounds (shared dictionary strings); ok
// is false when the zone holds no bounded value.
func (c Col) ZoneTextBounds(z int) (lo, hi string, ok bool) {
	zn := c.c.zoneAt(z)
	return zn.minS, zn.maxS, zn.has
}

// FORInts exposes the frame-of-reference encoding of an Int/Date column: one
// base per zone and one ZoneRows-sized chunk of byte deltas per zone
// (value = base[i>>ZoneShift] + delta[i>>ZoneShift][i&ZoneMask]). ok is false
// when any zone's span overflowed a byte.
func (c Col) FORInts() (base []int64, delta [][]uint8, ok bool) {
	if c.c.forOff || c.c.d8Rows() != c.c.zrows {
		return nil, nil, false
	}
	return c.c.fb, c.c.d8, true
}

// SortedDict reports whether the column's dictionary keeps sort-order ranks,
// rebuilding them first if writes left them stale. The rebuild is guarded so
// concurrent readers sort the vocabulary once; a true return means Ranks,
// LowerBoundRank and DictStringAtRank reflect the current vocabulary.
func (c Col) SortedDict() bool {
	d := c.c.dict
	if d == nil || !d.ranked {
		return false
	}
	if d.rankStale.Load() {
		d.rankMu.Lock()
		if d.rankStale.Load() {
			d.buildRanks()
		}
		d.rankMu.Unlock()
	}
	return true
}

// Ranks exposes the code->rank table of a sorted dictionary: rank order is
// string sort order over the current vocabulary.
func (c Col) Ranks() []uint32 { return c.c.dict.rank }

// LowerBoundRank returns the number of dictionary strings sorting strictly
// below s — the rank s would occupy in a sorted dictionary.
func (c Col) LowerBoundRank(s string) int {
	d := c.c.dict
	return sort.Search(len(d.order), func(i int) bool { return d.strs[d.order[i]] >= s })
}

// DictLive returns the number of dictionary entries still held by live rows.
func (c Col) DictLive() int { return c.c.dict.live }
