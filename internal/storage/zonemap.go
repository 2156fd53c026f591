package storage

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/value"
)

// This file adds per-morsel zone maps and lightweight encodings on top of the
// column vectors. Every ZoneRows-sized range of a column keeps a zone: its
// null count, typed min/max bounds over the comparable values, and whether the
// range is sorted — enough for a predicate to decide a whole morsel without
// touching the payload vector. Zones are extended incrementally on Insert
// (appendVal), rebuilt from the first removed row after Delete, and rebuilt
// one by one where a row was replaced after Update, so a write never pays
// more than the zones it disturbed.
//
// Two encodings ride on the same maintenance pass:
//
//   - Frame-of-reference for Int/Date columns: when every zone's value span
//     fits in a byte, the column keeps a per-zone base plus one uint8 delta
//     per row. Range predicates then stream 1/8th of the bytes. The encoding
//     drops out permanently the first time a zone's span overflows — sorted
//     or clustered columns keep it, random wide columns shed it immediately.
//     A zone whose values are all equal (min == max) is the degenerate
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
	// morsel-parallel scans and zone maps always agree on the unit.
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
	nulls   int32
	lastRow int32 // last bounded row, for incremental sortedness; -1 if none
	has     bool  // any bounded (non-NULL, non-NaN) value
	sorted  bool  // bounded values non-decreasing in row order
	hasNaN  bool
	minI    int64 // Int/Date bounds; Bool bounds as 0/1
	maxI    int64
	minF    float64
	maxF    float64
	minS    string // Text bounds (shared dictionary strings)
	maxS    string
}

// zoneExtend folds the just-appended row into its zone, growing the zone
// slice (and the frame-of-reference vectors) at morsel boundaries. Called
// with the payload and null bit already stored.
func (c *column) zoneExtend(row int) {
	z := row >> ZoneShift
	if z == len(c.zones) {
		c.zones = append(c.zones, zone{lastRow: -1})
		if !c.forOff {
			c.fb = append(c.fb, 0)
			c.d8 = append(c.d8, nil)
			c.d8Cow = false // a fresh chunk is writer-private
		}
	}
	c.zrows = row + 1
	zn := &c.zones[z]
	if c.nulls.get(row) {
		zn.nulls++
		if !c.forOff {
			c.d8[z] = append(c.d8[z], 0) // placeholder; never read for NULL rows
		}
		return
	}
	switch c.kind {
	case value.Int, value.Date:
		x := c.int(row)
		if !zn.has {
			zn.has, zn.sorted = true, true
			zn.minI, zn.maxI = x, x
			if !c.forOff {
				c.fb[z] = x
				c.d8[z] = append(c.d8[z], 0)
			}
		} else {
			if x < c.int(int(zn.lastRow)) {
				zn.sorted = false
			}
			if x < zn.minI {
				zn.minI = x
			} else if x > zn.maxI {
				zn.maxI = x
			}
			if !c.forOff {
				c.forAppend(z, row, x)
			}
		}
	case value.Float:
		x := c.flt(row)
		if math.IsNaN(x) {
			zn.hasNaN = true
			zn.sorted = false
			return
		}
		if !zn.has {
			zn.has, zn.sorted = true, true
			zn.minF, zn.maxF = x, x
		} else {
			if x < c.flt(int(zn.lastRow)) {
				zn.sorted = false
			}
			if x < zn.minF {
				zn.minF = x
			} else if x > zn.maxF {
				zn.maxF = x
			}
		}
	case value.Text:
		s := c.dict.strs[c.code(row)]
		if !zn.has {
			zn.has, zn.sorted = true, true
			zn.minS, zn.maxS = s, s
		} else {
			if s < c.dict.strs[c.code(int(zn.lastRow))] {
				zn.sorted = false
			}
			if s < zn.minS {
				zn.minS = s
			} else if s > zn.maxS {
				zn.maxS = s
			}
		}
	case value.Bool:
		var x int64
		if c.bl(row) {
			x = 1
		}
		if !zn.has {
			zn.has, zn.sorted = true, true
			zn.minI, zn.maxI = x, x
		} else {
			prev := int64(0)
			if c.bl(int(zn.lastRow)) {
				prev = 1
			}
			if x < prev {
				zn.sorted = false
			}
			if x < zn.minI {
				zn.minI = x
			} else if x > zn.maxI {
				zn.maxI = x
			}
		}
	}
	zn.lastRow = int32(row)
}

// forAppend extends the frame-of-reference deltas with x. The base is
// maintained as the zone minimum: a value below it rebases the zone's deltas
// (bounded by the zone size), a span past a byte drops the encoding for good.
// A rebase is the only in-place chunk mutation, so it is the one spot that
// honors the copy-on-write flag a snapshot freeze leaves behind.
func (c *column) forAppend(z, row int, x int64) {
	base := c.fb[z]
	if d := x - base; d >= 0 && d <= 255 {
		c.d8[z] = append(c.d8[z], uint8(d))
		return
	}
	zn := &c.zones[z]
	span := zn.maxI - zn.minI // bounds already include x
	if span < 0 || span > 255 {
		c.forDrop()
		return
	}
	if c.d8Cow {
		// The chunk is shared with a frozen snapshot (which also keeps its own
		// copy of the old base); shift a private clone instead.
		c.d8[z] = append([]uint8(nil), c.d8[z]...)
		c.countCopied(len(c.d8[z]))
		c.d8Cow = false
	}
	// x became the new minimum: shift the zone's deltas onto the new base.
	shift := uint8(base - zn.minI)
	chunk := c.d8[z]
	for i := range chunk {
		chunk[i] += shift // NULL placeholders shift too; they are never read
	}
	c.fb[z] = zn.minI
	c.d8[z] = append(chunk, uint8(x-zn.minI))
}

func (c *column) forDrop() {
	c.forOff = true
	c.fb, c.d8 = nil, nil
}

// rebuildZonesFrom discards every zone from the one containing row onward and
// re-derives them (and the frame-of-reference vectors) over rows [.., n).
// Delete calls it once per write with the first removed row.
func (c *column) rebuildZonesFrom(row, n int) {
	z0 := row >> ZoneShift
	if z0 > len(c.zones) {
		z0 = len(c.zones)
	}
	c.zones = c.zones[:z0]
	c.zrows = z0 << ZoneShift
	if !c.forOff {
		c.fb = c.fb[:z0]
		c.d8 = c.d8[:z0]
		c.d8Cow = false // the partial chunk was dropped; re-extension allocates fresh
	}
	for r := c.zrows; r < n; r++ {
		c.zoneExtend(r)
	}
}

// rebuildZone re-derives zone z alone (and its frame-of-reference chunk, as a
// fresh allocation — a frozen snapshot may hold the old one) over its rows
// below n. Update calls it for each zone holding a replaced row; the zones
// around it, and how many rows the zones cover, are left as they are.
func (c *column) rebuildZone(z, n int) {
	lo := z << ZoneShift
	hi := lo + ZoneRows
	last := hi >= n
	if last {
		hi = n
	}
	zrows, cow := c.zrows, c.d8Cow
	c.zones[z] = zone{lastRow: -1}
	if !c.forOff {
		c.fb[z] = 0
		c.d8[z] = make([]uint8, 0, hi-lo)
		c.d8Cow = false // the chunk being refilled is private
	}
	for r := lo; r < hi; r++ {
		c.zoneExtend(r)
	}
	c.zrows = zrows
	if !last {
		c.d8Cow = cow // still describes the partial chunk, which was not touched
	}
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

// count returns the number of set bits below position n.
func (b *bitmap) count(n int) int {
	total := 0
	full := n >> 6
	if full > len(b.words) {
		full = len(b.words)
	}
	for _, w := range b.words[:full] {
		total += popcount64(w)
	}
	if rem := n & 63; rem != 0 && full < len(b.words) {
		total += popcount64(b.words[full] & ((1 << uint(rem)) - 1))
	}
	return total
}

func popcount64(w uint64) int {
	n := 0
	for ; w != 0; w &= w - 1 {
		n++
	}
	return n
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
	code := make(map[string]uint32, d.live)
	for old, s := range d.strs {
		if d.refs[old] <= 0 {
			// Dead entries are simply left out of the fresh map — the old map
			// is never mutated, because frozen snapshots may still read it
			// (their rows legitimately hold codes the live table dropped).
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
		code[s] = nc
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

// finishWrite runs the per-column write-completion maintenance after rows
// moved (Delete, suffix rollback): rebuild zones from the first disturbed row
// and compact churned dictionaries. Sorted-dict ranks are NOT rebuilt here —
// every statement of a bulk load grows the vocabulary, so an eager
// per-statement re-sort would make loading quadratic; the next ranked read
// rebuilds once instead.
func (t *Table) finishWrite(dirtyFrom int) {
	for j := range t.cols {
		c := &t.cols[j]
		c.rebuildZonesFrom(dirtyFrom, t.rows)
		c.maybeCompactDict(t.rows)
	}
}

// finishUpdate is finishWrite for rows replaced in place: only the given
// zones rebuild, and only in the columns a replacement changed.
func (t *Table) finishUpdate(zones []int, colChanged []bool) {
	for j := range t.cols {
		c := &t.cols[j]
		if colChanged[j] {
			for _, z := range zones {
				c.rebuildZone(z, t.rows)
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
	tbl := db.tables[strings.ToLower(relName)]
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

// ZoneSorted reports whether zone z's bounded values are non-decreasing.
func (c Col) ZoneSorted(z int) bool { return c.c.zoneAt(z).sorted }

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
