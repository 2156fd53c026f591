package storage

import (
	"math/bits"

	"repro/internal/value"
)

// This file reads table statistics off state the columns already keep, so
// every number has one copy: bounds fold from the zone maps (NaN excluded,
// as the zones exclude it), the non-NULL count is the row count minus the
// zones' NULL counts, a TEXT column's distinct count is its dictionary's
// live-code count, and a BOOL column's follows from its bounds. Only INT,
// DATE and FLOAT columns keep a count-map of their own — the numeric twin of
// the dictionary's per-code references, maintained by the same column
// writers (retainRange, releaseRow, and the update path's setRun).

// AttrStats summarizes one attribute for cardinality estimation.
type AttrStats struct {
	// NonNull counts rows with a non-NULL value.
	NonNull int
	// Distinct counts distinct non-NULL values.
	Distinct int
	// Min and Max bound the non-NULL values (NULL when the column is empty).
	Min, Max value.Value
}

// TableStats is a point-in-time statistics snapshot the query planner uses
// to estimate selectivities and join cardinalities.
type TableStats struct {
	// Rows is the table cardinality.
	Rows int
	// Zones is the number of ZoneRows-sized zone-map ranges summarizing the
	// table — the morsel count a zone-skipping scan decides over.
	Zones int
	// Attrs holds one entry per attribute, in declaration order.
	Attrs []AttrStats
}

// Stats returns a snapshot of the table's statistics. A frozen snapshot view
// returns the statistics captured at its freeze point (the numeric count-maps
// are live); the live table derives them from its columns, whose zones cover
// exactly its rows after every storage call.
func (t *Table) Stats() TableStats {
	if t.statsView != nil {
		return *t.statsView
	}
	out := TableStats{
		Rows:  t.rows,
		Zones: (t.rows + ZoneRows - 1) / ZoneRows,
		Attrs: make([]AttrStats, len(t.cols)),
	}
	for i := range t.cols {
		out.Attrs[i] = t.cols[i].stats(t.rows)
	}
	return out
}

// stats derives one attribute's statistics; rows is the table's row count,
// which the zones cover.
func (c *column) stats(rows int) AttrStats {
	a := AttrStats{NonNull: rows}
	for z := range c.zones {
		a.NonNull -= int(c.zones[z].nulls)
	}
	a.Min, a.Max = c.minMaxZones()
	switch c.kind {
	case value.Text:
		a.Distinct = c.dict.live
	case value.Bool:
		if !a.Min.IsNull() {
			a.Distinct = 1
			if !a.Min.Equal(a.Max) {
				a.Distinct = 2
			}
		}
	default:
		a.Distinct = c.counts.n
	}
	return a
}

// retainRange notes that the appended rows [lo, hi) hold their stored
// values: a text row holds its dictionary code, a numeric row counts once
// more under its value.Key64. One typed pass counts a run of equal values
// once.
func (c *column) retainRange(lo, hi int) {
	switch c.kind {
	case value.Text:
		d := c.dict
		retainRuns(c, c.codes, lo, hi, func(code uint32, n int32) {
			if d.refs[code] == 0 {
				d.live++
			}
			d.refs[code] += n
		})
	case value.Int:
		retainRuns(c, c.ints, lo, hi, func(x int64, n int32) { c.counts.add(value.NewInt(x).Key64(), n) })
	case value.Date:
		retainRuns(c, c.ints, lo, hi, func(x int64, n int32) { c.counts.add(value.NewDateDays(x).Key64(), n) })
	case value.Float:
		retainRuns(c, c.flts, lo, hi, func(x float64, n int32) { c.counts.add(value.NewFloat(x).Key64(), n) })
	}
}

// retainRuns calls add once per run of equal non-NULL payloads in rows
// [lo, hi) of vec, with the run's length; NULL rows neither count nor break
// a run. A NaN equals nothing, so each NaN counts alone under its own key,
// as a row at a time would count it.
func retainRuns[T int64 | float64 | uint32](c *column, vec [][]T, lo, hi int, add func(T, int32)) {
	nulls := c.nulls.any(lo, hi)
	var prev T
	var run int32
	for r := lo; r < hi; r++ {
		if nulls && c.nulls.get(r) {
			continue
		}
		x := vec[r>>ZoneShift][r&ZoneMask]
		if run > 0 && x == prev {
			run++
			continue
		}
		if run > 0 {
			add(prev, run)
		}
		prev, run = x, 1
	}
	if run > 0 {
		add(prev, run)
	}
}

// releaseRow notes that row i's stored value leaves ahead of the row's
// removal: a text row releases its dictionary code, a numeric row counts
// once less under its value.Key64.
func (c *column) releaseRow(i int) {
	if c.nulls.get(i) {
		return
	}
	switch c.kind {
	case value.Text:
		c.dict.release(c.code(i))
	case value.Int, value.Float, value.Date:
		c.counts.remove(c.value(i).Key64())
	}
}

// countMap counts the live rows of each value.Key64 of a numeric column; its
// size is the column's distinct count. It is an open-addressed, linear-probed
// table of (key, count) slots, a zero count marking an empty one, that holds
// no pointer and updates a key with one probe sequence; removing a key shifts
// the rest of its cluster back, as the primary key's table does.
type countMap struct {
	keys   []uint64
	counts []int32
	n      int
	shift  uint // 64 - log2(len(keys))
}

// home returns key's first slot: Fibonacci hashing of the key with its high
// half folded in, since integer and date keys are float bits whose low bits
// are mostly zero.
func (m *countMap) home(key uint64) int {
	return int((key ^ key>>32) * 0x9E3779B97F4A7C15 >> m.shift)
}

// add counts n more rows holding key.
func (m *countMap) add(key uint64, n int32) {
	if (m.n+1)*4 > len(m.keys)*3 {
		m.grow()
	}
	mask := len(m.keys) - 1
	i := m.home(key)
	for m.counts[i] != 0 {
		if m.keys[i] == key {
			m.counts[i] += n
			return
		}
		i = (i + 1) & mask
	}
	m.keys[i], m.counts[i] = key, n
	m.n++
}

// grow doubles the table (to eight slots at first) and re-places every key.
func (m *countMap) grow() {
	keys, counts := m.keys, m.counts
	size := max(8, 2*len(keys))
	m.keys, m.counts = make([]uint64, size), make([]int32, size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for j, c := range counts {
		if c == 0 {
			continue
		}
		i := m.home(keys[j])
		for m.counts[i] != 0 {
			i = (i + 1) & mask
		}
		m.keys[i], m.counts[i] = keys[j], c
	}
}

// remove counts one row fewer holding key, which the table holds.
func (m *countMap) remove(key uint64) {
	mask := len(m.keys) - 1
	i := m.home(key)
	for m.keys[i] != key || m.counts[i] == 0 {
		i = (i + 1) & mask
	}
	if m.counts[i]--; m.counts[i] > 0 {
		return
	}
	// Shift back every later entry of the cluster whose probe path crosses
	// the hole.
	for j := (i + 1) & mask; m.counts[j] != 0; j = (j + 1) & mask {
		if (j-m.home(m.keys[j]))&mask >= (j-i)&mask {
			m.keys[i], m.counts[i] = m.keys[j], m.counts[j]
			m.counts[j] = 0
			i = j
		}
	}
	m.n--
}
