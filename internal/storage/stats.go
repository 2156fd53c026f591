package storage

import "repro/internal/value"

// This file reads table statistics off state the columns already keep, so
// every number has one copy: bounds fold from the zone maps (NaN excluded,
// as the zones exclude it), the non-NULL count is the row count minus the
// zones' NULL counts, a TEXT column's distinct count is its dictionary's
// live-code count, and a BOOL column's follows from its bounds. Only INT,
// DATE and FLOAT columns keep a count-map of their own — the numeric twin of
// the dictionary's per-code references, maintained by the same column
// writers (retainRow/releaseRow).

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
		a.Distinct = len(c.counts)
	}
	return a
}

// retainRow notes that row i's stored value is live: a text row holds its
// dictionary code, a numeric row counts once more under its value.Key64.
// Writers call it after storing the payload and the null bit.
func (c *column) retainRow(i int) {
	if c.nulls.get(i) {
		return
	}
	switch c.kind {
	case value.Text:
		c.dict.retain(c.code(i))
	case value.Int, value.Float, value.Date:
		c.counts[c.value(i).Key64()]++
	}
}

// releaseRow undoes retainRow ahead of row i's removal or overwrite.
func (c *column) releaseRow(i int) {
	if c.nulls.get(i) {
		return
	}
	switch c.kind {
	case value.Text:
		c.dict.release(c.code(i))
	case value.Int, value.Float, value.Date:
		k := c.value(i).Key64()
		if c.counts[k] <= 1 {
			delete(c.counts, k)
		} else {
			c.counts[k]--
		}
	}
}
