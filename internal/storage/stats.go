package storage

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/value"
)

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

// tableStats is the live, incrementally maintained form. Insert adds, Delete
// removes, Update does both for the attributes whose value changed (the
// storage contract makes writers exclusive).
// Distinct counts are exact: each attribute keeps a count-map from encoded
// value to multiplicity, so removals can retire a value when its count hits
// zero. Bounds are O(1) to extend on insert; a removal that touches the
// current min/max just marks the attribute dirty, and Table.fixStatBounds
// rescans only those columns after the write completes.
type tableStats struct {
	attrs []attrStat
}

type attrStat struct {
	// counts maps encoded values (value.AppendKey) to their multiplicity;
	// its size is the distinct count, read O(1).
	counts   map[string]int
	nonNull  int
	min, max value.Value
	// boundsDirty marks min/max as unreliable after a removal hit them.
	boundsDirty bool
}

func (s *tableStats) init(rel *catalog.Relation) {
	s.attrs = make([]attrStat, len(rel.Attributes))
	for i := range s.attrs {
		s.attrs[i].counts = make(map[string]int)
	}
}

// add folds one inserted tuple into the statistics. keyBuf is the table's
// writer-side scratch buffer.
func (s *tableStats) add(tup Tuple, keyBuf *[]byte) {
	for i := range s.attrs {
		s.attrs[i].add(tup[i], keyBuf)
	}
}

// remove subtracts one deleted tuple from the statistics.
func (s *tableStats) remove(tup Tuple, keyBuf *[]byte) {
	for i := range s.attrs {
		s.attrs[i].remove(tup[i], keyBuf)
	}
}

// add folds one stored value into the attribute's statistics.
func (a *attrStat) add(v value.Value, keyBuf *[]byte) {
	if v.IsNull() {
		return
	}
	a.nonNull++
	*keyBuf = v.AppendKey((*keyBuf)[:0])
	a.counts[string(*keyBuf)]++
	a.observeBounds(v)
}

// remove subtracts one deleted (or pre-update) value. Removing a value equal
// to the current min or max invalidates that bound; the owning Table rescans
// dirty columns once the write finishes.
func (a *attrStat) remove(v value.Value, keyBuf *[]byte) {
	if v.IsNull() {
		return
	}
	a.nonNull--
	*keyBuf = v.AppendKey((*keyBuf)[:0])
	if n, ok := a.counts[string(*keyBuf)]; ok {
		if n <= 1 {
			delete(a.counts, string(*keyBuf))
		} else {
			a.counts[string(*keyBuf)] = n - 1
		}
	}
	if isNaN(v) {
		// NaN never enters the bounds (observeBounds skips it), so removing
		// one cannot invalidate them. value.Equal would also miss it — NaN !=
		// NaN — which used to leave stale NaN bounds behind when a NaN
		// arrived first.
		return
	}
	if !a.boundsDirty && (v.Equal(a.min) || v.Equal(a.max)) {
		a.boundsDirty = true
	}
}

// isNaN reports whether v is a float NaN — incomparable, so it is excluded
// from min/max bounds everywhere (incremental add/remove, minMax rescans, and
// zone maps all agree on this).
func isNaN(v value.Value) bool {
	return v.Kind() == value.Float && math.IsNaN(v.Float())
}

func (a *attrStat) observeBounds(v value.Value) {
	if a.boundsDirty {
		return // a pending rescan will see this value too
	}
	if isNaN(v) {
		return // incomparable; bounds describe the ordered values
	}
	if a.min.IsNull() {
		a.min, a.max = v, v
		return
	}
	// Columns are typed, so comparisons against same-kind bounds cannot
	// fail; a failure would mean corrupted bounds — rescan to recover.
	if c, err := v.Compare(a.min); err != nil {
		a.boundsDirty = true
		return
	} else if c < 0 {
		a.min = v
	}
	if c, err := v.Compare(a.max); err != nil {
		a.boundsDirty = true
	} else if c > 0 {
		a.max = v
	}
}

// fixStatBounds rescans the column vector of every attribute whose bounds a
// removal invalidated. Called once per Delete/Update, after the rows moved.
func (t *Table) fixStatBounds() {
	for i := range t.stats.attrs {
		a := &t.stats.attrs[i]
		if !a.boundsDirty {
			continue
		}
		a.min, a.max = t.cols[i].minMax(t.rows)
		a.boundsDirty = false
	}
}

// Stats returns a snapshot of the table's statistics. A frozen snapshot view
// returns the statistics captured at its freeze point; the live table builds
// them from the incrementally maintained counters (safe under the storage
// contract — writers are exclusive).
func (t *Table) Stats() TableStats {
	if t.statsView != nil {
		return *t.statsView
	}
	out := TableStats{
		Rows:  t.rows,
		Zones: (t.rows + ZoneRows - 1) / ZoneRows,
		Attrs: make([]AttrStats, len(t.stats.attrs)),
	}
	for i := range t.stats.attrs {
		a := &t.stats.attrs[i]
		out.Attrs[i] = AttrStats{
			NonNull:  a.nonNull,
			Distinct: len(a.counts),
			Min:      a.min,
			Max:      a.max,
		}
	}
	return out
}
