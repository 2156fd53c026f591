package engine

import (
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file consumes the storage layer's zone maps: per-morsel min/max/null
// summaries (storage.ZoneRows positions each) that the scan probes before
// touching column payloads. A probe is a vecFilter's per-zone verdict —
// all-false lets the scan skip the morsel outright, all-true lets it take the
// whole morsel without testing a row. The verdicts must describe the
// predicate's result over EVERY row of the zone, NULLs included (NULL rejects
// a comparison, satisfies IS NULL), and they are deliberately conservative:
// anything the bounds cannot decide is "mixed" and the zone's rows go through
// the kernels, so zone-pruned execution is byte-identical to the plain scan. The
// plan's zone-skip shape step is added here, by compilePlan, when it built a
// probe — so EXPLAIN narrates a skip exactly when the scan consults one.

// zoneVerdict is a probe's answer for one zone.
type zoneVerdict int8

const (
	zoneMixed    zoneVerdict = iota // bounds cannot decide; test each row
	zoneAllFalse                    // no row of the zone passes the predicate
	zoneAllTrue                     // every row of the zone passes
)

// rangeVerdict is predicate truth over a zone's non-NULL values only; the
// NULL rows are folded in afterwards by wrapZoneProbe.
type rangeVerdict int8

const (
	rMixed rangeVerdict = iota
	rNone               // no bounded value satisfies
	rAll                // every bounded value satisfies
)

// zoneProbe answers one filter conjunct for zone z.
type zoneProbe func(z int) zoneVerdict

// zoneProbeSet is the compiled zone side of a base scan: one probe per
// vectorized filter conjunct whose verdict zone bounds can give.
type zoneProbeSet struct {
	probes []zoneProbe
	// full reports that every vectorized predicate has a probe, so an
	// all-true combined verdict proves the whole vectorized prefix passes.
	full bool
	// n is the table's row count; step the plan's zone-skip shape step, which
	// reports the zones skipped once the scan is done.
	n       int
	step    *planner.ShapeStep
	skipped atomic.Int64
}

// Cumulative process-wide counters, exposed for benchmarks to assert that
// zone skipping actually engaged.
var zoneStatProbed, zoneStatSkipped atomic.Int64

// ZoneSkipStats returns the cumulative number of zones probed and skipped by
// zone-pruned scans since the last reset.
func ZoneSkipStats() (probed, skipped int64) {
	return zoneStatProbed.Load(), zoneStatSkipped.Load()
}

// ResetZoneSkipStats zeroes the cumulative zone-skip counters.
func ResetZoneSkipStats() {
	zoneStatProbed.Store(0)
	zoneStatSkipped.Store(0)
}

// verdict combines the probes for zone z: any all-false skips the zone;
// all-true requires every probe to agree and the set to cover every
// vectorized predicate.
func (zp *zoneProbeSet) verdict(z int) zoneVerdict {
	v := zoneMixed
	if zp.full {
		v = zoneAllTrue
	}
	for _, p := range zp.probes {
		switch p(z) {
		case zoneAllFalse:
			return zoneAllFalse
		case zoneMixed:
			v = zoneMixed
		}
	}
	return v
}

// note records one probed zone's outcome.
func (zp *zoneProbeSet) note(v zoneVerdict) {
	zoneStatProbed.Add(1)
	if v == zoneAllFalse {
		zp.skipped.Add(1)
		zoneStatSkipped.Add(1)
	}
}

// scanBase is the base-table walk every scan shares. It covers rows [lo, hi)
// one storage zone at a time, with or without probes, skips each zone the
// probes rule out, and hands rows the positions of the rest that pass, one
// selection vector (selRows positions) at a time in the buffer *sel (see
// growSel): all of them where the probes proved the whole vectorized filter
// prefix for the zone, and otherwise what step 0's kernels keep. rows returns
// false to stop the walk, and scanBase reports whether it ran to the end.
//
// With note set the walk accounts each zone whose first row lies in [lo, hi):
// exactly one pass over the table sets it, and parallel workers never count a
// zone twice however their ranges split it.
func (pq *plannedQuery) scanBase(sel *[]int32, lo, hi int, note bool, rows func(kept []int32) bool) bool {
	for s := lo; s < hi; {
		z := s >> storage.ZoneShift
		e := min((z+1)<<storage.ZoneShift, hi)
		v := zoneMixed
		if zp := pq.zp; zp != nil {
			v = zp.verdict(z)
			if note && s == z<<storage.ZoneShift {
				zp.note(v)
			}
		}
		for c := s; c < e && v != zoneAllFalse; c += selRows {
			kept := zoneSel(growSel(sel), c, min(c+selRows, e))
			if v == zoneMixed {
				kept = pq.keep(0, kept)
			}
			if !rows(kept) {
				return false
			}
		}
		s = e
	}
	return true
}

// zoneLenAt returns the number of rows zone z covers in a table of n rows.
func zoneLenAt(z, n int) int {
	lo := z << storage.ZoneShift
	hi := lo + storage.ZoneRows
	if hi > n {
		hi = n
	}
	return hi - lo
}

// newZoneProbeSet returns an empty probe set for the plan's base scan when
// probing it can pay — the planner's cost gate passes, zone maps are enabled
// and every column's zones are in sync with the table — and nil otherwise.
// compilePlan fills it from the step's vectorized filters.
func (pq *plannedQuery) newZoneProbeSet() *zoneProbeSet {
	st := pq.plan.Steps[0]
	step := planner.ZoneSkipStep(st)
	if step == nil || pq.ex.st.noZoneMaps.Load() {
		return nil
	}
	n := st.Input.Tbl.Len()
	for pos := range st.Input.Rel.Attributes {
		if !st.Input.Tbl.Col(pos).ZonesSynced(n) {
			return nil
		}
	}
	return &zoneProbeSet{n: n, step: step}
}

// useZoneProbes arms the scan with the probes compilePlan collected, if any,
// and says so first in the plan's shape.
func (pq *plannedQuery) useZoneProbes(zp *zoneProbeSet) {
	if zp == nil || len(zp.probes) == 0 {
		return
	}
	zp.full = len(zp.probes) == len(pq.steps[0].vec)
	pq.zp = zp
	pq.plan.Shape = slices.Insert(pq.plan.Shape, 0, zp.step)
}

// finishZoneSkip records on the shape step how many morsels the scan skipped.
func (pq *plannedQuery) finishZoneSkip() {
	if pq.zp != nil {
		pq.zp.step.ActualRows = int(pq.zp.skipped.Load())
	}
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

// probe builds the filter's zone verdict for a table of n rows — the same
// predicate its kernel tests on each row, answered from a zone's bounds and NULL
// count. ok=false means bounds say nothing about it: a LIKE whose pattern has
// no literal prefix to compare them with, or one byte-wise comparison cannot
// be trusted on.
func (f *vecFilter) probe(n int) (zoneProbe, bool) {
	col := f.col
	switch f.kind {
	case vfCompare:
		if f.sawNull {
			return zoneConst(zoneAllFalse), true
		}
		return cmpProbe(col, f.op, f.lit, n), true

	case vfLike:
		// Any match sorts inside [prefix, successor), so zone string bounds
		// outside that range are all-false; a pure prefix pattern inside it
		// (NULL-free) is all-true.
		prefix, prefixOnly := planner.LikePrefix(f.lit.Text())
		if prefix == "" || !likePrefixSafe(prefix) {
			return nil, false
		}
		succ, succOK := planner.PrefixSuccessor(prefix)
		return wrapZoneProbe(col, n, func(z int) rangeVerdict {
			lo, hi, ok := col.ZoneTextBounds(z)
			if !ok {
				return rMixed
			}
			if hi < prefix || (succOK && lo >= succ) {
				return rNone
			}
			if prefixOnly && lo >= prefix && (!succOK || hi < succ) {
				return rAll
			}
			return rMixed
		}), true

	case vfNull:
		return zoneNullProbe(col, !f.negate, n), true

	case vfBetween:
		if f.sawNull {
			return zoneConst(zoneAllFalse), true
		}
		// The two bound comparisons composed; NULL subjects reject either way.
		ge := zoneCmpRange(col, sqlparser.OpGe, f.lit)
		le := zoneCmpRange(col, sqlparser.OpLe, f.hi)
		rv := func(z int) rangeVerdict {
			a, b := ge(z), le(z)
			switch {
			case a == rNone || b == rNone:
				return rNone
			case a == rAll && b == rAll:
				return rAll
			}
			return rMixed
		}
		if f.negate {
			rv = rangeNot(rv)
		}
		return wrapZoneProbe(col, n, rv), true

	default: // vfIn
		if f.emptyIn() {
			if f.negate {
				return zoneConst(zoneAllTrue), true
			}
			return zoneConst(zoneAllFalse), true
		}
		if f.negate && f.sawNull {
			// x NOT IN (..., NULL, ...): members are false, non-members unknown.
			return zoneConst(zoneAllFalse), true
		}
		rv := zoneMembershipRange(col, f.list)
		if f.negate {
			rv = rangeNot(rv)
		}
		return wrapZoneProbe(col, n, rv), true
	}
}

func zoneConst(v zoneVerdict) zoneProbe { return func(int) zoneVerdict { return v } }

// wrapZoneProbe folds NULL rows into a value-level verdict: an all-NULL zone
// rejects any value predicate wholesale, and all-true additionally requires
// the zone to be NULL-free (NULL rows evaluate false).
func wrapZoneProbe(col storage.Col, n int, rv func(z int) rangeVerdict) zoneProbe {
	return func(z int) zoneVerdict {
		nulls := col.ZoneNulls(z)
		if nulls == zoneLenAt(z, n) {
			return zoneAllFalse
		}
		switch rv(z) {
		case rNone:
			return zoneAllFalse
		case rAll:
			if nulls == 0 {
				return zoneAllTrue
			}
		}
		return zoneMixed
	}
}

func rangeAll(int) rangeVerdict { return rAll }

// rangeNot flips a value-level verdict (NOT BETWEEN, NOT IN).
func rangeNot(rv func(z int) rangeVerdict) func(z int) rangeVerdict {
	return func(z int) rangeVerdict {
		switch rv(z) {
		case rAll:
			return rNone
		case rNone:
			return rAll
		}
		return rMixed
	}
}

// cmpRangeVerdict decides a comparison against a literal from the three-way
// compares of the zone's min and max against it. Ordering predicates select a
// half-line, so both endpoints inside means the whole range is, and both
// outside means none of it is; equality selects a point.
func cmpRangeVerdict(op sqlparser.BinaryOp, cmpLo, cmpHi int) rangeVerdict {
	switch op {
	case sqlparser.OpEq:
		if cmpLo > 0 || cmpHi < 0 {
			return rNone
		}
		if cmpLo == 0 && cmpHi == 0 {
			return rAll
		}
	case sqlparser.OpNe:
		if cmpLo > 0 || cmpHi < 0 {
			return rAll
		}
		if cmpLo == 0 && cmpHi == 0 {
			return rNone
		}
	default:
		test, _, _ := cmpTest(op)
		tLo, tHi := test(cmpLo), test(cmpHi)
		switch {
		case tLo && tHi:
			return rAll
		case !tLo && !tHi:
			return rNone
		}
	}
	return rMixed
}

// zoneCmpRange builds the value-level verdict of col-op-lit over zone bounds,
// for a literal of a kind the column orders against.
func zoneCmpRange(col storage.Col, op sqlparser.BinaryOp, lit value.Value) func(z int) rangeVerdict {
	test, _, _ := cmpTest(op)
	switch col.Kind() {
	case value.Int:
		lf := lit.Float()
		if math.IsNaN(lf) {
			// cmpFloat(x, NaN) is 0 for every x: the predicate is constant.
			return constRange(test(0))
		}
		return func(z int) rangeVerdict {
			lo, hi, ok := col.ZoneIntBounds(z)
			if !ok {
				return rMixed
			}
			return cmpRangeVerdict(op, cmpFloat(float64(lo), lf), cmpFloat(float64(hi), lf))
		}
	case value.Float:
		lf := lit.Float()
		if math.IsNaN(lf) {
			return constRange(test(0))
		}
		return func(z int) rangeVerdict {
			if col.ZoneHasNaN(z) {
				// NaN compares as equal under cmpFloat and sits outside the
				// bounds; the zone can never be decided wholesale.
				return rMixed
			}
			lo, hi, ok := col.ZoneFloatBounds(z)
			if !ok {
				return rMixed
			}
			return cmpRangeVerdict(op, cmpFloat(lo, lf), cmpFloat(hi, lf))
		}
	case value.Date:
		ld := lit.DateDays()
		return func(z int) rangeVerdict {
			lo, hi, ok := col.ZoneIntBounds(z)
			if !ok {
				return rMixed
			}
			return cmpRangeVerdict(op, cmpInt(lo, ld), cmpInt(hi, ld))
		}
	case value.Bool:
		var lb int64
		if lit.Bool() {
			lb = 1
		}
		return func(z int) rangeVerdict {
			lo, hi, ok := col.ZoneIntBounds(z)
			if !ok {
				return rMixed
			}
			return cmpRangeVerdict(op, cmpInt(lo, lb), cmpInt(hi, lb))
		}
	default: // Text
		ls := lit.Text()
		return func(z int) rangeVerdict {
			lo, hi, ok := col.ZoneTextBounds(z)
			if !ok {
				return rMixed
			}
			return cmpRangeVerdict(op, cmpString(lo, ls), cmpString(hi, ls))
		}
	}
}

func constRange(pass bool) func(int) rangeVerdict {
	if pass {
		return rangeAll
	}
	return func(int) rangeVerdict { return rNone }
}

// cmpProbe is the comparison kernel's verdict: a mismatched-kind equality and
// a string the dictionary never saw are constant, everything else decides
// from bounds.
func cmpProbe(col storage.Col, op sqlparser.BinaryOp, lit value.Value, n int) zoneProbe {
	if !comparableKinds(col.Kind(), lit.Kind()) {
		if op == sqlparser.OpEq {
			return zoneConst(zoneAllFalse)
		}
		return wrapZoneProbe(col, n, rangeAll) // <> across kinds: true when non-NULL
	}
	if col.Kind() == value.Text {
		if _, present := col.DictCode(lit.Text()); !present {
			switch op {
			case sqlparser.OpEq:
				return zoneConst(zoneAllFalse)
			case sqlparser.OpNe:
				return wrapZoneProbe(col, n, rangeAll)
			}
		}
	}
	return wrapZoneProbe(col, n, zoneCmpRange(col, op, lit))
}

// zoneNullProbe answers IS [NOT] NULL straight from the zone's NULL count.
func zoneNullProbe(col storage.Col, want bool, n int) zoneProbe {
	return func(z int) zoneVerdict {
		nulls := col.ZoneNulls(z)
		allNull := nulls == zoneLenAt(z, n)
		if want {
			if allNull {
				return zoneAllTrue
			}
			if nulls == 0 {
				return zoneAllFalse
			}
		} else {
			if nulls == 0 {
				return zoneAllTrue
			}
			if allNull {
				return zoneAllFalse
			}
		}
		return zoneMixed
	}
}

// zoneMembershipRange folds per-literal equality verdicts: one literal
// covering the whole range makes every value a member; all literals missing
// the range make none of them members. Literals of foreign kinds (and float
// NaN, which never matches a hash probe) contribute nothing, as in the IN
// kernel's payload set.
func zoneMembershipRange(col storage.Col, lits []value.Value) func(z int) rangeVerdict {
	var eqs []func(z int) rangeVerdict
	match := func(l value.Value) bool {
		switch col.Kind() {
		case value.Int, value.Float:
			return l.IsNumeric() && !math.IsNaN(l.Float())
		default:
			return l.Kind() == col.Kind()
		}
	}
	for _, l := range lits {
		if !match(l) {
			continue
		}
		if col.Kind() == value.Text {
			if _, present := col.DictCode(l.Text()); !present {
				continue // never occurs in the column
			}
		}
		eqs = append(eqs, zoneCmpRange(col, sqlparser.OpEq, l))
	}
	hasNaN := func(z int) bool { return col.Kind() == value.Float && col.ZoneHasNaN(z) }
	return func(z int) rangeVerdict {
		v := rNone
		for _, eq := range eqs {
			switch eq(z) {
			case rAll:
				// Every bounded value equals this literal; NaN values (outside
				// the bounds) never match a membership set, so they demote the
				// verdict.
				if hasNaN(z) {
					return rMixed
				}
				return rAll
			case rMixed:
				v = rMixed
			}
		}
		return v // rNone holds even with NaN present: NaN is never a member
	}
}

// likePrefixSafe reports whether byte-wise prefix pruning agrees with
// likeMatch's rune-wise comparison. Invalid UTF-8 and U+FFFD both decode to
// the replacement rune, so distinct byte sequences could compare equal
// rune-by-rune; such prefixes stay on the per-row path.
func likePrefixSafe(prefix string) bool {
	return utf8.ValidString(prefix) && !strings.ContainsRune(prefix, utf8.RuneError)
}
