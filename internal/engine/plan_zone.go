package engine

import (
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/planner"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file consumes the storage layer's zone maps: per-morsel min/max/null
// summaries (storage.ZoneRows positions each) that the scan consults before
// touching column payloads. The verdict on a zone is read off the selection
// kernels themselves: each kernel compares the set of payload images it
// accepts with the zone's typed bounds and NULL count, so the verdict is about
// exactly the predicate the rows are tested with. All-false lets the scan skip
// the morsel outright, all-true lets it take the whole morsel without testing
// a row. A verdict describes the predicate's result over EVERY row of the
// zone, NULLs included (NULL rejects a comparison, satisfies IS NULL), and it
// is deliberately conservative: anything the bounds cannot decide — a zone
// holding NaN, a LIKE with no usable literal prefix — is "mixed" and the
// zone's rows go through the kernels, so zone-pruned execution is
// byte-identical to the plain scan. The plan's zone-skip shape step is added
// here, by compilePlan, when some kernel the scan applies can be decided from
// bounds — so EXPLAIN narrates a skip exactly when the scan consults them.

// zoneVerdict is a kernel's answer for one zone. The verdicts are ordered
// from no row to every row, so a conjunction's verdict is the least of its
// conjuncts', a disjunction's the greatest, and a negation's the mirror.
type zoneVerdict int8

const (
	zoneAllFalse zoneVerdict = iota // no row of the zone passes the predicate
	zoneMixed                       // bounds cannot decide; test each row
	zoneAllTrue                     // every row of the zone passes
)

// not is the verdict of the negated test when neg is set.
func (v zoneVerdict) not(neg bool) zoneVerdict {
	if neg {
		return zoneAllTrue - v
	}
	return v
}

func verdictOf(pass bool) zoneVerdict {
	if pass {
		return zoneAllTrue
	}
	return zoneAllFalse
}

// zoneSkip is the zone side of a base scan: the plan's zone-skip shape step,
// which reports the zones skipped once the scan is done.
type zoneSkip struct {
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

// zoneVerdict is the conjunction of step 0's kernel verdicts on zone z: any
// all-false skips the zone, all-true needs every kernel to agree, and a kernel
// bounds cannot decide answers mixed.
func (pq *plannedQuery) zoneVerdict(z int) zoneVerdict {
	ks := pq.steps[0].vec
	v := zoneAllTrue
	for i := range ks {
		if v = min(v, ks[i].zone(z)); v == zoneAllFalse {
			break
		}
	}
	return v
}

// note records one probed zone's outcome.
func (zs *zoneSkip) note(v zoneVerdict) {
	zoneStatProbed.Add(1)
	if v == zoneAllFalse {
		zs.skipped.Add(1)
		zoneStatSkipped.Add(1)
	}
}

// scanBase is the base-table walk every scan shares. It covers rows [lo, hi)
// one storage zone at a time, with or without zone verdicts, skips each zone
// the kernels rule out, and hands rows the positions of the rest that pass,
// one non-empty selection vector (of at most selRows positions) at a time in
// the buffer *sel (see growSel): all of them where the kernels proved the
// zone passes all of them, and otherwise what step 0's kernels keep, the
// first of them reading the vector's range of the zone in order
// (selectRange).
//
// The walk accounts each zone whose first row lies in [lo, hi), so parallel
// workers never count a zone twice however their ranges split it.
func (pq *plannedQuery) scanBase(sel *[]int32, lo, hi int, rows func(kept []int32)) {
	for s := lo; s < hi; {
		z := s >> storage.ZoneShift
		e := min((z+1)<<storage.ZoneShift, hi)
		v := zoneMixed
		if zs := pq.zs; zs != nil {
			v = pq.zoneVerdict(z)
			if s == z<<storage.ZoneShift {
				zs.note(v)
			}
		}
		for c := s; c < e && v != zoneAllFalse; c += selRows {
			kept, end := growSel(sel), min(c+selRows, e)
			if v == zoneMixed {
				kept = pq.selectRange(0, kept, c, end)
			} else {
				kept = zoneSel(kept, c, end)
			}
			if len(kept) > 0 {
				rows(kept)
			}
		}
		s = e
	}
}

// zoneLenAt returns the number of rows zone z covers in a table of n rows.
func zoneLenAt(z, n int) int {
	return min(n-z<<storage.ZoneShift, storage.ZoneRows)
}

// useZoneSkip arms the base scan's zone verdicts, and says so first in the
// plan's shape, when consulting them can pay — the planner's cost gate
// passes, zone maps are enabled (fast) and every column's zones are in sync
// with the table — and some kernel the scan applies can be decided from
// bounds: only predicates the scan applies may justify skipping rows.
func (pq *plannedQuery) useZoneSkip(fast bool) {
	st := pq.plan.Steps[0]
	step := planner.ZoneSkipStep(st)
	if step == nil || !fast || !slices.ContainsFunc(pq.steps[0].vec, func(k vecKernel) bool { return !k.blind }) {
		return
	}
	n := st.Input.Tbl.Len()
	for pos := range st.Input.Rel.Attributes {
		if !st.Input.Tbl.Col(pos).ZonesSynced(n) {
			return
		}
	}
	pq.zs = &zoneSkip{step: step}
	pq.plan.Shape = slices.Insert(pq.plan.Shape, 0, step)
}

// finishZoneSkip records on the shape step how many morsels the scan skipped.
func (pq *plannedQuery) finishZoneSkip() {
	if pq.zs != nil {
		pq.zs.step.ActualRows = int(pq.zs.skipped.Load())
	}
}

// ---------------------------------------------------------------------------
// Kernel verdicts
// ---------------------------------------------------------------------------

// zone is the kernel's verdict on zone z, read off the set of payload images
// it accepts: that set against the zone's typed bounds decides the zone's
// non-NULL rows, and its NULL count folds in the rest — an all-NULL zone
// fails every value test, and all-true needs a NULL-free zone.
func (k *vecKernel) zone(z int) zoneVerdict {
	switch {
	case k.shape == kNone:
		return zoneAllFalse
	case k.shape == kAll && !k.nulls:
		return zoneAllTrue
	case k.blind:
		return zoneMixed
	}
	nulls := k.col.ZoneNulls(z)
	allNull := nulls == zoneLenAt(z, k.n)
	switch {
	case k.shape == kIsNull && allNull:
		return zoneAllTrue
	case k.shape == kIsNull:
		if nulls == 0 {
			return zoneAllFalse
		}
		return zoneMixed
	case allNull:
		return zoneAllFalse
	}
	v := k.values(z)
	if v == zoneAllTrue && nulls > 0 {
		return zoneMixed
	}
	return v
}

// values is the kernel's verdict on the non-NULL rows of zone z, which holds
// at least one.
func (k *vecKernel) values(z int) zoneVerdict {
	col := k.col
	switch k.shape {
	case kAll:
		return zoneAllTrue
	case kSet:
		return k.members(z).not(k.neg)
	case kFloat:
		// A zone holding NaN is decided only by a test that treats every
		// float and NaN alike.
		lo, hi, nan := floatBounds(col, z)
		v := within(lo, hi, k.flo, k.fhi).not(k.neg)
		if nan && v != verdictOf(k.nan) {
			return zoneMixed
		}
		return v
	}
	if col.Kind() == value.Text {
		if k.shape == kRange && k.r.lo > k.r.hi {
			return zoneAllFalse.not(k.neg) // no code or rank passes
		}
		lo, hi, _ := col.ZoneTextBounds(z)
		return k.str.zone(lo, hi).not(k.neg)
	}
	lo, hi, _ := col.ZoneIntBounds(z)
	return within(lo, hi, k.r.lo, k.r.hi).not(k.neg)
}

// floatBounds is zone z's bounds as float64 images — an Int column's through
// the images it compares by — widened to every float when the zone holds
// NaN, which lies outside them.
func floatBounds(col storage.Col, z int) (lo, hi float64, nan bool) {
	if col.Kind() == value.Int {
		l, h, _ := col.ZoneIntBounds(z)
		return float64(l), float64(h), false
	}
	lo, hi, _ = col.ZoneFloatBounds(z)
	if nan = col.ZoneHasNaN(z); nan {
		lo, hi = math.Inf(-1), math.Inf(1)
	}
	return lo, hi, nan
}

// members is the IN list's verdict on zone z's values: every one of them is
// a member when some entry is the zone's only value, and none is when every
// entry lies outside the bounds. NaN is never a member.
func (k *vecKernel) members(z int) zoneVerdict {
	col := k.col
	v := zoneAllFalse
	switch col.Kind() {
	case value.Text:
		lo, hi, _ := col.ZoneTextBounds(z)
		for c := range k.iset {
			s := col.DictString(uint32(c))
			v = max(v, within(lo, hi, s, s))
		}
	case value.Date:
		lo, hi, _ := col.ZoneIntBounds(z)
		for x := range k.iset {
			v = max(v, within(lo, hi, x, x))
		}
	default: // Int and Float
		lo, hi, _ := floatBounds(col, z)
		for x := range k.fset {
			if x == x { // a NaN entry matches nothing
				v = max(v, within(lo, hi, x, x))
			}
		}
	}
	return v
}

// within places a zone's closed bounds [lo, hi] against the closed interval
// [a, b] a test accepts: all-true inside it, all-false clear of it.
func within[T int64 | float64 | string](lo, hi, a, b T) zoneVerdict {
	switch {
	case a > b || hi < a || lo > b:
		return zoneAllFalse
	case a <= lo && hi <= b:
		return zoneAllTrue
	}
	return zoneMixed
}

// zone places a zone's string bounds [lo, hi] against the interval: all-false
// clear of it, all-true inside it when it holds only accepted strings.
func (s *strSpan) zone(lo, hi string) zoneVerdict {
	switch {
	case hi < s.lo || s.hiOK && lo >= s.hi:
		return zoneAllFalse
	case !s.loose && lo >= s.lo && (!s.hiOK || hi < s.hi):
		return zoneAllTrue
	}
	return zoneMixed
}

// likePrefixSafe reports whether byte-wise prefix pruning agrees with
// likeMatch's rune-wise comparison. Invalid UTF-8 and U+FFFD both decode to
// the replacement rune, so distinct byte sequences could compare equal
// rune-by-rune; such prefixes stay on the per-row path.
func likePrefixSafe(prefix string) bool {
	return utf8.ValidString(prefix) && !strings.ContainsRune(prefix, utf8.RuneError)
}
