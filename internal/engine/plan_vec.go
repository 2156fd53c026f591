package engine

import (
	"math"

	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file lowers plan predicates onto the columnar store: a self-filter
// conjunct of the shape <column> <op> <literal> (plus IS NULL, BETWEEN, IN,
// and LIKE) is matched and compiled once, by lowerVecFilter, into a selection
// kernel in the manner of MonetDB/X100. A kernel has two forms, each one loop
// typed by the filter's shape. The range form reads the payload of a run of
// consecutive positions within one storage zone — at most selRows of them in
// a scan — in order, and writes only the positions that pass; the selection
// form takes a selection, ascending positions within one zone, and keeps the
// ones that pass, returning the kept prefix. A step's first kernel runs in
// range form and each later one in selection form over the survivors of the
// one before (selectRange), so no kernel writes a position only to gather
// the payload back through it. Integer and date comparisons become a range
// test on []int64 (or on a zone's frame-of-reference byte deltas), float ones
// on []float64, text equality a range test on dictionary codes, text ordering
// a range test on sorted-dictionary ranks or a lookup in one verdict per
// dictionary entry, and so does LIKE. Kernels never error and never
// materialize a row, so a rejected row costs one iteration of a tight loop
// and no call at all. The kernel is the filter's only compiled form: its zone
// method (plan_zone.go) reads the per-zone verdict off the same accepted set
// the loops test. Only the longest specializable prefix of a step's
// self-filters vectorizes, and its kernels run in conjunct order: the
// remaining filters keep their original evaluation order, preserving error
// parity with the interpreter's short-circuit conjunct order.

// selectRange writes to buf the positions [lo, hi), all within one storage
// zone and at most len(buf) of them, that pass step si's kernels, and returns
// them: the first kernel reads the range densely, the others narrow what it
// kept.
func (pq *plannedQuery) selectRange(si int, buf []int32, lo, hi int) []int32 {
	ks := pq.steps[si].vec
	if len(ks) == 0 {
		return zoneSel(buf, lo, hi)
	}
	sel := ks[0].selectRange(buf, lo, hi)
	for i := 1; i < len(ks) && len(sel) > 0; i++ {
		sel = ks[i].keep(sel)
	}
	return sel
}

// kept reports whether row ti passes step si's kernels: the probe sites' form
// of selectRange, over the one position a key lookup found.
func (pq *plannedQuery) kept(si, ti int) bool {
	var one [1]int32
	return len(pq.selectRange(si, one[:], ti, ti+1)) == 1
}

// zoneRun returns how many positions at the head of ps (at least one) lie in
// the storage zone of ps[0].
func zoneRun(ps []int32) int {
	n, z := 1, ps[0]>>storage.ZoneShift
	for n < len(ps) && ps[n]>>storage.ZoneShift == z {
		n++
	}
	return n
}

// zoneSel fills sel with the positions [lo, hi) of one zone.
func zoneSel(sel []int32, lo, hi int) []int32 {
	sel = sel[:hi-lo]
	for i := range sel {
		sel[i] = int32(lo + i)
	}
	return sel
}

// stepCol resolves an expression to a column of st's own table; ok is false
// for anything but a plain, unambiguous reference into this step.
func (pq *plannedQuery) stepCol(st *planner.Step, e sqlparser.Expr) (storage.Col, bool) {
	ref, ok := e.(*sqlparser.ColumnRef)
	if !ok || ref.Column == "*" {
		return storage.Col{}, false
	}
	slot, ok := pq.slotOf(ref)
	if !ok {
		return storage.Col{}, false
	}
	pos := slot - st.Offset
	if pos < 0 || pos >= len(st.Input.Rel.Attributes) {
		return storage.Col{}, false
	}
	return st.Input.Tbl.Col(pos), true
}

func litOf(e sqlparser.Expr) (value.Value, bool) {
	l, ok := e.(*sqlparser.Literal)
	if !ok {
		return value.Value{}, false
	}
	return l.Value, true
}

// cmpTest maps a comparison operator onto a test over the three-way compare
// result; ok is false for non-comparison operators.
func cmpTest(op sqlparser.BinaryOp) (test func(int) bool, equality, ok bool) {
	switch op {
	case sqlparser.OpEq:
		return func(c int) bool { return c == 0 }, true, true
	case sqlparser.OpNe:
		return func(c int) bool { return c != 0 }, true, true
	case sqlparser.OpLt:
		return func(c int) bool { return c < 0 }, false, true
	case sqlparser.OpLe:
		return func(c int) bool { return c <= 0 }, false, true
	case sqlparser.OpGt:
		return func(c int) bool { return c > 0 }, false, true
	case sqlparser.OpGe:
		return func(c int) bool { return c >= 0 }, false, true
	default:
		return nil, false, false
	}
}

// lowerVecFilter matches one self-filter conjunct of step st against the
// vectorized dialect and compiles it into its selection kernel. ok=false means
// the conjunct is outside the dialect — another shape, an operand that is not
// a column of this step or a literal, or a kind combination whose evaluation
// raises an error the generic path must surface (an ordering across
// incomparable kinds, LIKE over non-text) — and compiles normally; a kernel it
// returns cannot raise an error on any row. fast gates the encoded paths
// (frame-of-reference deltas, sorted-dictionary ranks) together with the rest
// of the zone-map layer, so disabling zone maps reverts the scan to plain
// payload reads.
func (pq *plannedQuery) lowerVecFilter(st *planner.Step, e sqlparser.Expr, fast bool) (vecKernel, bool) {
	on := func(col storage.Col) vecKernel {
		return vecKernel{col: col, nulls: col.HasNulls(), n: st.Input.Tbl.Len()}
	}
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		_, equality, isCmp := cmpTest(x.Op)
		if !isCmp && x.Op != sqlparser.OpLike {
			return vecKernel{}, false
		}
		op := x.Op
		col, ok := pq.stepCol(st, x.Left)
		var lit value.Value
		if ok {
			lit, ok = litOf(x.Right)
		} else if isCmp { // pattern LIKE col stays generic
			if lit, ok = litOf(x.Left); ok {
				col, ok = pq.stepCol(st, x.Right)
				op = x.Op.Inverse()
			}
		}
		if !ok {
			return vecKernel{}, false
		}
		switch {
		case !isCmp && (col.Kind() != value.Text || lit.Kind() != value.Text):
			return vecKernel{}, false
		case isCmp && lit.IsNull():
			return vecKernel{shape: kNone}, true // comparison with NULL is never true
		case isCmp && !equality && !comparableKinds(col.Kind(), lit.Kind()):
			return vecKernel{}, false
		}
		k := on(col)
		if isCmp {
			k.cmp(op, lit, fast)
		} else {
			k.like(lit.Text(), fast)
		}
		return k, true

	case *sqlparser.IsNullExpr:
		col, ok := pq.stepCol(st, x.Inner)
		if !ok {
			return vecKernel{}, false
		}
		k := on(col)
		switch {
		case x.Negate:
			k.shape = kAll // the non-NULL rows
		case k.nulls:
			k.shape, k.nulls = kIsNull, false
		default:
			k.shape = kNone
		}
		return k, true

	case *sqlparser.BetweenExpr:
		col, ok := pq.stepCol(st, x.Subject)
		if !ok {
			return vecKernel{}, false
		}
		lo, ok := litOf(x.Lo)
		if !ok {
			return vecKernel{}, false
		}
		hi, ok := litOf(x.Hi)
		switch {
		case !ok:
			return vecKernel{}, false
		case lo.IsNull() || hi.IsNull():
			return vecKernel{shape: kNone}, true // NULL bound: the test is unknown for every row
		case !comparableKinds(col.Kind(), lo.Kind()) || !comparableKinds(col.Kind(), hi.Kind()):
			// Both bound comparisons must be error-free for every non-NULL subject.
			return vecKernel{}, false
		}
		k, kh := on(col), on(col)
		k.cmp(sqlparser.OpGe, lo, fast)
		kh.cmp(sqlparser.OpLe, hi, fast)
		k.meet(&kh)
		if x.Negate {
			k.neg, k.nan = true, !k.nan
		}
		return k, true

	case *sqlparser.InExpr:
		if x.Subquery != nil {
			return vecKernel{}, false
		}
		col, ok := pq.stepCol(st, x.Subject)
		if !ok {
			return vecKernel{}, false
		}
		lits := make([]value.Value, 0, len(x.List))
		sawNull := false
		for _, it := range x.List {
			lit, ok := litOf(it)
			if !ok {
				return vecKernel{}, false
			}
			if lit.IsNull() {
				sawNull = true
				continue
			}
			lits = append(lits, lit)
		}
		switch {
		case len(x.List) == 0:
			// No entries at all: false — and NOT IN true — for every row, NULL
			// subjects included, like the compiled InExpr's special case.
			if x.Negate {
				return vecKernel{shape: kAll}, true
			}
			return vecKernel{shape: kNone}, true
		case x.Negate && sawNull:
			// x NOT IN (..., NULL, ...): members are false, non-members unknown.
			return vecKernel{shape: kNone}, true
		}
		k := on(col)
		k.member(lits)
		k.neg = x.Negate
		return k, true
	}
	return vecKernel{}, false
}

// comparableKinds reports whether a column of kind ck orders against a
// literal of kind lk without error (value.Compare's rule).
func comparableKinds(ck, lk value.Kind) bool {
	if (ck == value.Int || ck == value.Float) && (lk == value.Int || lk == value.Float) {
		return true
	}
	return ck == lk && ck != value.Null
}

// ---------------------------------------------------------------------------
// Selection kernels
// ---------------------------------------------------------------------------

// kernelShape selects the loop a vecKernel runs.
type kernelShape uint8

const (
	kNone    kernelShape = iota // no row passes
	kAll                        // every row passes (every non-NULL one, with nulls set)
	kIsNull                     // the NULL rows pass
	kRange                      // the payload's integer image lies in r
	kFloat                      // the float payload lies in [flo, fhi]
	kVerdict                    // the text code's dictionary entry passes
	kSet                        // the payload is a member of fset or iset
)

// vecKernel is one vectorized filter compiled against its column. Every
// comparison reduces to the set of payload images it accepts, so the loops
// test membership and never call back: NULL, NaN and ±0 decide exactly as
// compareOp, likeMatch and value.Equal do on the rows. The same set, held
// against a zone's bounds, is the kernel's zone verdict.
type vecKernel struct {
	shape kernelShape
	col   storage.Col
	// nulls: the column holds NULLs, which the test rejects (a NULL compares
	// as unknown), so they are dropped before the payload loop.
	nulls bool
	// neg keeps the rows the payload test rejects: <>, NOT BETWEEN, NOT IN.
	neg bool
	// kRange: the accepted integer images — Int and Date payloads, Bool as
	// 0/1, Text codes (= and <>) or, when ranks is set, sorted-dictionary
	// ranks. fb and d8, when set, are the Int or Date column's
	// frame-of-reference encoding (value = fb[z] + d8[z][row&ZoneMask]),
	// read one zone base per call.
	r     intRange
	ranks []uint32
	fb    []int64
	d8    [][]uint8
	// kFloat: the accepted closed range of non-NaN payloads, and NaN's
	// verdict — cmpFloat calls NaN equal to everything.
	flo, fhi float64
	nan      bool
	// kVerdict: one verdict per dictionary entry.
	verdict []bool
	// kSet: the IN list's payload images — float64 for Int (through its
	// float64 image, as value.Equal compares) and Float, int64 for Date days
	// and Text codes.
	fset map[float64]struct{}
	iset map[int64]struct{}
	// str: a text kernel's accepted strings as an interval, which its zone
	// verdict compares with a zone's string bounds (codes are not ordered like
	// the strings, and a zone keeps the strings, not their ranks).
	str strSpan
	// blind: zone bounds cannot decide the test — a LIKE whose pattern has no
	// literal prefix to compare them with, or one byte-wise comparison cannot
	// be trusted on.
	blind bool
	// n is the table's row count, which sizes its last zone.
	n int
}

// cmp compiles col op lit for a literal of a kind the column compares with
// (lowerVecFilter admits orderings across incomparable kinds never, = and <>
// always: = is false and <> true for every non-NULL row).
func (k *vecKernel) cmp(op sqlparser.BinaryOp, lit value.Value, fast bool) {
	col := k.col
	if !comparableKinds(col.Kind(), lit.Kind()) {
		k.shape = kNone
		if op == sqlparser.OpNe {
			k.shape = kAll
		}
		return
	}
	k.shape = kRange
	switch col.Kind() {
	case value.Int:
		// value.Compare orders an Int against any numeric through float64
		// images; imageBounds turns that order into exact integer bounds.
		k.r, k.neg = imageBounds(lit.Float()).span(op)
		k.forInts(fast)
	case value.Date:
		k.r, k.neg = exactBounds(lit.DateDays()).span(op)
		k.forInts(fast)
	case value.Bool:
		k.r, k.neg = exactBounds(boolImage(lit.Bool())).span(op)
	case value.Float:
		k.shape = kFloat
		k.flo, k.fhi, k.nan, k.neg = floatSpan(op, lit.Float())
	default: // Text
		ls := lit.Text()
		k.str = strSpanOf(op, ls)
		switch {
		case op == sqlparser.OpEq || op == sqlparser.OpNe:
			code, present := col.DictCode(ls)
			k.r, k.neg = exactBounds(int64(code)).span(op)
			if !present {
				k.r = intRange{1, 0} // the string never occurs: no code equals it
			}
		case fast && col.SortedDict():
			// Sorted dictionary: the predicate is a rank-range test — no
			// per-entry verdict array, no string touched per row.
			lb := int64(col.LowerBoundRank(ls))
			ub := lb
			if _, present := col.DictCode(ls); present {
				ub++
			}
			k.r, k.neg = bounds{ge: lb, gt: ub, geOK: true, gtOK: true}.span(op)
			k.ranks = col.Ranks()
		default:
			// Ordering: one verdict per dictionary entry, then a code lookup
			// per row.
			test, _, _ := cmpTest(op)
			k.shape = kVerdict
			k.verdict = make([]bool, col.DictLen())
			for c := range k.verdict {
				k.verdict[c] = test(cmpString(col.DictString(uint32(c)), ls))
			}
		}
	}
}

// forInts switches an Int or Date range test onto the frame-of-reference
// deltas when the column keeps them: one byte streamed per row instead of
// eight payload bytes.
func (k *vecKernel) forInts(fast bool) {
	if fb, d8, ok := k.col.FORInts(); ok && fast {
		k.fb, k.d8 = fb, d8
	}
}

// meet narrows k to its conjunction with o, a kernel cmp compiled over the
// same column with the same shape (BETWEEN's two bounds).
func (k *vecKernel) meet(o *vecKernel) {
	switch k.shape {
	case kRange:
		k.r = k.r.meet(o.r)
	case kFloat:
		k.flo, k.fhi, k.nan = max(k.flo, o.flo), min(k.fhi, o.fhi), k.nan && o.nan
	case kVerdict:
		for c := range k.verdict {
			k.verdict[c] = k.verdict[c] && o.verdict[c]
		}
	}
	k.str = k.str.meet(o.str)
}

// like precomputes the LIKE verdict per dictionary entry. Every match sorts
// inside [prefix, successor) of the pattern's literal prefix, and a pure
// prefix pattern ('abc%') matches exactly those strings: with a sorted
// dictionary it becomes a rank-range test. A prefix that is empty, or that
// byte-wise order cannot be trusted on, leaves zone bounds blind to the test.
func (k *vecKernel) like(pat string, fast bool) {
	col := k.col
	prefix, prefixOnly := planner.LikePrefix(pat)
	succ, succOK := planner.PrefixSuccessor(prefix)
	safe := likePrefixSafe(prefix)
	k.str = strSpan{lo: prefix, hi: succ, hiOK: succOK, loose: !prefixOnly}
	k.blind = prefix == "" || !safe
	if fast && prefixOnly && safe && col.SortedDict() {
		lb := int64(col.LowerBoundRank(prefix))
		ub := int64(col.DictLen())
		if succOK {
			ub = int64(col.LowerBoundRank(succ))
		}
		k.shape, k.r, k.ranks = kRange, intRange{lb, ub - 1}, col.Ranks()
		return
	}
	k.shape = kVerdict
	k.verdict = make([]bool, col.DictLen())
	for c := range k.verdict {
		k.verdict[c] = likeMatch(col.DictString(uint32(c)), pat)
	}
}

// member builds the IN list's payload set for the column kind. List entries
// of foreign kinds can never match (value.Equal semantics) and are simply
// left out; a Bool list is the range of its images.
func (k *vecKernel) member(lits []value.Value) {
	col := k.col
	k.shape = kSet
	switch col.Kind() {
	case value.Int, value.Float:
		k.fset = make(map[float64]struct{}, len(lits))
		for _, l := range lits {
			if l.IsNumeric() {
				k.fset[l.Float()] = struct{}{}
			}
		}
	case value.Text:
		k.iset = make(map[int64]struct{}, len(lits))
		for _, l := range lits {
			if l.Kind() == value.Text {
				if code, present := col.DictCode(l.Text()); present {
					k.iset[int64(code)] = struct{}{}
				}
			}
		}
	case value.Date:
		k.iset = make(map[int64]struct{}, len(lits))
		for _, l := range lits {
			if l.Kind() == value.Date {
				k.iset[l.DateDays()] = struct{}{}
			}
		}
	default: // Bool
		k.shape, k.r = kRange, intRange{1, 0}
		for _, l := range lits {
			if l.Kind() == value.Bool {
				x := boolImage(l.Bool())
				k.r.lo, k.r.hi = min(k.r.lo, x), max(k.r.hi, x)
			}
		}
	}
}

// keep narrows sel, the ascending positions of one zone, to the rows that
// pass, compacting them into sel's prefix: the selection form.
func (k *vecKernel) keep(sel []int32) []int32 {
	switch {
	case k.shape == kNone:
		return sel[:0]
	case k.shape == kIsNull:
		return keepNulls(sel, k.col, true)
	case k.nulls:
		sel = keepNulls(sel, k.col, false)
	}
	if len(sel) == 0 {
		return sel
	}
	return k.test(sel)
}

// selectRange writes to buf the positions [lo, hi) of one zone that pass and
// returns them: the range form. The NULL pre-pass, when the column holds
// NULLs, reads the range and the payload test then narrows its survivors;
// otherwise the payload test reads the range itself.
func (k *vecKernel) selectRange(buf []int32, lo, hi int) []int32 {
	switch {
	case k.shape == kNone:
		return buf[:0]
	case k.shape == kIsNull:
		return rangeNulls(buf, k.col, lo, hi, true)
	case k.nulls:
		if sel := rangeNulls(buf, k.col, lo, hi, false); len(sel) > 0 {
			return k.test(sel)
		}
		return buf[:0]
	}
	col, z, base := k.col, lo>>storage.ZoneShift, int32(lo)
	at, end := lo&storage.ZoneMask, lo&storage.ZoneMask+hi-lo
	switch k.shape {
	case kRange:
		switch {
		case k.ranks != nil:
			return rangeRanks(buf, base, col.Codes(z)[at:end], k.ranks, k.r, k.neg)
		case k.d8 != nil:
			return rangeIn(buf, base, k.d8[z][at:end], k.r.deltas(k.fb[z]), k.neg)
		case col.Kind() == value.Text:
			return rangeIn(buf, base, col.Codes(z)[at:end], k.r, k.neg)
		case col.Kind() == value.Bool:
			return rangeBools(buf, base, col.Bools(z)[at:end], k.r, k.neg)
		}
		return rangeIn(buf, base, col.Ints(z)[at:end], k.r, k.neg)
	case kFloat:
		return rangeFloats(buf, base, col.Floats(z)[at:end], k.flo, k.fhi, k.nan, k.neg)
	case kVerdict:
		return rangeVerdicts(buf, base, col.Codes(z)[at:end], k.verdict, k.neg)
	case kSet:
		switch col.Kind() {
		case value.Int:
			return rangeSet(buf, base, col.Ints(z)[at:end], k.fset, k.neg)
		case value.Float:
			return rangeSet(buf, base, col.Floats(z)[at:end], k.fset, k.neg)
		case value.Text:
			return rangeSet(buf, base, col.Codes(z)[at:end], k.iset, k.neg)
		}
		return rangeSet(buf, base, col.Ints(z)[at:end], k.iset, k.neg)
	}
	return zoneSel(buf, lo, hi) // kAll
}

// test is the payload test of the selection form, over non-NULL positions.
// The kernels read the zone's payload chunk at each position's offset within
// the zone.
func (k *vecKernel) test(sel []int32) []int32 {
	col, z := k.col, int(sel[0])>>storage.ZoneShift
	switch k.shape {
	case kRange:
		switch {
		case k.ranks != nil:
			return keepRanks(sel, col.Codes(z), k.ranks, k.r, k.neg)
		case k.d8 != nil:
			return keepRange(sel, k.d8[z], k.r.deltas(k.fb[z]), k.neg)
		case col.Kind() == value.Text:
			return keepRange(sel, col.Codes(z), k.r, k.neg)
		case col.Kind() == value.Bool:
			return keepBools(sel, col.Bools(z), k.r, k.neg)
		}
		return keepRange(sel, col.Ints(z), k.r, k.neg)
	case kFloat:
		return keepFloats(sel, col.Floats(z), k.flo, k.fhi, k.nan, k.neg)
	case kVerdict:
		return keepVerdicts(sel, col.Codes(z), k.verdict, k.neg)
	case kSet:
		switch col.Kind() {
		case value.Int:
			return keepSet(sel, col.Ints(z), k.fset, k.neg)
		case value.Float:
			return keepSet(sel, col.Floats(z), k.fset, k.neg)
		case value.Text:
			return keepSet(sel, col.Codes(z), k.iset, k.neg)
		}
		return keepSet(sel, col.Ints(z), k.iset, k.neg)
	}
	return sel // kAll
}

// The loops below store every position and advance the output index only
// for a kept one, so the verdict never steers a branch. A keep loop's xs is
// the payload chunk of the zone sel lies in, indexed by a position's offset
// in the zone; a range loop's xs is the stretch of that chunk holding
// positions base, base+1, …, read in order.

// keepNulls keeps the positions whose NULL flag equals want.
func keepNulls(sel []int32, col storage.Col, want bool) []int32 {
	k := 0
	for _, ti := range sel {
		sel[k] = ti
		if col.Null(int(ti)) == want {
			k++
		}
	}
	return sel[:k]
}

// rangeNulls is keepNulls over the positions [lo, hi).
func rangeNulls(buf []int32, col storage.Col, lo, hi int, want bool) []int32 {
	buf = buf[:hi-lo]
	k := 0
	for ti := lo; ti < hi; ti++ {
		buf[k] = int32(ti)
		if col.Null(ti) == want {
			k++
		}
	}
	return buf[:k]
}

// keepRange keeps the positions whose payload lies in r (outside it, with
// neg). One unsigned compare tests lo <= x <= hi: x-lo wraps far past the
// span when x < lo.
func keepRange[T int64 | uint32 | uint8](sel []int32, xs []T, r intRange, neg bool) []int32 {
	if r.lo > r.hi {
		if neg {
			return sel
		}
		return sel[:0]
	}
	lo, span := uint64(r.lo), uint64(r.hi)-uint64(r.lo)
	k := 0
	for _, ti := range sel {
		sel[k] = ti
		if (uint64(xs[ti&storage.ZoneMask])-lo <= span) != neg {
			k++
		}
	}
	return sel[:k]
}

// rangeIn is keepRange's range form.
func rangeIn[T int64 | uint32 | uint8](buf []int32, base int32, xs []T, r intRange, neg bool) []int32 {
	if r.lo > r.hi {
		if neg {
			return zoneSel(buf, int(base), int(base)+len(xs))
		}
		return buf[:0]
	}
	lo, span := uint64(r.lo), uint64(r.hi)-uint64(r.lo)
	buf = buf[:len(xs)]
	k := 0
	for i, x := range xs {
		buf[k] = base + int32(i)
		if (uint64(x)-lo <= span) != neg {
			k++
		}
	}
	return buf[:k]
}

// keepRanks is keepRange over the sorted-dictionary rank of each text code.
func keepRanks(sel []int32, codes, ranks []uint32, r intRange, neg bool) []int32 {
	if r.lo > r.hi {
		if neg {
			return sel
		}
		return sel[:0]
	}
	lo, span := uint64(r.lo), uint64(r.hi)-uint64(r.lo)
	k := 0
	for _, ti := range sel {
		sel[k] = ti
		if (uint64(ranks[codes[ti&storage.ZoneMask]])-lo <= span) != neg {
			k++
		}
	}
	return sel[:k]
}

// rangeRanks is keepRanks' range form.
func rangeRanks(buf []int32, base int32, codes, ranks []uint32, r intRange, neg bool) []int32 {
	if r.lo > r.hi {
		if neg {
			return zoneSel(buf, int(base), int(base)+len(codes))
		}
		return buf[:0]
	}
	lo, span := uint64(r.lo), uint64(r.hi)-uint64(r.lo)
	buf = buf[:len(codes)]
	k := 0
	for i, c := range codes {
		buf[k] = base + int32(i)
		if (uint64(ranks[c])-lo <= span) != neg {
			k++
		}
	}
	return buf[:k]
}

// boolsPass is the Bool payload a range test over the images 0 and 1 keeps;
// every payload passes, or none does, when all is set.
func boolsPass(r intRange, neg bool) (t, all bool) {
	t, f := r.has(1) != neg, r.has(0) != neg
	return t, t == f
}

// keepBools is keepRange over Bool payloads, whose images are 0 and 1.
func keepBools(sel []int32, xs []bool, r intRange, neg bool) []int32 {
	t, all := boolsPass(r, neg)
	if all {
		if t {
			return sel
		}
		return sel[:0]
	}
	k := 0
	for _, ti := range sel {
		sel[k] = ti
		if xs[ti&storage.ZoneMask] == t {
			k++
		}
	}
	return sel[:k]
}

// rangeBools is keepBools' range form.
func rangeBools(buf []int32, base int32, xs []bool, r intRange, neg bool) []int32 {
	t, all := boolsPass(r, neg)
	if all {
		if t {
			return zoneSel(buf, int(base), int(base)+len(xs))
		}
		return buf[:0]
	}
	buf = buf[:len(xs)]
	k := 0
	for i, x := range xs {
		buf[k] = base + int32(i)
		if x == t {
			k++
		}
	}
	return buf[:k]
}

// floatPasses is the float test: x lies in [lo, hi] (outside it, with neg),
// and a NaN passes when nan is set.
func floatPasses(x, lo, hi float64, nan, neg bool) bool {
	in := (x >= lo && x <= hi) != neg
	if x != x {
		in = nan
	}
	return in
}

// keepFloats keeps the positions whose payload passes floatPasses.
func keepFloats(sel []int32, xs []float64, lo, hi float64, nan, neg bool) []int32 {
	k := 0
	for _, ti := range sel {
		in := floatPasses(xs[ti&storage.ZoneMask], lo, hi, nan, neg)
		sel[k] = ti
		if in {
			k++
		}
	}
	return sel[:k]
}

// rangeFloats is keepFloats' range form.
func rangeFloats(buf []int32, base int32, xs []float64, lo, hi float64, nan, neg bool) []int32 {
	buf = buf[:len(xs)]
	k := 0
	for i, x := range xs {
		buf[k] = base + int32(i)
		if floatPasses(x, lo, hi, nan, neg) {
			k++
		}
	}
	return buf[:k]
}

// keepVerdicts keeps the positions whose dictionary entry's verdict is true
// (false, with neg).
func keepVerdicts(sel []int32, codes []uint32, verdict []bool, neg bool) []int32 {
	k := 0
	for _, ti := range sel {
		sel[k] = ti
		if verdict[codes[ti&storage.ZoneMask]] != neg {
			k++
		}
	}
	return sel[:k]
}

// rangeVerdicts is keepVerdicts' range form.
func rangeVerdicts(buf []int32, base int32, codes []uint32, verdict []bool, neg bool) []int32 {
	buf = buf[:len(codes)]
	k := 0
	for i, c := range codes {
		buf[k] = base + int32(i)
		if verdict[c] != neg {
			k++
		}
	}
	return buf[:k]
}

// keepSet keeps the positions whose payload image is in set (not in it, with
// neg).
func keepSet[T int64 | float64 | uint32, K int64 | float64](sel []int32, xs []T, set map[K]struct{}, neg bool) []int32 {
	k := 0
	for _, ti := range sel {
		_, in := set[K(xs[ti&storage.ZoneMask])]
		sel[k] = ti
		if in != neg {
			k++
		}
	}
	return sel[:k]
}

// rangeSet is keepSet's range form.
func rangeSet[T int64 | float64 | uint32, K int64 | float64](buf []int32, base int32, xs []T, set map[K]struct{}, neg bool) []int32 {
	buf = buf[:len(xs)]
	k := 0
	for i, x := range xs {
		_, in := set[K(x)]
		buf[k] = base + int32(i)
		if in != neg {
			k++
		}
	}
	return buf[:k]
}

// ---------------------------------------------------------------------------
// Comparison images
// ---------------------------------------------------------------------------

// intRange is the closed interval [lo, hi] of integer images; lo > hi is
// empty.
type intRange struct{ lo, hi int64 }

func (r intRange) has(x int64) bool { return r.lo <= x && x <= r.hi }

func (r intRange) meet(o intRange) intRange { return intRange{max(r.lo, o.lo), min(r.hi, o.hi)} }

// deltas maps r onto a frame-of-reference zone with the given base: the byte
// deltas d with base+d in r.
func (r intRange) deltas(base int64) intRange {
	if r.lo > r.hi || r.hi < base {
		return intRange{1, 0}
	}
	d := intRange{0, int64(min(uint64(r.hi)-uint64(base), math.MaxUint8))}
	if r.lo > base {
		d.lo = int64(min(uint64(r.lo)-uint64(base), math.MaxUint8+1))
	}
	return d
}

// bounds place a literal in an ordered integer domain: ge is the least image
// comparing at or above it and gt the least comparing above it, each absent
// (ok false) when no image does.
type bounds struct {
	ge, gt     int64
	geOK, gtOK bool
}

// exactBounds places a literal that is itself an image.
func exactBounds(l int64) bounds {
	return bounds{ge: l, gt: l + 1, geOK: true, gtOK: l < math.MaxInt64}
}

// imageBounds places a numeric literal among Int payloads compared through
// their float64 images, cmpFloat(float64(x), lf). The image is monotone in x,
// so both thresholds are found by bisection, and several ints beyond ±2^53
// may share the literal's image; a NaN literal compares equal to every image.
func imageBounds(lf float64) bounds {
	var b bounds
	b.ge, b.geOK = firstInt(func(x int64) bool { return cmpFloat(float64(x), lf) >= 0 })
	b.gt, b.gtOK = firstInt(func(x int64) bool { return cmpFloat(float64(x), lf) > 0 })
	return b
}

// firstInt returns the least int64 for which the monotone (false, then true)
// predicate p holds; ok is false when it holds for none.
func firstInt(p func(int64) bool) (x int64, ok bool) {
	if !p(math.MaxInt64) {
		return 0, false
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	for lo < hi {
		mid := lo + int64((uint64(hi)-uint64(lo))/2)
		if p(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// span is the set of images op accepts: an interval, or its complement when
// neg (<>).
func (b bounds) span(op sqlparser.BinaryOp) (r intRange, neg bool) {
	below := func(t int64, ok bool) intRange { // the images under t
		switch {
		case !ok:
			return intRange{math.MinInt64, math.MaxInt64}
		case t == math.MinInt64:
			return intRange{1, 0}
		}
		return intRange{math.MinInt64, t - 1}
	}
	atLeast := func(t int64, ok bool) intRange { // the images from t up
		if !ok {
			return intRange{1, 0}
		}
		return intRange{t, math.MaxInt64}
	}
	switch op {
	case sqlparser.OpLt:
		return below(b.ge, b.geOK), false
	case sqlparser.OpLe:
		return below(b.gt, b.gtOK), false
	case sqlparser.OpGt:
		return atLeast(b.gt, b.gtOK), false
	case sqlparser.OpGe:
		return atLeast(b.ge, b.geOK), false
	}
	eq := atLeast(b.ge, b.geOK).meet(below(b.gt, b.gtOK))
	return eq, op == sqlparser.OpNe
}

// strSpan is the half-open string interval [lo, hi) — unbounded above
// without hiOK — holding every string a text kernel accepts, and only those
// unless loose. The empty string is the least string, so lo = "" leaves it
// unbounded below.
type strSpan struct {
	lo, hi      string
	hiOK, loose bool
}

// strSpanOf is the interval of strings x with cmpString(x, s) op 0; = and <>
// both give [s, s], which the kernel's neg turns into its complement for <>.
func strSpanOf(op sqlparser.BinaryOp, s string) strSpan {
	switch op {
	case sqlparser.OpLt:
		return strSpan{hi: s, hiOK: true}
	case sqlparser.OpGe:
		return strSpan{lo: s}
	}
	next := s + "\x00" // the least string above s
	switch op {
	case sqlparser.OpLe:
		return strSpan{hi: next, hiOK: true}
	case sqlparser.OpGt:
		return strSpan{lo: next}
	}
	return strSpan{lo: s, hi: next, hiOK: true}
}

func (s strSpan) meet(o strSpan) strSpan {
	m := strSpan{lo: max(s.lo, o.lo), hi: s.hi, hiOK: s.hiOK, loose: s.loose || o.loose}
	if o.hiOK && (!s.hiOK || o.hi < s.hi) {
		m.hi, m.hiOK = o.hi, true
	}
	return m
}

func boolImage(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// floatSpan is cmpFloat(x, lit) op 0 over Float payloads: the closed range
// [lo, hi] of non-NaN x it accepts (its complement when neg), and NaN's
// verdict — cmpFloat calls NaN equal to everything, and -0 equal to +0, as
// the IEEE comparisons below do.
func floatSpan(op sqlparser.BinaryOp, lit float64) (lo, hi float64, nan, neg bool) {
	test, _, _ := cmpTest(op)
	inf := math.Inf(1)
	nan = test(0)
	switch {
	case math.IsNaN(lit):
		if nan { // every x compares equal to a NaN literal
			return -inf, inf, true, false
		}
		return inf, -inf, false, false
	case op == sqlparser.OpLt:
		if lit == -inf {
			return inf, -inf, nan, false
		}
		return -inf, math.Nextafter(lit, -inf), nan, false
	case op == sqlparser.OpLe:
		return -inf, lit, nan, false
	case op == sqlparser.OpGt:
		if lit == inf {
			return inf, -inf, nan, false
		}
		return math.Nextafter(lit, inf), inf, nan, false
	case op == sqlparser.OpGe:
		return lit, inf, nan, false
	}
	return lit, lit, nan, op == sqlparser.OpNe
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

func cmpString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
