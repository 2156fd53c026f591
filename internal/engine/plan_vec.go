package engine

import (
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file lowers plan predicates onto the columnar store: a self-filter
// conjunct of the shape <column> <op> <literal> (plus IS NULL, BETWEEN, IN,
// and LIKE) is matched once, by lowerVecFilter, into a vecFilter descriptor.
// Its pred method builds the vecPred that tests a row position against the
// column vector directly — integer and date comparisons run on []int64,
// float on []float64, and text equality compares dictionary codes without
// touching a single string (ordering and LIKE precompute one verdict per
// dictionary entry). Vectorized predicates never error and never materialize
// a row, so rejected rows cost a few loads; its probe method (plan_zone.go)
// builds the per-zone verdict of the same predicate. Only the longest
// specializable prefix of a step's self-filters vectorizes: the remaining
// filters keep their original evaluation order, preserving error parity with
// the interpreter's short-circuit conjunct order.
//
// On top of the predicates sits a whole-query fast path: a single-table full
// scan whose filters are all vectorized and whose select list reads columns
// directly skips the arena pipeline entirely — one counting pass over the
// vectors, then an exactly-sized projection straight from the columns.

// vecPred reports whether table row ti passes one vectorized predicate.
type vecPred func(ti int) bool

// vecPass applies step si's vectorized filter prefix to row ti.
func (pq *plannedQuery) vecPass(si int, ti int) bool {
	for _, p := range pq.stepVec[si] {
		if !p(ti) {
			return false
		}
	}
	return true
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

func vecFalse(int) bool { return false }

// notNull wraps a payload test with the column's null check (NULL compares
// as unknown, so it always rejects). Columns with no NULLs skip the check.
func notNull(col storage.Col, inner vecPred) vecPred {
	if !col.HasNulls() {
		return inner
	}
	return func(ti int) bool { return !col.Null(ti) && inner(ti) }
}

// vecFilterKind names the predicate shapes of the vectorized dialect.
type vecFilterKind uint8

const (
	vfCompare vecFilterKind = iota // column <comparison> literal
	vfLike                         // column LIKE pattern
	vfNull                         // column IS [NOT] NULL
	vfBetween                      // column [NOT] BETWEEN literal AND literal
	vfIn                           // column [NOT] IN (literal, ...)
)

// vecFilter is one self-filter conjunct inside the vectorized dialect, reduced
// to what its consumers need: pred builds the row test the scan applies, and
// probe (plan_zone.go) the per-zone verdict that lets the scan skip rows
// without testing them. Both read the same descriptor, so the zone verdict is
// about exactly the predicate the rows are tested with. lowerVecFilter is the
// only constructor; a descriptor it returned cannot raise an error on any row.
type vecFilter struct {
	kind vecFilterKind
	col  storage.Col
	op   sqlparser.BinaryOp // vfCompare: the operator, oriented column-op-literal
	lit  value.Value        // the literal, the pattern, or BETWEEN's lower bound
	hi   value.Value        // BETWEEN's upper bound
	list []value.Value      // vfIn: the non-NULL entries
	// negate: IS NOT NULL, NOT BETWEEN, NOT IN.
	negate bool
	// sawNull: a NULL literal took part — a comparison or a bound that is true
	// for no row, or an IN entry that makes every non-match unknown.
	sawNull bool
}

// lowerVecFilter matches one self-filter conjunct of step st against the
// vectorized dialect. ok=false means the conjunct is outside it — another
// shape, an operand that is not a column of this step or a literal, or a kind
// combination whose evaluation raises an error the generic path must surface
// (an ordering across incomparable kinds, LIKE over non-text) — and compiles
// normally.
func (pq *plannedQuery) lowerVecFilter(st *planner.Step, e sqlparser.Expr) (vecFilter, bool) {
	var f vecFilter
	var ok bool
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		_, equality, isCmp := cmpTest(x.Op)
		if !isCmp && x.Op != sqlparser.OpLike {
			return f, false
		}
		f.op = x.Op
		if f.col, ok = pq.stepCol(st, x.Left); ok {
			f.lit, ok = litOf(x.Right)
		} else if isCmp { // pattern LIKE col stays generic
			if f.lit, ok = litOf(x.Left); ok {
				f.col, ok = pq.stepCol(st, x.Right)
				f.op = x.Op.Inverse()
			}
		}
		if !ok {
			return f, false
		}
		if !isCmp {
			f.kind = vfLike
			return f, f.col.Kind() == value.Text && f.lit.Kind() == value.Text
		}
		f.sawNull = f.lit.IsNull()
		// = and <> across incomparable kinds are constant verdicts.
		return f, f.sawNull || equality || comparableKinds(f.col.Kind(), f.lit.Kind())

	case *sqlparser.IsNullExpr:
		f.kind, f.negate = vfNull, x.Negate
		f.col, ok = pq.stepCol(st, x.Inner)
		return f, ok

	case *sqlparser.BetweenExpr:
		f.kind, f.negate = vfBetween, x.Negate
		if f.col, ok = pq.stepCol(st, x.Subject); !ok {
			return f, false
		}
		if f.lit, ok = litOf(x.Lo); !ok {
			return f, false
		}
		if f.hi, ok = litOf(x.Hi); !ok {
			return f, false
		}
		f.sawNull = f.lit.IsNull() || f.hi.IsNull()
		// Both bound comparisons must be error-free for every non-NULL subject.
		return f, f.sawNull ||
			comparableKinds(f.col.Kind(), f.lit.Kind()) && comparableKinds(f.col.Kind(), f.hi.Kind())

	case *sqlparser.InExpr:
		f.kind, f.negate = vfIn, x.Negate
		if x.Subquery != nil {
			return f, false
		}
		if f.col, ok = pq.stepCol(st, x.Subject); !ok {
			return f, false
		}
		f.list = make([]value.Value, 0, len(x.List))
		for _, it := range x.List {
			lit, ok := litOf(it)
			if !ok {
				return f, false
			}
			if lit.IsNull() {
				f.sawNull = true
				continue
			}
			f.list = append(f.list, lit)
		}
		return f, true

	default:
		return f, false
	}
}

// emptyIn reports an IN with no entries at all: false — and NOT IN true — for
// every row, NULL subjects included, like the compiled InExpr's special case.
func (f *vecFilter) emptyIn() bool { return len(f.list) == 0 && !f.sawNull }

// pred builds the row test. NULL subjects reject everything but IS NULL and
// the empty NOT IN; the rest follows compareOp, likeMatch and value.Equal
// exactly. fast gates the encoded fast paths (frame-of-reference deltas,
// sorted-dictionary rank compares) together with the rest of the zone-map
// layer, so disabling zone maps reverts the scan to plain payload reads.
func (f *vecFilter) pred(fast bool) vecPred {
	col := f.col
	switch f.kind {
	case vfCompare:
		if f.sawNull {
			return vecFalse // comparison with NULL is never true
		}
		return cmpPred(col, f.op, f.lit, fast)

	case vfLike:
		return likePred(col, f.lit.Text(), fast)

	case vfNull:
		want := !f.negate
		return func(ti int) bool { return col.Null(ti) == want }

	case vfBetween:
		if f.sawNull {
			return vecFalse // NULL bound: the test is unknown for every row
		}
		ge := cmpPred(col, sqlparser.OpGe, f.lit, fast)
		le := cmpPred(col, sqlparser.OpLe, f.hi, fast)
		if f.negate {
			return notNull(col, func(ti int) bool { return !(ge(ti) && le(ti)) })
		}
		return func(ti int) bool { return ge(ti) && le(ti) }

	default: // vfIn
		negate, sawNull := f.negate, f.sawNull
		if f.emptyIn() {
			return func(int) bool { return negate }
		}
		member := vecMembership(col, f.list)
		return notNull(col, func(ti int) bool {
			if member(ti) {
				return !negate
			}
			if sawNull {
				return false // unknown either way
			}
			return negate
		})
	}
}

// comparableKinds reports whether a column of kind ck orders against a
// literal of kind lk without error (value.Compare's rule).
func comparableKinds(ck, lk value.Kind) bool {
	if (ck == value.Int || ck == value.Float) && (lk == value.Int || lk == value.Float) {
		return true
	}
	return ck == lk && ck != value.Null
}

// cmpPred tests the column against a non-NULL literal. Across incomparable
// kinds only = and <> get here (lowerVecFilter keeps orderings generic, so
// their error surfaces): = is false and <> true for every non-NULL row.
func cmpPred(col storage.Col, op sqlparser.BinaryOp, lit value.Value, fast bool) vecPred {
	test, _, _ := cmpTest(op)
	if !comparableKinds(col.Kind(), lit.Kind()) {
		if op == sqlparser.OpEq {
			return vecFalse
		}
		return notNull(col, func(int) bool { return true })
	}
	switch col.Kind() {
	case value.Int:
		lf := lit.Float()
		if fb, d8, ok := col.FORInts(); ok && fast {
			// Frame-of-reference path: stream one delta byte per row instead
			// of eight payload bytes (value = zone base + delta).
			return notNull(col, func(ti int) bool {
				x := fb[ti>>storage.ZoneShift] + int64(d8[ti>>storage.ZoneShift][ti&storage.ZoneMask])
				return test(cmpFloat(float64(x), lf))
			})
		}
		xs := col.Ints()
		return notNull(col, func(ti int) bool { return test(cmpFloat(float64(xs[ti]), lf)) })
	case value.Float:
		xs := col.Floats()
		lf := lit.Float()
		return notNull(col, func(ti int) bool { return test(cmpFloat(xs[ti], lf)) })
	case value.Date:
		ld := lit.DateDays()
		if fb, d8, ok := col.FORInts(); ok && fast {
			return notNull(col, func(ti int) bool {
				x := fb[ti>>storage.ZoneShift] + int64(d8[ti>>storage.ZoneShift][ti&storage.ZoneMask])
				return test(cmpInt(x, ld))
			})
		}
		xs := col.Ints()
		return notNull(col, func(ti int) bool { return test(cmpInt(xs[ti], ld)) })
	case value.Bool:
		xs := col.Bools()
		lb := lit.Bool()
		return notNull(col, func(ti int) bool { return test(cmpBool(xs[ti], lb)) })
	default: // Text
		codes := col.Codes()
		switch op {
		case sqlparser.OpEq:
			code, present := col.DictCode(lit.Text())
			if !present {
				return vecFalse // the string never occurs in the column
			}
			return notNull(col, func(ti int) bool { return codes[ti] == code })
		case sqlparser.OpNe:
			code, present := col.DictCode(lit.Text())
			if !present {
				return notNull(col, func(int) bool { return true })
			}
			return notNull(col, func(ti int) bool { return codes[ti] != code })
		default:
			ls := lit.Text()
			if fast && col.SortedDict() {
				// Sorted dictionary: the predicate is a rank-range compare —
				// no per-entry verdict array, no string touched per row.
				ranks := col.Ranks()
				lb := uint32(col.LowerBoundRank(ls))
				ub := lb
				if _, present := col.DictCode(ls); present {
					ub++
				}
				var rtest func(uint32) bool
				switch op {
				case sqlparser.OpLt:
					rtest = func(r uint32) bool { return r < lb }
				case sqlparser.OpLe:
					rtest = func(r uint32) bool { return r < ub }
				case sqlparser.OpGt:
					rtest = func(r uint32) bool { return r >= ub }
				default: // OpGe
					rtest = func(r uint32) bool { return r >= lb }
				}
				return notNull(col, func(ti int) bool { return rtest(ranks[codes[ti]]) })
			}
			// Ordering: one verdict per dictionary entry, then a code lookup
			// per row.
			verdict := make([]bool, col.DictLen())
			for c := range verdict {
				s := col.DictString(uint32(c))
				verdict[c] = test(cmpString(s, ls))
			}
			return notNull(col, func(ti int) bool { return verdict[codes[ti]] })
		}
	}
}

// likePred precomputes the LIKE verdict per dictionary entry. With a sorted
// dictionary, a pure prefix pattern ('abc%') becomes a rank-range compare:
// matches are exactly the strings in [prefix, successor).
func likePred(col storage.Col, pat string, fast bool) vecPred {
	if fast && col.SortedDict() {
		if prefix, prefixOnly := planner.LikePrefix(pat); prefixOnly && (prefix == "" || likePrefixSafe(prefix)) {
			lb := uint32(col.LowerBoundRank(prefix))
			ub := uint32(col.DictLen())
			if succ, ok := planner.PrefixSuccessor(prefix); ok {
				ub = uint32(col.LowerBoundRank(succ))
			}
			ranks := col.Ranks()
			codes := col.Codes()
			return notNull(col, func(ti int) bool {
				r := ranks[codes[ti]]
				return r >= lb && r < ub
			})
		}
	}
	verdict := make([]bool, col.DictLen())
	for c := range verdict {
		verdict[c] = likeMatch(col.DictString(uint32(c)), pat)
	}
	codes := col.Codes()
	return notNull(col, func(ti int) bool { return verdict[codes[ti]] })
}

// vecMembership builds a payload-set membership test for the column kind.
// List entries of foreign kinds can never match (value.Equal semantics) and
// are simply ignored.
func vecMembership(col storage.Col, lits []value.Value) vecPred {
	switch col.Kind() {
	case value.Int, value.Float:
		set := make(map[float64]bool, len(lits))
		for _, l := range lits {
			if l.IsNumeric() {
				set[l.Float()] = true
			}
		}
		if col.Kind() == value.Int {
			xs := col.Ints()
			return func(ti int) bool { return set[float64(xs[ti])] }
		}
		xs := col.Floats()
		return func(ti int) bool { return set[xs[ti]] }
	case value.Text:
		set := make(map[uint32]bool, len(lits))
		for _, l := range lits {
			if l.Kind() == value.Text {
				if code, present := col.DictCode(l.Text()); present {
					set[code] = true
				}
			}
		}
		codes := col.Codes()
		return func(ti int) bool { return set[codes[ti]] }
	case value.Date:
		set := make(map[int64]bool, len(lits))
		for _, l := range lits {
			if l.Kind() == value.Date {
				set[l.DateDays()] = true
			}
		}
		xs := col.Ints()
		return func(ti int) bool { return set[xs[ti]] }
	default: // Bool
		var hasT, hasF bool
		for _, l := range lits {
			if l.Kind() == value.Bool {
				if l.Bool() {
					hasT = true
				} else {
					hasF = true
				}
			}
		}
		xs := col.Bools()
		return func(ti int) bool {
			if xs[ti] {
				return hasT
			}
			return hasF
		}
	}
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

// ---------------------------------------------------------------------------
// Single-table scan→project fast path
// ---------------------------------------------------------------------------

// colReader projects one select item straight from the table: a column
// position (lit unset) or a constant literal (pos < 0).
type colReader struct {
	pos int
	lit value.Value
}

// tryVecScan executes a fully vectorized single-table scan without the arena
// pipeline: every filter ran as a vecPred, every select item is a direct
// column read or constant, and every ORDER BY key resolves to an output
// column. Pass one counts matches over the vectors alone; pass two fills an
// exactly-sized projection straight from the columns. ok=false falls back to
// the general pipeline. Select items expand only after the structural checks
// pass: with every filter vectorized the pipeline cannot error, so resolving
// the select list first cannot mask a join-phase error the interpreter
// would have raised.
func (ex *Engine) tryVecScan(sel *sqlparser.SelectStmt, entries []fromEntry, pq *plannedQuery, earlyLimit int) (*Result, bool, error) {
	if len(pq.plan.Steps) != 1 {
		return nil, false, nil
	}
	st := pq.plan.Steps[0]
	if st.Access != planner.ScanFull || len(pq.postEvals) > 0 ||
		len(pq.stepSelf[0]) > 0 || len(pq.stepPost[0]) > 0 {
		return nil, false, nil
	}
	items, cols, err := expandItems(sel, entries)
	if err != nil {
		return nil, true, err
	}
	tbl := st.Input.Tbl
	width := len(st.Input.Rel.Attributes)
	readers := make([]colReader, len(items))
	for i, it := range items {
		switch x := it.Expr.(type) {
		case *sqlparser.ColumnRef:
			slot, ok := pq.slotOf(x)
			if !ok || slot < 0 || slot >= width {
				return nil, false, nil
			}
			readers[i] = colReader{pos: slot}
		case *sqlparser.Literal:
			readers[i] = colReader{pos: -1, lit: x.Value}
		default:
			return nil, false, nil
		}
	}
	// ORDER BY keys resolve through the same flatOrderKeys logic as the
	// general pipeline (one copy of the ordinal/select-list semantics);
	// a key that compiled to an expression needs the source row, which
	// the fast path never materializes — fall back.
	keys := pq.flatOrderKeys(sel, items)
	for j := range keys {
		if keys[j].eval != nil {
			return nil, false, nil
		}
	}

	n := tbl.Len()
	bud := ex.bud
	bud.AddTotal(n)
	// Both passes poll the budget once per storage zone — the first charges
	// the zone's rows — and walk what the zone probes leave of it.
	pass := func(charge, note bool, rows func(segLo, segHi int, tested bool) bool) error {
		for lo := 0; lo < n; lo += storage.ZoneRows {
			hi := min(lo+storage.ZoneRows, n)
			examined := 0
			if charge {
				examined = hi - lo
			}
			if err := bud.Step(examined); err != nil {
				return err
			}
			if !pq.scanBase(lo, hi, note, rows) {
				break
			}
		}
		return nil
	}
	// Counting pass: a morsel the probes prove all-true contributes its full
	// length without testing a row.
	matched := 0
	err = pass(true, true, func(segLo, segHi int, tested bool) bool {
		if !tested {
			matched += segHi - segLo
			return true
		}
		for ti := segLo; ti < segHi; ti++ {
			if pq.vecPass(0, ti) {
				matched++
			}
		}
		return true
	})
	if err != nil {
		return nil, true, err
	}
	pq.finishZoneSkip()
	st.ActualRows = matched
	pq.plan.ActualRows = matched

	// LIMIT pushdown mirrors execPlannedFlat: column reads and constants
	// cannot error, so the projection may stop at the bound.
	bound := -1
	if len(sel.OrderBy) == 0 && !sel.Distinct {
		if sel.Limit >= 0 {
			bound = sel.Limit
		}
		if earlyLimit >= 0 && sel.Limit < 0 {
			bound = earlyLimit
		}
	}
	emitN := matched
	if bound >= 0 && bound < emitN {
		emitN = bound
	}

	out := &Result{Columns: cols, Rows: make([]storage.Tuple, 0, emitN)}
	w := len(items)
	if err := bud.Grow(emitN * w * 24); err != nil {
		return nil, true, err
	}
	flat := make([]value.Value, emitN*w)
	project := func(ti int) {
		row := flat[:w:w]
		flat = flat[w:]
		for i, r := range readers {
			if r.pos < 0 {
				row[i] = r.lit
			} else {
				row[i] = tbl.Col(r.pos).Value(ti)
			}
		}
		out.Rows = append(out.Rows, storage.Tuple(row))
	}
	// Same pruning as the counting pass, whose verdicts were accounted there.
	err = pass(false, false, func(segLo, segHi int, tested bool) bool {
		for ti := segLo; ti < segHi && len(out.Rows) < emitN; ti++ {
			if !tested || pq.vecPass(0, ti) {
				project(ti)
			}
		}
		return len(out.Rows) < emitN
	})
	if err != nil {
		return nil, true, err
	}

	keyOf := func(i int, k *plannedSortKey) (value.Value, error) {
		return out.Rows[i][k.col], nil
	}
	res, err := ex.shapeResult(sel, pq, out, keys, keyOf)
	return res, true, err
}
