package engine

import (
	"fmt"
	"sort"

	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file extends planned execution past the join pipeline: streaming hash
// aggregation over flat rows (group keys and aggregate accumulators compiled
// to slot readers), slot-compiled ORDER BY sort keys with a bounded top-K
// heap when a LIMIT is present, and LIMIT pushdown into the projection loop.
// Every grouped query the fused pipeline (plan_agg_vec.go) declines runs
// here; a subquery anywhere in it compiles at its node like any other, with
// the group's representative row (or, in an aggregate argument, the joined
// row) as its outer scope.
//
// Error parity with the interpreter is deliberate: the grouping rule is
// checked before any group key is evaluated, group iteration order is
// first-seen order over rows in pipeline order (the interpreter's wherever
// the plan keeps FROM order), aggregate errors are
// recorded during accumulation but surface only when the query reads the
// aggregate (HAVING before select items, ORDER BY keys last), and sort-key
// resolution errors are deferred until there is a row to sort.

// ---------------------------------------------------------------------------
// Sort keys, top-K, and shared shaping
// ---------------------------------------------------------------------------

// plannedSortKey is one resolved ORDER BY item: an output-column read
// (col >= 0) or a compiled expression over the row backing each output row —
// the joined row in the flat path, the group's representative row in the
// grouped paths. err defers a resolution failure until rows exist, mirroring
// the interpreter's per-row key resolution.
type plannedSortKey struct {
	col  int
	desc bool
	eval rowEval
	err  error
}

// compareSortKeys orders two key vectors under the ORDER BY directions:
// NULLs sort first ascending and last descending, exactly like the
// interpreter's comparator. Incomparable kinds record the first error and
// compare equal.
func compareSortKeys(a, b []value.Value, order []sqlparser.OrderItem, errp *error) int {
	for j, o := range order {
		ka, kb := a[j], b[j]
		if ka.IsNull() || kb.IsNull() {
			if ka.IsNull() && kb.IsNull() {
				continue
			}
			if ka.IsNull() != o.Desc {
				return -1
			}
			return 1
		}
		c, err := ka.Compare(kb)
		if err != nil {
			if *errp == nil {
				*errp = err
			}
			return 0
		}
		if c == 0 {
			continue
		}
		if o.Desc {
			c = -c
		}
		if c < 0 {
			return -1
		}
		return 1
	}
	return 0
}

// topKIndices selects the k smallest of [0, n) under (cmp, index) with a
// bounded max-heap and returns them fully sorted — exactly the prefix a
// stable full sort would produce, at O(n log k).
func topKIndices(n, k int, cmp func(a, b int) int) []int {
	if k > n {
		k = n // a bound past the input keeps everything
	}
	less := func(a, b int) bool {
		if c := cmp(a, b); c != 0 {
			return c < 0
		}
		return a < b // stable: ties keep input order
	}
	h := make([]int, 0, k)
	worse := func(a, b int) bool { return less(b, a) } // max-heap on the kept set
	for i := 0; i < n; i++ {
		if len(h) < k {
			h = append(h, i)
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if !worse(h[c], h[p]) {
					break
				}
				h[c], h[p] = h[p], h[c]
				c = p
			}
			continue
		}
		if !less(i, h[0]) {
			continue
		}
		h[0] = i
		for c := 0; ; {
			l, r, m := 2*c+1, 2*c+2, c
			if l < len(h) && worse(h[l], h[m]) {
				m = l
			}
			if r < len(h) && worse(h[r], h[m]) {
				m = r
			}
			if m == c {
				break
			}
			h[c], h[m] = h[m], h[c]
			c = m
		}
	}
	sort.Slice(h, func(a, b int) bool { return less(h[a], h[b]) })
	return h
}

// shapeResult applies DISTINCT, ORDER BY (bounded top-K when a LIMIT is
// present), and LIMIT to a projected result, recording the shaping steps'
// actual row counts on the plan.
func (ex *Engine) shapeResult(sel *sqlparser.SelectStmt, pq *plannedQuery, out *Result, keys []plannedSortKey, keyOf func(i int, k *plannedSortKey) (value.Value, error)) (*Result, error) {
	if sel.Distinct {
		out.Rows = distinctRows(out.Rows)
	}
	if len(sel.OrderBy) > 0 && len(out.Rows) > 0 {
		if err := ex.sortPlanned(sel, out, keys, keyOf); err != nil {
			return nil, err
		}
	}
	if sel.Limit >= 0 && len(out.Rows) > sel.Limit {
		out.Rows = out.Rows[:sel.Limit]
	}
	setShapeFinal(pq.plan, len(out.Rows))
	return out, nil
}

// sortPlanned orders out.Rows by the resolved keys: a bounded top-K heap
// when 0 < LIMIT < rows, a stable full sort otherwise (LIMIT 0 still sorts,
// so comparison errors match the interpreter).
func (ex *Engine) sortPlanned(sel *sqlparser.SelectStmt, out *Result, keys []plannedSortKey, keyOf func(i int, k *plannedSortKey) (value.Value, error)) error {
	// One flat backing array serves every row's key vector, so sorting n
	// rows costs two allocations — not one per row (X12 regression: top-K
	// used to allocate a key slice per input row).
	n := len(out.Rows)
	kv := make([][]value.Value, n)
	flat := make([]value.Value, n*len(keys))
	for i := 0; i < n; i++ {
		ks := flat[:len(keys):len(keys)]
		flat = flat[len(keys):]
		for j := range keys {
			k := &keys[j]
			if k.err != nil {
				return k.err
			}
			v, err := keyOf(i, k)
			if err != nil {
				return err
			}
			ks[j] = v
		}
		kv[i] = ks
	}
	var cmpErr error
	cmp := func(a, b int) int { return compareSortKeys(kv[a], kv[b], sel.OrderBy, &cmpErr) }
	var idx []int
	if sel.Limit > 0 {
		// The heap also handles LIMIT >= n (it simply keeps everything), so
		// execution always matches the plan's top-k step. LIMIT 0 takes the
		// full sort: the interpreter sorts before truncating, and its
		// comparison errors must still surface.
		idx = topKIndices(n, sel.Limit, cmp)
	} else {
		idx = make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return cmp(idx[a], idx[b]) < 0 })
	}
	if cmpErr != nil {
		return cmpErr
	}
	rows := make([]storage.Tuple, len(idx))
	for i, j := range idx {
		rows[i] = out.Rows[j]
	}
	out.Rows = rows
	return nil
}

// setShapeActual records an executed shaping step's observed cardinality.
func setShapeActual(plan *planner.Plan, kind planner.ShapeKind, n int) {
	for _, sh := range plan.Shape {
		if sh.Kind == kind {
			sh.ActualRows = n
		}
	}
}

// setShapeFinal records the final shaped row count on every non-aggregate
// shaping step (sort / top-k / limit all emit the final result). Aggregate
// steps (generic or vectorized) and the parallel-scan and zone-skip markers
// keep their own counts.
func setShapeFinal(plan *planner.Plan, n int) {
	for _, sh := range plan.Shape {
		switch sh.Kind {
		case planner.ShapeAggregate, planner.ShapeVecAggregate, planner.ShapeParallelScan, planner.ShapeZoneSkip:
		default:
			sh.ActualRows = n
		}
	}
}

// ---------------------------------------------------------------------------
// Streaming aggregation
// ---------------------------------------------------------------------------

// aggSpec is one distinct aggregate expression of the query, compiled to an
// accumulator update over the joined row. arg is nil for COUNT(*).
type aggSpec struct {
	fn       sqlparser.AggFunc
	arg      rowEval
	distinct bool
}

// aggAcc is one aggregate's running state within a group. Errors are
// recorded, not raised: they surface when the query reads the aggregate,
// which is when the interpreter would compute it. err is the argument's first
// evaluation error; valErr, the first value the aggregate cannot take (a
// non-numeric SUM, incomparable MIN/MAX), stops accumulation but yields to an
// evaluation error on a later row, as in the oracle's evalAggregate.
type aggAcc struct {
	err     error
	valErr  error
	count   int64 // non-NULL (post-DISTINCT) values
	sumI    int64
	sumF    float64
	allInt  bool
	best    value.Value
	hasBest bool
	seen    map[string]bool
	keyBuf  []byte
}

func (a *aggAcc) update(ec *evalCtx, spec *aggSpec, row []value.Value) {
	if a.err != nil || spec.arg == nil {
		return
	}
	v, err := spec.arg(ec, row)
	if err != nil {
		a.err = err
		return
	}
	if v.IsNull() || a.valErr != nil {
		return
	}
	if spec.distinct {
		if a.seen == nil {
			a.seen = map[string]bool{}
		}
		a.keyBuf = v.AppendKey(a.keyBuf[:0])
		if a.seen[string(a.keyBuf)] {
			return
		}
		a.seen[string(a.keyBuf)] = true
	}
	a.count++
	switch spec.fn {
	case sqlparser.AggSum, sqlparser.AggAvg:
		if !v.IsNumeric() {
			a.valErr = fmt.Errorf("engine: %s over non-numeric values", spec.fn)
			return
		}
		if v.Kind() == value.Int {
			a.sumI += v.Int()
		} else {
			a.allInt = false
		}
		a.sumF += v.Float()
	case sqlparser.AggMin, sqlparser.AggMax:
		if !a.hasBest {
			a.best, a.hasBest = v, true
			return
		}
		c, err := v.Compare(a.best)
		if err != nil {
			a.valErr = err
			return
		}
		if (spec.fn == sqlparser.AggMin && c < 0) || (spec.fn == sqlparser.AggMax && c > 0) {
			a.best = v
		}
	}
}

// result finalizes the accumulator, mirroring the oracle's evalAggregate:
// COUNT(*) counts group rows, SUM stays integer over all-integer input,
// empty inputs yield NULL for SUM/AVG/MIN/MAX.
func (a *aggAcc) result(spec *aggSpec, groupRows int64) (value.Value, error) {
	if spec.arg == nil {
		return value.NewInt(groupRows), nil
	}
	if a.err != nil {
		return value.Value{}, a.err
	}
	if a.valErr != nil {
		return value.Value{}, a.valErr
	}
	switch spec.fn {
	case sqlparser.AggCount:
		return value.NewInt(a.count), nil
	case sqlparser.AggSum:
		if a.count == 0 {
			return value.NewNull(), nil
		}
		if a.allInt {
			return value.NewInt(a.sumI), nil
		}
		return value.NewFloat(a.sumF), nil
	case sqlparser.AggAvg:
		if a.count == 0 {
			return value.NewNull(), nil
		}
		return value.NewFloat(a.sumF / float64(a.count)), nil
	case sqlparser.AggMin, sqlparser.AggMax:
		if !a.hasBest {
			return value.NewNull(), nil
		}
		return a.best, nil
	default:
		return value.Value{}, fmt.Errorf("engine: unknown aggregate")
	}
}

// groupState is one group's running state: the representative (first) joined
// row, the row count, and one accumulator per aggregate.
type groupState struct {
	rep  []value.Value
	rows int64
	accs []aggAcc
}

func newGroupState(rep []value.Value, nAggs int) *groupState {
	gs := &groupState{rep: rep, accs: make([]aggAcc, nAggs)}
	for i := range gs.accs {
		gs.accs[i].allInt = true
	}
	return gs
}

// groupedExec is a grouped query compiled against the planned row layout:
// group keys and aggregate arguments over the joined row; HAVING, select
// items and sort keys over the group's representative row, reading each
// aggregate from the group under evaluation (evalCtx.group).
type groupedExec struct {
	gbEvals []rowEval
	aggs    []*aggSpec
	having  rowEval
	items   []rowEval
	keys    []plannedSortKey
}

// newGroupedExec compiles the grouped query. The caller has enforced the
// grouping rule, so outside subqueries every column reference of HAVING and
// the select items sits in a grouping expression or an aggregate.
func newGroupedExec(sel *sqlparser.SelectStmt, gb *grouping, pq *plannedQuery, items []sqlparser.SelectItem) *groupedExec {
	ge := &groupedExec{}
	for _, g := range sel.GroupBy {
		ge.gbEvals = append(ge.gbEvals, pq.compile(g))
	}
	aggIdx := map[string]int{}
	gpq := *pq
	gpq.leaf = func(e sqlparser.Expr) (rowEval, bool) {
		if j, ok := gb.index(e); ok {
			// The representative row is a joined row, so the grouping
			// expression's compiled form reads it directly.
			return ge.gbEvals[j], true
		}
		a, ok := e.(*sqlparser.AggregateExpr)
		if !ok {
			return nil, false
		}
		key := a.SQL()
		idx, seen := aggIdx[key]
		if !seen {
			idx = len(ge.aggs)
			aggIdx[key] = idx
			spec := &aggSpec{fn: a.Func, distinct: a.Distinct}
			if a.Arg != nil {
				spec.arg = pq.compile(a.Arg)
			}
			ge.aggs = append(ge.aggs, spec)
		}
		spec := ge.aggs[idx]
		// Finalized on every read, so an accumulation error surfaces only
		// if the query reads the aggregate — when the interpreter would
		// compute it.
		return func(ec *evalCtx, _ []value.Value) (value.Value, error) {
			return ec.group.accs[idx].result(spec, ec.group.rows)
		}, true
	}
	if sel.Having != nil {
		ge.having = gpq.compile(sel.Having)
	}
	for _, it := range items {
		ge.items = append(ge.items, gpq.compile(it.Expr))
	}
	for _, o := range sel.OrderBy {
		k := plannedSortKey{col: -1, desc: o.Desc}
		if col, ok, err := orderTarget(o, items); err != nil {
			k.err = err
		} else if ok {
			k.col = col
		} else if sel.Distinct {
			// Group alignment is lost after dedup; mirror the interpreter's error.
			k.err = fmt.Errorf("engine: ORDER BY expression %s is not in the select list", o.Expr.SQL())
		} else if err := gb.check(o.Expr); err != nil {
			k.err = err
		} else {
			k.eval = gpq.compile(o.Expr)
		}
		ge.keys = append(ge.keys, k)
	}
	return ge
}

// execPlannedGrouped aggregates the joined rows on the streaming path, after
// enforcing the standard-SQL grouping rule in the interpreter's order: select
// items, then HAVING.
func (ex *Engine) execPlannedGrouped(sel *sqlparser.SelectStmt, entries []fromEntry, pq *plannedQuery, rows [][]value.Value, items []sqlparser.SelectItem, cols []string) (*Result, error) {
	gb := newGrouping(sel, entries)
	for _, it := range items {
		if err := gb.check(it.Expr); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		if err := gb.check(sel.Having); err != nil {
			return nil, err
		}
	}
	return ex.runGroupedPlan(sel, pq, newGroupedExec(sel, gb, pq, items), rows, cols)
}

// runGroupedPlan is the streaming hash aggregation: one pass over the joined
// rows accumulating per-group state keyed by the encoded grouping values,
// then HAVING, projection, and shaping per group in first-seen order.
func (ex *Engine) runGroupedPlan(sel *sqlparser.SelectStmt, pq *plannedQuery, ge *groupedExec, rows [][]value.Value, cols []string) (*Result, error) {
	ec := pq.newCtx()
	byKey := make(map[string]*groupState)
	var order []*groupState
	var keyBuf []byte // reused; value.AppendKey keys cannot collide across adjacent values
	for _, row := range rows {
		keyBuf = keyBuf[:0]
		for _, gev := range ge.gbEvals {
			v, err := gev(ec, row)
			if err != nil {
				return nil, err
			}
			keyBuf = v.AppendKey(keyBuf)
		}
		gs, ok := byKey[string(keyBuf)]
		if !ok {
			gs = newGroupState(row, len(ge.aggs))
			byKey[string(keyBuf)] = gs
			order = append(order, gs)
		}
		gs.rows++
		for i, spec := range ge.aggs {
			gs.accs[i].update(ec, spec, row)
		}
	}
	// A grouped query with no GROUP BY and no input rows still yields one
	// group (COUNT(*) = 0), whose nil representative row binds nothing.
	if len(sel.GroupBy) == 0 && len(order) == 0 {
		order = append(order, newGroupState(nil, len(ge.aggs)))
	}

	out := &Result{Columns: cols}
	var emitted []*groupState
	for _, gs := range order {
		ec.group = gs
		if ge.having != nil {
			v, err := ge.having(ec, gs.rep)
			if err != nil {
				return nil, err
			}
			if !passes(v) {
				continue
			}
		}
		row := make(storage.Tuple, len(ge.items))
		for i, itEval := range ge.items {
			v, err := itEval(ec, gs.rep)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out.Rows = append(out.Rows, row)
		emitted = append(emitted, gs)
	}
	setShapeActual(pq.plan, planner.ShapeAggregate, len(out.Rows))

	keyOf := func(i int, k *plannedSortKey) (value.Value, error) {
		if k.col >= 0 {
			return out.Rows[i][k.col], nil
		}
		ec.group = emitted[i]
		return k.eval(ec, emitted[i].rep)
	}
	return ex.shapeResult(sel, pq, out, ge.keys, keyOf)
}
