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
// Grouped expressions that need environment semantics (subqueries in HAVING
// or aggregate arguments) fall back to the environment-based grouped
// evaluator over materialized envs — correctness first, the fast path for
// the common shapes.
//
// Error parity with the interpreter is deliberate: group iteration order is
// first-seen order over rows in the interpreter's order, aggregate errors are
// recorded during accumulation but surface only when the aggregate's value is
// first used (HAVING before select items, ORDER BY keys last), and sort-key
// resolution errors are deferred until there is a row to sort.

// ---------------------------------------------------------------------------
// Sort keys, top-K, and shared shaping
// ---------------------------------------------------------------------------

// plannedSortKey is one resolved ORDER BY item: an output-column read
// (col >= 0) or a compiled expression over the row backing each output row —
// the joined row in the flat path, the extended group row in the grouped
// path. err defers a resolution failure until rows exist, mirroring the
// interpreter's per-row key resolution.
type plannedSortKey struct {
	col  int
	desc bool
	eval rowEval
	use  []int // aggregate accumulators the eval reads (grouped path)
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
// recorded, not raised: they surface when the aggregate's value is first
// used, which is when the interpreter would compute it.
type aggAcc struct {
	err     error
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
	if v.IsNull() {
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
			a.err = fmt.Errorf("engine: %s over non-numeric values", spec.fn)
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
			a.err = err
			return
		}
		if (spec.fn == sqlparser.AggMin && c < 0) || (spec.fn == sqlparser.AggMax && c > 0) {
			a.best = v
		}
	}
}

// result finalizes the accumulator, mirroring evalAggregate's semantics:
// COUNT(*) counts group rows, SUM stays integer over all-integer input,
// empty inputs yield NULL for SUM/AVG/MIN/MAX.
func (a *aggAcc) result(spec *aggSpec, groupRows int64) (value.Value, error) {
	if spec.arg == nil {
		return value.NewInt(groupRows), nil
	}
	if a.err != nil {
		return value.Value{}, a.err
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

// emittedGroup is one group that survived HAVING, extended with lazily
// resolved aggregate result slots for projection and sort keys.
type emittedGroup struct {
	gs       *groupState
	ext      []value.Value // rep row ++ one slot per aggregate
	resolved []bool
}

// resolve finalizes the listed aggregates into the extended row, surfacing
// any accumulation error at first use.
func (eg *emittedGroup) resolve(ge *groupedExec, use []int) error {
	for _, idx := range use {
		if eg.resolved[idx] {
			continue
		}
		v, err := eg.gs.accs[idx].result(ge.aggs[idx], eg.gs.rows)
		if err != nil {
			return err
		}
		eg.ext[ge.width+idx] = v
		eg.resolved[idx] = true
	}
	return nil
}

// groupedExec is a grouped query compiled against the planned row layout:
// group keys and aggregate arguments as slot readers over the joined row,
// HAVING, select items, and sort keys as slot readers over the extended
// group row (rep row ++ aggregate results).
type groupedExec struct {
	pq        *plannedQuery // base query: row-level compiles
	gpq       *plannedQuery // leaf-hooked copy: group-level compiles
	width     int           // joined-row width; aggregate slots follow
	gbEvals   []rowEval
	aggs      []*aggSpec
	aggIdx    map[string]int
	curUse    *[]int // aggregates referenced by the expression being compiled
	having    rowEval
	havingUse []int
	items     []rowEval
	itemUse   [][]int
	keys      []plannedSortKey
}

// addAgg registers (or reuses) the accumulator for one aggregate expression.
// ok=false means the argument needs environment semantics.
func (ge *groupedExec) addAgg(a *sqlparser.AggregateExpr) (int, bool) {
	key := a.SQL()
	if idx, ok := ge.aggIdx[key]; ok {
		return idx, true
	}
	spec := &aggSpec{fn: a.Func, distinct: a.Distinct}
	if a.Arg != nil {
		ev, ok := ge.pq.compile(a.Arg)
		if !ok {
			return 0, false
		}
		spec.arg = ev
	}
	idx := len(ge.aggs)
	ge.aggIdx[key] = idx
	ge.aggs = append(ge.aggs, spec)
	return idx, true
}

// newGroupedExec compiles the grouped query. ok=false means some expression
// needs environment semantics (subqueries, env-only aggregate arguments) and
// the caller must take the materialized-environment path.
func newGroupedExec(sel *sqlparser.SelectStmt, entries []fromEntry, pq *plannedQuery, items []sqlparser.SelectItem) (*groupedExec, bool) {
	ge := &groupedExec{pq: pq, width: pq.plan.Width, aggIdx: map[string]int{}}
	for _, g := range sel.GroupBy {
		ev, ok := pq.compile(g)
		if !ok {
			return nil, false
		}
		ge.gbEvals = append(ge.gbEvals, ev)
	}
	gpq := *pq
	gpq.leaf = func(e sqlparser.Expr) (rowEval, bool, bool) {
		if j, ok := groupByIndex(e, sel.GroupBy, entries); ok {
			// The extended row's prefix is the representative joined row, so
			// the grouping expression's compiled form reads it directly.
			return ge.gbEvals[j], true, true
		}
		if a, ok := e.(*sqlparser.AggregateExpr); ok {
			idx, ok := ge.addAgg(a)
			if !ok {
				return nil, true, false
			}
			if ge.curUse != nil {
				*ge.curUse = append(*ge.curUse, idx)
			}
			slot := ge.width + idx
			return func(_ *evalCtx, row []value.Value) (value.Value, error) { return row[slot], nil }, true, true
		}
		if _, ok := e.(*sqlparser.ColumnRef); ok {
			// A column that is neither grouped nor inside an aggregate:
			// fail the compile so the query takes the environment path,
			// where execGrouped raises the grouping-rule error.
			return nil, true, false
		}
		return nil, false, false
	}
	ge.gpq = &gpq
	compileGroup := func(e sqlparser.Expr) (rowEval, []int, bool) {
		var use []int
		ge.curUse = &use
		ev, ok := ge.gpq.compile(e)
		ge.curUse = nil
		return ev, use, ok
	}
	if sel.Having != nil {
		ev, use, ok := compileGroup(sel.Having)
		if !ok {
			return nil, false
		}
		ge.having, ge.havingUse = ev, use
	}
	for _, it := range items {
		ev, use, ok := compileGroup(it.Expr)
		if !ok {
			return nil, false
		}
		ge.items = append(ge.items, ev)
		ge.itemUse = append(ge.itemUse, use)
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
		} else if err := checkGroupedExpr(o.Expr, sel, entries); err != nil {
			k.err = err
		} else {
			ev, use, ok := compileGroup(o.Expr)
			if !ok {
				return nil, false
			}
			k.eval, k.use = ev, use
		}
		ge.keys = append(ge.keys, k)
	}
	return ge, true
}

// execPlannedGrouped aggregates the joined rows: the streaming compiled path
// when every grouped expression lowers to slot readers, the materialized
// environment path otherwise.
func (ex *Engine) execPlannedGrouped(sel *sqlparser.SelectStmt, entries []fromEntry, pq *plannedQuery, rows [][]value.Value, items []sqlparser.SelectItem, cols []string) (*Result, error) {
	// The standard-SQL grouping rule is enforced by execGrouped: an item or
	// HAVING term with a stray column never compiles here (the leaf hook
	// rejects it), so such queries take the environment path below and fail
	// its shared check — one source of truth for the error.
	ge, ok := newGroupedExec(sel, entries, pq, items)
	if !ok {
		return ex.execPlannedGroupedEnv(sel, entries, pq, rows)
	}
	return ex.runGroupedPlan(sel, pq, ge, rows, cols)
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
	// group (COUNT(*) = 0).
	if len(sel.GroupBy) == 0 && len(order) == 0 {
		order = append(order, newGroupState(nil, len(ge.aggs)))
	}

	out := &Result{Columns: cols}
	var emitted []*emittedGroup
	for _, gs := range order {
		eg := &emittedGroup{
			gs:       gs,
			ext:      make([]value.Value, ge.width+len(ge.aggs)),
			resolved: make([]bool, len(ge.aggs)),
		}
		copy(eg.ext, gs.rep)
		if ge.having != nil {
			if err := eg.resolve(ge, ge.havingUse); err != nil {
				return nil, err
			}
			v, err := ge.having(ec, eg.ext)
			if err != nil {
				return nil, err
			}
			if !passes(v) {
				continue
			}
		}
		row := make(storage.Tuple, len(ge.items))
		for i, itEval := range ge.items {
			if err := eg.resolve(ge, ge.itemUse[i]); err != nil {
				return nil, err
			}
			v, err := itEval(ec, eg.ext)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out.Rows = append(out.Rows, row)
		emitted = append(emitted, eg)
	}
	setShapeActual(pq.plan, planner.ShapeAggregate, len(out.Rows))

	keyOf := func(i int, k *plannedSortKey) (value.Value, error) {
		if k.col >= 0 {
			return out.Rows[i][k.col], nil
		}
		eg := emitted[i]
		if err := eg.resolve(ge, k.use); err != nil {
			return value.Value{}, err
		}
		return k.eval(ec, eg.ext)
	}
	return ex.shapeResult(sel, pq, out, ge.keys, keyOf)
}

// execPlannedGroupedEnv is the fallback for grouped expressions outside the
// compiled dialect: materialize environments over the planned rows and run
// the environment-based grouped evaluator plus shaping.
func (ex *Engine) execPlannedGroupedEnv(sel *sqlparser.SelectStmt, entries []fromEntry, pq *plannedQuery, rows [][]value.Value) (*Result, error) {
	envs := pq.materializeEnvs(rows)
	out, groups, err := ex.execGrouped(sel, entries, envs)
	if err != nil {
		return nil, err
	}
	setShapeActual(pq.plan, planner.ShapeAggregate, len(out.Rows))
	if sel.Distinct {
		out.Rows = distinctRows(out.Rows)
		groups = nil
	}
	if len(sel.OrderBy) > 0 {
		if err := ex.orderRows(sel, entries, out, nil, groups); err != nil {
			return nil, err
		}
	}
	if sel.Limit >= 0 && len(out.Rows) > sel.Limit {
		out.Rows = out.Rows[:sel.Limit]
	}
	setShapeFinal(pq.plan, len(out.Rows))
	return out, nil
}
