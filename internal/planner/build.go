package planner

import (
	"strings"

	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Cost model constants, in scanned-tuple units.
const (
	costProbe    = 1.5 // one primary-key probe
	costHashLoad = 1.0 // insert one build tuple into a hash table
	costEmit     = 0.1 // materialize one output row
)

// Build plans a SELECT over the given FROM entries, engine-flattened in
// clause order; every SELECT gets a plan. Without outer joins, explicit-JOIN ON
// conjuncts resolved within their own join are planned exactly like WHERE
// conjuncts, which is equivalent for inner joins, and the inputs are joined
// greedily by estimated output size. A plan with an outer join, or with a
// conjunct the planner cannot resolve, keeps FROM order instead. hasOuter
// reports an enclosing scope (this SELECT is a subquery), which legitimizes
// otherwise-unresolvable column references as correlations.
func Build(sel *sqlparser.SelectStmt, inputs []Input, hasOuter bool) *Plan {
	res := &resolver{inputs: inputs, offsets: make([]int, len(inputs))}
	width := 0
	after, outerJoins := -1, false
	for i := range inputs {
		res.offsets[i] = width
		width += len(inputs[i].Rel.Attributes)
		switch inputs[i].Join {
		case sqlparser.JoinRight:
			after = i
			outerJoins = true
		case sqlparser.JoinLeft:
			outerJoins = true
		}
	}

	whereConjs := sqlparser.Conjuncts(sel.Where)
	conjs := make([]*conjunct, 0, len(whereConjs))
	for i := range inputs {
		for _, e := range sqlparser.Conjuncts(inputs[i].On) {
			conjs = append(conjs, analyzeOn(e, res, i, hasOuter, outerJoins))
		}
	}
	for _, e := range whereConjs {
		c := analyze(e, res, hasOuter)
		c.after = after
		conjs = append(conjs, c)
	}
	fromOrder := outerJoins
	for _, c := range conjs {
		fromOrder = fromOrder || c.opaque || c.on >= 0
	}

	plan := &Plan{Width: width, ActualRows: -1}
	if len(inputs) == 0 {
		// A FROM-less SELECT: no step, one empty row, which every conjunct
		// filters.
		plan.EstRows = 1
		for _, c := range conjs {
			plan.Post = append(plan.Post, c.expr)
			plan.EstRows *= defaultSelectivity
		}
		buildShape(plan, sel, res, nil)
		return plan
	}

	stats := make([]storage.TableStats, len(inputs))
	for i := range inputs {
		stats[i] = inputs[i].Tbl.Stats()
	}

	// Local filter lists and filtered-cardinality estimates per input.
	localSel := make([]float64, len(inputs))
	for i := range localSel {
		localSel[i] = 1
	}
	for _, c := range conjs {
		for _, in := range c.inputs {
			if c.selfAt(in, &inputs[in]) {
				localSel[in] *= selectivity(c.expr, in, res, &stats[in])
			}
		}
	}
	filteredRows := func(i int) float64 {
		r := float64(stats[i].Rows) * localSel[i]
		if r < 0.1 {
			r = 0.1
		}
		return r
	}

	bound := make([]bool, len(inputs))
	planPos := make([]int, len(inputs)) // input index -> step index

	// ----- first step: cheapest filtered base table, best access path -----
	first := 0
	for i := 1; i < len(inputs) && !fromOrder; i++ {
		// Ascending iteration keeps the lowest FROM position on ties.
		if filteredRows(i) < filteredRows(first) {
			first = i
		}
	}
	firstStep := &Step{
		Input: inputs[first], FromPos: first, Offset: res.offsets[first],
		Access: ScanFull, TableRows: stats[first].Rows, ActualRows: -1,
	}
	chooseScanAccess(firstStep, first, conjs, res, &stats[first])
	firstStep.EstRows = filteredRows(first)
	switch firstStep.Access {
	case ScanPK:
		firstStep.EstCost = costProbe
		if firstStep.EstRows > 1 {
			firstStep.EstRows = 1
		}
	default:
		firstStep.EstCost = float64(stats[first].Rows)
	}
	plan.Steps = append(plan.Steps, firstStep)
	bound[first] = true
	planPos[first] = 0
	cur := firstStep.EstRows

	// ----- remaining steps: in FROM order when the plan keeps it -----
	for i := 1; i < len(inputs) && fromOrder; i++ {
		st := planJoinStep(i, cur, bound, conjs, res, inputs, &stats[i], localSel[i])
		st.Join = inputs[i].Join
		switch st.Join {
		case sqlparser.JoinLeft: // every row so far survives
			st.EstRows = max(st.EstRows, cur)
		case sqlparser.JoinRight: // every row of the relation survives
			st.EstRows = max(st.EstRows, float64(stats[i].Rows))
		}
		planPos[i] = i
		plan.Steps = append(plan.Steps, st)
		bound[i] = true
		markConsumed(st)
		cur = st.EstRows
	}

	// ----- otherwise greedy by estimated output cardinality -----
	for len(plan.Steps) < len(inputs) {
		type choice struct {
			input int
			step  *Step
			out   float64
		}
		var best *choice
		connectedOnly := anyConnected(inputs, bound, conjs)
		for i := range inputs {
			if bound[i] {
				continue
			}
			if connectedOnly && !isConnected(i, bound, conjs) {
				continue
			}
			st := planJoinStep(i, cur, bound, conjs, res, inputs, &stats[i], localSel[i])
			c := &choice{input: i, step: st, out: st.EstRows}
			if best == nil || c.out < best.out ||
				(c.out == best.out && st.EstCost < best.step.EstCost) ||
				(c.out == best.out && st.EstCost == best.step.EstCost && i < best.input) {
				best = c
			}
		}
		st := best.step
		planPos[best.input] = len(plan.Steps)
		plan.Steps = append(plan.Steps, st)
		bound[best.input] = true
		markConsumed(st)
		cur = st.EstRows
	}

	// ----- assign every remaining conjunct to its binding step -----
	for _, c := range conjs {
		if c.consumed {
			continue
		}
		if fromOrder && !c.post {
			si := stepOf(c, inputs)
			switch {
			case si < 0:
				plan.Post = append(plan.Post, c.expr)
			case c.selfAt(si, &inputs[si]):
				plan.Steps[si].SelfFilters = append(plan.Steps[si].SelfFilters, c.expr)
			default:
				plan.Steps[si].PostJoinFilters = append(plan.Steps[si].PostJoinFilters, c.expr)
			}
			continue
		}
		if c.post || len(c.inputs) == 0 {
			// Input-free conjuncts (constant predicates) run at the first
			// step, like the interpreter's pushdown; true residuals run after
			// all joins.
			if c.post {
				plan.Post = append(plan.Post, c.expr)
			} else {
				plan.Steps[0].PostJoinFilters = append(plan.Steps[0].PostJoinFilters, c.expr)
			}
			continue
		}
		last := 0
		for _, in := range c.inputs {
			if planPos[in] > last {
				last = planPos[in]
			}
		}
		// A single-input conjunct binds at that input's own step, so it is a
		// self-filter (applicable before the join); multi-input conjuncts
		// need the joined candidate row.
		st := plan.Steps[last]
		if len(c.inputs) == 1 {
			st.SelfFilters = append(st.SelfFilters, c.expr)
		} else {
			st.PostJoinFilters = append(st.PostJoinFilters, c.expr)
		}
	}

	// ----- totals -----
	plan.EstRows = cur
	for range plan.Post {
		plan.EstRows *= defaultSelectivity
	}
	for _, st := range plan.Steps {
		plan.EstCost += st.EstCost
	}
	buildShape(plan, sel, res, stats)
	return plan
}

// buildShape appends the post-join shaping stages — aggregate, sort or
// top-k, limit — the engine will run after the join pipeline, with group
// counts estimated from per-attribute distinct statistics. The engine's
// compilers add the steps that say how the scan and the aggregation run
// (zone-skip, parallel-scan, vec-aggregate); see ZoneSkipStep.
func buildShape(plan *Plan, sel *sqlparser.SelectStmt, res *resolver, stats []storage.TableStats) {
	cur := plan.EstRows
	if sel.Grouped() {
		st := &ShapeStep{Kind: ShapeAggregate, ActualRows: -1}
		for _, g := range sel.GroupBy {
			st.GroupBy = append(st.GroupBy, g.SQL())
		}
		st.Aggregates = aggregateSQLs(sel)
		st.EstRows = estimateGroups(sel.GroupBy, res, stats, cur)
		if sel.Having != nil {
			st.Having = sel.Having.SQL()
			st.EstRows *= defaultSelectivity
		}
		if st.EstRows < 1 {
			st.EstRows = 1
		}
		plan.Shape = append(plan.Shape, st)
		cur = st.EstRows
	}
	if len(sel.OrderBy) > 0 {
		st := &ShapeStep{Kind: ShapeSort, EstRows: cur, ActualRows: -1}
		for _, o := range sel.OrderBy {
			st.Keys = append(st.Keys, o.SQL())
		}
		// A positive LIMIT turns the sort into a bounded top-K heap; LIMIT 0
		// still sorts fully (for error parity) and truncates afterwards, so
		// it stays a sort followed by a limit step.
		if sel.Limit > 0 {
			st.Kind = ShapeTopK
			st.K = sel.Limit
			if cur > float64(sel.Limit) {
				st.EstRows = float64(sel.Limit)
			}
		}
		plan.Shape = append(plan.Shape, st)
		cur = st.EstRows
	}
	if sel.Limit >= 0 && (len(sel.OrderBy) == 0 || sel.Limit == 0) {
		st := &ShapeStep{Kind: ShapeLimit, K: sel.Limit, EstRows: cur, ActualRows: -1}
		if cur > float64(sel.Limit) {
			st.EstRows = float64(sel.Limit)
		}
		plan.Shape = append(plan.Shape, st)
		cur = st.EstRows
	}
	if len(plan.Shape) > 0 {
		plan.EstRows = cur
	}
}

// aggregateSQLs collects the distinct aggregate expressions of the select
// list, HAVING, and ORDER BY, in first-appearance order.
func aggregateSQLs(sel *sqlparser.SelectStmt) []string {
	var out []string
	seen := map[string]bool{}
	collect := func(e sqlparser.Expr) {
		if e == nil {
			return
		}
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			if a, ok := x.(*sqlparser.AggregateExpr); ok {
				s := a.SQL()
				if !seen[s] {
					seen[s] = true
					out = append(out, s)
				}
				return false
			}
			return true
		})
	}
	for _, it := range sel.Items {
		collect(it.Expr)
	}
	collect(sel.Having)
	for _, o := range sel.OrderBy {
		collect(o.Expr)
	}
	return out
}

// estimateGroups estimates the number of GROUP BY groups as the product of
// the grouping attributes' distinct counts, capped by the joined cardinality.
// Non-column grouping expressions contribute a fixed fan-out guess.
func estimateGroups(groupBy []sqlparser.Expr, res *resolver, stats []storage.TableStats, cur float64) float64 {
	if len(groupBy) == 0 {
		return 1
	}
	groups := 1.0
	for _, g := range groupBy {
		factor := 1 / defaultSelectivity // non-column expression: fixed guess
		if ref, ok := g.(*sqlparser.ColumnRef); ok {
			if in, pos, err := res.resolve(ref); err == nil {
				d := float64(stats[in].Attrs[pos].Distinct)
				if d < 1 {
					d = 1
				}
				factor = d
			}
		}
		groups *= factor
	}
	if groups > cur && cur >= 1 {
		groups = cur
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}

// anyConnected reports whether any unbound input has a join edge to the
// bound set — if so, unconnected inputs wait (avoid needless cartesians).
func anyConnected(inputs []Input, bound []bool, conjs []*conjunct) bool {
	for i := range inputs {
		if !bound[i] && isConnected(i, bound, conjs) {
			return true
		}
	}
	return false
}

func isConnected(i int, bound []bool, conjs []*conjunct) bool {
	for _, c := range conjs {
		if c.eq == nil || c.consumed {
			continue
		}
		if (c.eq.a == i && bound[c.eq.b]) || (c.eq.b == i && bound[c.eq.a]) {
			return true
		}
	}
	return false
}

// chooseScanAccess upgrades a first-step full scan to a primary-key probe
// when literal equality filters cover the key. Covered filter
// conjuncts stay in the filter list — re-checking an equality the probe
// already enforced is cheap and keeps the execution paths uniform.
func chooseScanAccess(st *Step, in int, conjs []*conjunct, res *resolver, stats *storage.TableStats) {
	// Literal equality per attribute position.
	eqLit := map[int]value.Value{}
	for _, c := range conjs {
		if !c.selfAt(in, &st.Input) {
			continue
		}
		b, ok := c.expr.(*sqlparser.BinaryExpr)
		if !ok || b.Op != sqlparser.OpEq {
			continue
		}
		attrOf := func(x sqlparser.Expr) (int, bool) {
			cr, ok := x.(*sqlparser.ColumnRef)
			if !ok {
				return 0, false
			}
			ri, rp, err := res.resolve(cr)
			if err != nil || ri != in {
				return 0, false
			}
			return rp, true
		}
		if pos, lit, _, ok := splitColLit(b, attrOf); ok {
			if _, dup := eqLit[pos]; !dup {
				eqLit[pos] = lit
			}
		}
	}
	if len(eqLit) == 0 {
		return
	}
	covered := func(positions []int) ([]value.Value, bool) {
		if len(positions) == 0 {
			return nil, false
		}
		vals := make([]value.Value, len(positions))
		for i, p := range positions {
			v, ok := eqLit[p]
			if !ok || v.IsNull() {
				return nil, false
			}
			vals[i] = v
		}
		return vals, true
	}
	if vals, ok := covered(st.Input.Tbl.PKPositions()); ok {
		st.Access = ScanPK
		st.KeyValues = vals
	}
}

// planJoinStep prices joining input i onto the current rows and picks the
// cheapest method.
func planJoinStep(i int, cur float64, bound []bool, conjs []*conjunct, res *resolver, inputs []Input, stats *storage.TableStats, localSel float64) *Step {
	st := &Step{
		Input: inputs[i], FromPos: i, Offset: res.offsets[i],
		TableRows: stats.Rows, ActualRows: -1,
	}
	rows := float64(stats.Rows)
	filtered := rows * localSel
	if filtered < 0.1 {
		filtered = 0.1
	}

	// Join edges from the bound set to i: attribute position -> probe slot.
	type edgeInfo struct {
		conj      *conjunct
		pos       int // attribute position in i
		probeSlot int // absolute slot on the bound side
		desc      string
	}
	var edges []edgeInfo
	for _, c := range conjs {
		if c.eq == nil || c.consumed || !c.at(i, &inputs[i]) {
			continue
		}
		e := c.eq
		switch {
		case e.a == i && bound[e.b]:
			edges = append(edges, edgeInfo{conj: c, pos: e.aPos, probeSlot: res.slot(e.b, e.bPos), desc: c.expr.SQL()})
		case e.b == i && bound[e.a]:
			edges = append(edges, edgeInfo{conj: c, pos: e.bPos, probeSlot: res.slot(e.a, e.aPos), desc: c.expr.SQL()})
		}
	}

	distinctOf := func(pos int) float64 {
		d := float64(stats.Attrs[pos].Distinct)
		if d < 1 {
			d = 1
		}
		return d
	}

	if len(edges) == 0 {
		// Cartesian (or non-equi) nested loop.
		st.Access = JoinLoop
		st.EstRows = cur * filtered
		st.EstCost = cur*filtered + filtered
		return st
	}

	// Matches per probe on one edge: rows / distinct(join attr), scaled by
	// the local filters.
	fanout := func(pos int) float64 {
		f := rows / distinctOf(pos) * localSel
		if f < 0 {
			f = 0
		}
		return f
	}

	// Candidate: primary-key join (all pk attrs covered by edges).
	pkPos := inputs[i].Tbl.PKPositions()
	edgeByPos := map[int]edgeInfo{}
	for _, e := range edges {
		if _, dup := edgeByPos[e.pos]; !dup {
			edgeByPos[e.pos] = e
		}
	}
	coverKey := func(positions []int) ([]edgeInfo, bool) {
		if len(positions) == 0 {
			return nil, false
		}
		out := make([]edgeInfo, len(positions))
		for k, p := range positions {
			e, ok := edgeByPos[p]
			if !ok {
				return nil, false
			}
			out[k] = e
		}
		return out, true
	}

	type method struct {
		access  Access
		used    []edgeInfo
		estRows float64
		cost    float64
	}
	var methods []method

	if used, ok := coverKey(pkPos); ok {
		match := localSel // pk probe yields <= 1 row, times local filters
		methods = append(methods, method{
			access: JoinPK, used: used,
			estRows: cur * match,
			cost:    cur*costProbe + cur*match*costEmit,
		})
	}
	// Hash join on the first edge (the interpreter's choice).
	he := edges[0]
	methods = append(methods, method{
		access: JoinHash, used: []edgeInfo{he},
		estRows: cur * fanout(he.pos),
		cost:    rows*costHashLoad + cur*costProbe + cur*fanout(he.pos)*costEmit,
	})

	best := methods[0]
	for _, m := range methods[1:] {
		if m.cost < best.cost {
			best = m
		}
	}
	st.Access = best.access
	st.EstRows = best.estRows
	st.EstCost = best.cost
	var descs []string
	for _, e := range best.used {
		descs = append(descs, e.desc)
	}
	st.JoinDesc = strings.Join(descs, " and ")
	switch best.access {
	case JoinHash:
		st.BuildPos = best.used[0].pos
		st.ProbeSlot = best.used[0].probeSlot
	case JoinPK:
		st.ProbeSlots = make([]int, len(pkPos))
		for k := range pkPos {
			st.ProbeSlots[k] = best.used[k].probeSlot
		}
	}
	// Remember which conjuncts the access path consumed; markConsumed flags
	// them once the step is actually chosen (candidate steps that lose the
	// greedy race must not mark anything).
	st.consumedConjs = nil
	for _, e := range best.used {
		st.consumedConjs = append(st.consumedConjs, e.conj)
	}
	// Unconsumed edges still filter this step's output.
	for _, e := range edges {
		if !inConjSet(st.consumedConjs, e.conj) {
			st.EstRows /= distinctOf(e.pos)
		}
	}
	if st.EstRows < 0.05 {
		st.EstRows = 0.05
	}
	return st
}

func inConjSet(set []*conjunct, c *conjunct) bool {
	for _, e := range set {
		if e == c {
			return true
		}
	}
	return false
}

// markConsumed flags the conjuncts folded into the chosen step's access
// path so they are neither re-applied as filters nor reused as edges.
func markConsumed(st *Step) {
	for _, c := range st.consumedConjs {
		c.consumed = true
	}
	st.consumedConjs = nil
}
