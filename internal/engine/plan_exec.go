package engine

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file executes planner.Plans over flat slot-addressed rows. Each FROM
// entry owns a contiguous slot range laid out in clause order; a row is one
// []value.Value of the plan's width. The scan step yields row positions, and
// a row is materialized where it is first needed: a single-table query reads
// each kept position into a scratch row and projects it into the result, a
// join plan copies the kept rows into one slab, and a join step's rows come
// from chunked arenas, so the join inner loop performs no per-row
// allocations, no map lookups, and no string comparisons. Every expression
// compiles to a closure over slots. A subquery compiles to a closure that
// plans and runs it for the row at hand, with that row as its outer scope
// (outerScope): its references to the enclosing query read the enclosing
// row's slots. A node that can only fail (a star, an aggregate outside a
// group, a reference nothing binds) compiles to its error, raised when a row
// reaches it.

// ---------------------------------------------------------------------------
// Hash keys
// ---------------------------------------------------------------------------

// joinKey is a comparable, allocation-free normalization of a Value for
// hash-join tables: numerics collapse to one float64 image (1 == 1.0, like
// value.Key), dates to their unix second, text aliases the original string.
type joinKey struct {
	kind byte
	bits uint64
	str  string
}

// joinChain is a hash table over build-side row positions with one int32
// head per key and a shared next vector — no per-key slice, so building it
// costs O(1) allocations regardless of the number of distinct keys. Chains
// are threaded in ascending row order (both builds iterate in reverse), so
// probes emit matches in insertion order, exactly like a nested loop.
//
// An entry is a row position when the whole table was hashed (buildChain:
// rows is nil, next spans the table) and an index into rows when only the
// outer batch's keys were (buildChainFromOuter: one entry per build row some
// outer row can match).
type joinChain struct {
	head map[joinKey]int32 // key -> first entry + 1, 0 for a key without rows
	next []int32           // next[e] -> following entry + 1, 0 ends
	rows []int32           // rows[e] -> build row position; nil when e is the position
}

// row resolves a chain entry to its build-side row position.
func (c *joinChain) row(e int32) int32 {
	if c.rows == nil {
		return e
	}
	return c.rows[e]
}

// joinKeyOf normalizes v; ok is false for NULL, which never joins.
func joinKeyOf(v value.Value) (joinKey, bool) {
	switch v.Kind() {
	case value.Int:
		return joinKey{kind: 'f', bits: math.Float64bits(float64(v.Int()))}, true
	case value.Float:
		f := v.Float()
		if f == 0 {
			f = 0 // collapse -0 and +0
		}
		return joinKey{kind: 'f', bits: math.Float64bits(f)}, true
	case value.Text:
		return joinKey{kind: 't', str: v.Text()}, true
	case value.Date:
		return joinKey{kind: 'd', bits: uint64(v.DateDays() * 86400)}, true
	case value.Bool:
		if v.Bool() {
			return joinKey{kind: 'B'}, true
		}
		return joinKey{kind: 'b'}, true
	default:
		return joinKey{}, false
	}
}

// ---------------------------------------------------------------------------
// Arenas
// ---------------------------------------------------------------------------

// Arena chunks start small (selective probes often emit a handful of rows)
// and double up to a cap, amortizing allocation without over-committing.
const (
	arenaFirstChunkRows = 8
	arenaMaxChunkRows   = 1024
)

// rowArena hands out fixed-width []value.Value rows carved from big chunks.
// peek returns the next row for speculative filling; commit keeps it. A
// rejected candidate is simply re-peeked, so filtered-out rows cost nothing.
type rowArena struct {
	width     int
	buf       []value.Value
	chunkRows int
}

func (a *rowArena) peek() []value.Value {
	if len(a.buf) < a.width {
		if a.chunkRows < arenaMaxChunkRows {
			if a.chunkRows == 0 {
				a.chunkRows = arenaFirstChunkRows
			} else {
				a.chunkRows *= 2
			}
		}
		n := a.width * a.chunkRows
		if n == 0 {
			n = 1
		}
		a.buf = make([]value.Value, n)
	}
	return a.buf[:a.width:a.width]
}

func (a *rowArena) commit() { a.buf = a.buf[a.width:] }

// ---------------------------------------------------------------------------
// Compiled query state
// ---------------------------------------------------------------------------

// plannedQuery is one plan compiled against the engine: slot-resolved
// predicate closures per step plus the residual predicates.
type plannedQuery struct {
	ex    *Engine
	plan  *planner.Plan
	outer *outerScope // the enclosing query of a subquery; nil at the top
	// fromOrder[i] is the step index of FROM entry i.
	fromOrder []int
	steps     []stepCode // compiled filters per step
	postEvals []rowEval  // residual predicates after all joins
	// zs, when set, arms the base scan's zone verdicts (and the plan carries
	// a zone-skip shape step): scanBase asks step 0's kernels about each
	// storage zone and skips morsels whose bounds disprove them.
	zs *zoneSkip
	// sel is the selection buffer of the query's serial phases (see
	// selection), allocated on first use.
	sel []int32
	// scope is the number of steps whose FROM entries column references
	// resolve against while compiling: all of them, except while compileAt
	// compiles a step's filters over the entries bound so far.
	scope int
	// leaf, when set, intercepts compilation of every subexpression before
	// the standard lowering. The aggregator uses a copy of the query with
	// leaf set to map aggregates and GROUP BY matches onto the group row
	// (compilePost, plan_agg_vec.go). handled=false falls through to the
	// standard lowering.
	leaf func(e sqlparser.Expr) (ev rowEval, handled bool)
}

// stepCode is one step's compiled filters.
type stepCode struct {
	vec  []vecKernel // the vectorized SelfFilter prefix, as selection kernels
	self []rowEval   // the remaining SelfFilters
	post []rowEval   // the PostJoinFilters
}

// rowEval evaluates one expression against a flat row.
type rowEval func(ec *evalCtx, row []value.Value) (value.Value, error)

// evalCtx is per-worker scratch: arenas, a key-encoding buffer and a scratch
// row for reading one table row at a time (scanRow). matched, set while a
// RIGHT join step runs, flags the table rows the step has emitted. failed and
// unbound describe the group whose row a grouped query's HAVING, select items
// or sort keys are evaluating (finishVecAgg): failed holds its aggregates'
// deferred errors, by aggregate (nil when none failed), and unbound marks the
// one group an aggregate without GROUP BY forms over no rows.
type evalCtx struct {
	pq      *plannedQuery
	rows    rowArena
	keyBuf  []byte
	scratch []value.Value
	matched []atomic.Bool
	failed  []error
	unbound bool
}

func (pq *plannedQuery) newCtx() *evalCtx {
	return &evalCtx{pq: pq, rows: rowArena{width: pq.plan.Width}}
}

// selRows is the length of a selection vector: zones are selected this many
// positions at a time, so a vector stays in L1 while the kernels refine it
// (X100's vector size).
const selRows = 1024

// selection returns the query's selection buffer, which its serial phases
// (the builds) take turns with; each worker of a scan has its own.
func (pq *plannedQuery) selection() []int32 { return growSel(&pq.sel) }

// growSel returns the selection buffer *sel, allocating it on first use: a
// scan whose probes skip every zone never does.
func growSel(sel *[]int32) []int32 {
	if *sel == nil {
		*sel = make([]int32, selRows)
	}
	return *sel
}

// scratchRow returns the context's full-width row for evaluating expressions
// against one table row at a time (scanRow).
func (ec *evalCtx) scratchRow() []value.Value {
	if ec.scratch == nil {
		ec.scratch = make([]value.Value, ec.pq.plan.Width)
	}
	return ec.scratch
}

// passes applies SQL WHERE truthiness: NULL and non-boolean reject.
func passes(v value.Value) bool {
	return !v.IsNull() && v.Kind() == value.Bool && v.Bool()
}

// ---------------------------------------------------------------------------
// Expression compilation
// ---------------------------------------------------------------------------

// outerScope is what a subquery's column references resolve against past its
// own FROM entries: the row of the enclosing query that invoked it, read over
// the FROM entries bound where the subquery's node compiled, then that
// query's own outer scope. A nil row — an unbound group's (evalCtx.unbound)
// — binds nothing and ends the chain.
type outerScope struct {
	pq    *plannedQuery
	scope int
	row   []value.Value
}

// column compiles a reference the subquery's own entries do not bind: the
// first scope outward that binds it, read once, since the enclosing row stays
// put while the subquery runs; or the lookup's error.
func (o *outerScope) column(ref *sqlparser.ColumnRef) rowEval {
	for ; o != nil && o.row != nil; o = o.pq.outer {
		slot, err := o.pq.resolve(ref, o.scope)
		if err != nil {
			return fails(err)
		}
		if slot >= 0 {
			v := o.row[slot]
			return func(*evalCtx, []value.Value) (value.Value, error) { return v, nil }
		}
	}
	return fails(fmt.Errorf("engine: unknown column %s", ref.SQL()))
}

// resolve finds ref among the FROM entries the first scope steps bound (see
// resolveIn); slot < 0 with a nil error means none binds it.
func (pq *plannedQuery) resolve(ref *sqlparser.ColumnRef, scope int) (slot int, err error) {
	i, pos, err := resolveIn(ref, len(pq.fromOrder), func(i int) (string, *catalog.Relation, bool) {
		in := pq.plan.Steps[pq.fromOrder[i]].Input
		return in.Alias, in.Rel, pq.fromOrder[i] < scope
	})
	if i < 0 || err != nil {
		return -1, err
	}
	return pq.plan.Steps[pq.fromOrder[i]].Offset + pos, nil
}

// slotOf resolves a column reference to an absolute slot among the FROM
// entries in scope; ok=false means it reads an outer scope or fails.
func (pq *plannedQuery) slotOf(ref *sqlparser.ColumnRef) (int, bool) {
	slot, err := pq.resolve(ref, pq.scope)
	return slot, err == nil && slot >= 0
}

// fails compiles a node that can only raise err, which it does on each row
// that reaches it.
func fails(err error) rowEval {
	return func(*evalCtx, []value.Value) (value.Value, error) { return value.Value{}, err }
}

// subquery compiles a subquery node: its subject, when there is one, first;
// then sub, run with the FROM entries in scope and the row at hand as its
// outer scope, fetching at most limit rows when limit >= 0; then outcome
// over the subject's value and sub's rows.
func (pq *plannedQuery) subquery(sub *sqlparser.SelectStmt, limit int, subject sqlparser.Expr, outcome func(s value.Value, rows []storage.Tuple) (value.Value, error)) rowEval {
	var subj rowEval = func(*evalCtx, []value.Value) (value.Value, error) { return value.Value{}, nil }
	if subject != nil {
		subj = pq.compile(subject)
	}
	scope := pq.scope
	return func(ec *evalCtx, row []value.Value) (value.Value, error) {
		s, err := subj(ec, row)
		if err != nil {
			return value.Value{}, err
		}
		if ec.unbound {
			row = nil
		}
		res, err := pq.ex.execSelectBounded(sub, &outerScope{pq: pq, scope: scope, row: row}, limit)
		if err != nil {
			return value.Value{}, err
		}
		return outcome(s, res.Rows)
	}
}

// compileAt lowers a filter of step si over the FROM entries steps 0..si
// bound.
func (pq *plannedQuery) compileAt(si int, e sqlparser.Expr) rowEval {
	pq.scope = si + 1
	ev := pq.compile(e)
	pq.scope = len(pq.plan.Steps)
	return ev
}

// compile lowers an expression to a slot-addressed closure.
func (pq *plannedQuery) compile(e sqlparser.Expr) rowEval {
	if pq.leaf != nil {
		if ev, handled := pq.leaf(e); handled {
			return ev
		}
	}
	switch x := e.(type) {
	case *sqlparser.Literal:
		v := x.Value
		return func(*evalCtx, []value.Value) (value.Value, error) { return v, nil }

	case *sqlparser.ColumnRef:
		if x.Column == "*" {
			return fails(fmt.Errorf("engine: %s is not a scalar expression", x.SQL()))
		}
		slot, err := pq.resolve(x, pq.scope)
		switch {
		case err != nil:
			return fails(err)
		case slot < 0:
			return pq.outer.column(x)
		}
		return func(_ *evalCtx, row []value.Value) (value.Value, error) { return row[slot], nil }

	case *sqlparser.BinaryExpr:
		return pq.compileBinary(x)

	case *sqlparser.NotExpr:
		inner := pq.compile(x.Inner)
		return func(ec *evalCtx, row []value.Value) (value.Value, error) {
			v, err := inner(ec, row)
			if err != nil {
				return value.Value{}, err
			}
			if v.IsNull() {
				return v, nil
			}
			if v.Kind() != value.Bool {
				return value.Value{}, fmt.Errorf("engine: NOT applied to %s", v.Kind())
			}
			return value.NewBool(!v.Bool()), nil
		}

	case *sqlparser.IsNullExpr:
		inner := pq.compile(x.Inner)
		negate := x.Negate
		return func(ec *evalCtx, row []value.Value) (value.Value, error) {
			v, err := inner(ec, row)
			if err != nil {
				return value.Value{}, err
			}
			return value.NewBool(v.IsNull() != negate), nil
		}

	case *sqlparser.BetweenExpr:
		subj, lo, hi := pq.compile(x.Subject), pq.compile(x.Lo), pq.compile(x.Hi)
		negate := x.Negate
		return func(ec *evalCtx, row []value.Value) (value.Value, error) {
			s, err := subj(ec, row)
			if err != nil {
				return value.Value{}, err
			}
			l, err := lo(ec, row)
			if err != nil {
				return value.Value{}, err
			}
			h, err := hi(ec, row)
			if err != nil {
				return value.Value{}, err
			}
			if s.IsNull() || l.IsNull() || h.IsNull() {
				return value.NewNull(), nil
			}
			c1, err := s.Compare(l)
			if err != nil {
				return value.Value{}, err
			}
			c2, err := s.Compare(h)
			if err != nil {
				return value.Value{}, err
			}
			in := c1 >= 0 && c2 <= 0
			return value.NewBool(in != negate), nil
		}

	case *sqlparser.InExpr:
		negate := x.Negate
		if x.Subquery != nil {
			return pq.subquery(x.Subquery, -1, x.Subject, func(s value.Value, rows []storage.Tuple) (value.Value, error) {
				return inRows(s, rows, negate)
			})
		}
		subj := pq.compile(x.Subject)
		items := make([]rowEval, len(x.List))
		for i, it := range x.List {
			items[i] = pq.compile(it)
		}
		return func(ec *evalCtx, row []value.Value) (value.Value, error) {
			s, err := subj(ec, row)
			if err != nil {
				return value.Value{}, err
			}
			var in inTest
			for _, ev := range items {
				c, err := ev(ec, row)
				if err != nil {
					return value.Value{}, err
				}
				in.add(s, c)
			}
			return in.result(s, negate), nil
		}

	case *sqlparser.QuantifiedExpr:
		return pq.subquery(x.Subquery, -1, x.Subject, func(s value.Value, rows []storage.Tuple) (value.Value, error) {
			return quantify(x, s, rows)
		})

	case *sqlparser.CaseExpr:
		conds := make([]rowEval, len(x.Whens))
		thens := make([]rowEval, len(x.Whens))
		for i, w := range x.Whens {
			conds[i], thens[i] = pq.compile(w.Cond), pq.compile(w.Then)
		}
		var els rowEval
		if x.Else != nil {
			els = pq.compile(x.Else)
		}
		return func(ec *evalCtx, row []value.Value) (value.Value, error) {
			for i, c := range conds {
				v, err := c(ec, row)
				if err != nil {
					return value.Value{}, err
				}
				if passes(v) {
					return thens[i](ec, row)
				}
			}
			if els != nil {
				return els(ec, row)
			}
			return value.NewNull(), nil
		}

	case *sqlparser.ExistsExpr:
		negate := x.Negate
		return pq.subquery(x.Subquery, 1, nil, func(_ value.Value, rows []storage.Tuple) (value.Value, error) {
			return value.NewBool((len(rows) > 0) != negate), nil
		})

	case *sqlparser.SubqueryExpr:
		return pq.subquery(x.Subquery, 2, nil, func(_ value.Value, rows []storage.Tuple) (value.Value, error) {
			return scalarOf(rows)
		})

	case *sqlparser.AggregateExpr:
		return fails(fmt.Errorf("engine: aggregate %s outside grouped context", x.SQL()))

	case *sqlparser.Star:
		return fails(fmt.Errorf("engine: * is not a scalar expression"))

	default:
		return fails(fmt.Errorf("engine: cannot evaluate %T", e))
	}
}

func (pq *plannedQuery) compileBinary(x *sqlparser.BinaryExpr) rowEval {
	l, r := pq.compile(x.Left), pq.compile(x.Right)
	op := x.Op
	switch op {
	case sqlparser.OpAnd, sqlparser.OpOr:
		return func(ec *evalCtx, row []value.Value) (value.Value, error) {
			lv, err := l(ec, row)
			if err != nil {
				return value.Value{}, err
			}
			// Three-valued short circuit.
			if !lv.IsNull() && lv.Kind() == value.Bool {
				if op == sqlparser.OpAnd && !lv.Bool() {
					return value.NewBool(false), nil
				}
				if op == sqlparser.OpOr && lv.Bool() {
					return value.NewBool(true), nil
				}
			}
			rv, err := r(ec, row)
			if err != nil {
				return value.Value{}, err
			}
			return threeValued(op, lv, rv)
		}
	}
	var pred func(int) bool
	equality := false
	switch op {
	case sqlparser.OpEq:
		pred, equality = func(c int) bool { return c == 0 }, true
	case sqlparser.OpNe:
		pred, equality = func(c int) bool { return c != 0 }, true
	case sqlparser.OpLt:
		pred = func(c int) bool { return c < 0 }
	case sqlparser.OpLe:
		pred = func(c int) bool { return c <= 0 }
	case sqlparser.OpGt:
		pred = func(c int) bool { return c > 0 }
	case sqlparser.OpGe:
		pred = func(c int) bool { return c >= 0 }
	}
	return func(ec *evalCtx, row []value.Value) (value.Value, error) {
		lv, err := l(ec, row)
		if err != nil {
			return value.Value{}, err
		}
		rv, err := r(ec, row)
		if err != nil {
			return value.Value{}, err
		}
		if lv.IsNull() || rv.IsNull() {
			return value.NewNull(), nil
		}
		switch op {
		case sqlparser.OpLike:
			if lv.Kind() != value.Text || rv.Kind() != value.Text {
				return value.Value{}, fmt.Errorf("engine: LIKE requires text operands")
			}
			return value.NewBool(likeMatch(lv.Text(), rv.Text())), nil
		case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv, sqlparser.OpMod:
			return arith(op, lv, rv)
		default:
			return compareOp(lv, rv, equality, pred)
		}
	}
}

// ---------------------------------------------------------------------------
// Plan compilation
// ---------------------------------------------------------------------------

// compilePlan resolves a plan's predicates against the engine. A step's
// filters compile over the FROM entries bound by then. When zone bounds can
// decide a kernel of the base scan, the plan's shape gains its zone-skip step
// here.
func (ex *Engine) compilePlan(plan *planner.Plan, outer *outerScope) *plannedQuery {
	pq := &plannedQuery{
		ex:        ex,
		plan:      plan,
		outer:     outer,
		fromOrder: make([]int, len(plan.Steps)),
		steps:     make([]stepCode, len(plan.Steps)),
		scope:     len(plan.Steps),
	}
	for si, st := range plan.Steps {
		pq.fromOrder[st.FromPos] = si
	}
	fast := !ex.st.noZoneMaps.Load()
	for si, st := range plan.Steps {
		// Vectorize the longest specializable prefix of the self-filters.
		// Only a prefix is safe: vectorized predicates never error, so
		// hoisting one past a generic filter that can error would change
		// which rows (if any) reach that filter — the prefix keeps the
		// original evaluation order intact.
		filters := st.SelfFilters
		for len(filters) > 0 {
			k, ok := pq.lowerVecFilter(st, filters[0], fast)
			if !ok {
				break
			}
			if pq.steps[si].vec == nil {
				pq.steps[si].vec = make([]vecKernel, 0, len(filters))
			}
			pq.steps[si].vec = append(pq.steps[si].vec, k)
			filters = filters[1:]
		}
		if si == 0 {
			pq.useZoneSkip(fast)
		}
		for _, f := range filters {
			pq.steps[si].self = append(pq.steps[si].self, pq.compileAt(si, f))
		}
		for _, f := range st.PostJoinFilters {
			pq.steps[si].post = append(pq.steps[si].post, pq.compileAt(si, f))
		}
	}
	for _, e := range plan.Post {
		pq.postEvals = append(pq.postEvals, pq.compile(e))
	}
	return pq
}

// ---------------------------------------------------------------------------
// Pipeline execution
// ---------------------------------------------------------------------------

// rowSet is what the pipeline hands the projection, the aggregator and a DML
// WHERE: the joined rows (a FROM-less SELECT's one empty row), or, for a plan
// that is its scan step alone, the positions the scan kept, which a consumer
// reads into a scratch row one at a time (row) — late materialization (Abadi
// et al., ICDE 2007).
type rowSet struct {
	rows [][]value.Value
	pos  []int32
	scan *planner.Step // the step pos indexes; nil when rows holds the rows
}

func (rs *rowSet) len() int {
	if rs.scan != nil {
		return len(rs.pos)
	}
	return len(rs.rows)
}

// row returns row i, a scan position's in ec's scratch row: valid until ec
// reads another.
func (rs *rowSet) row(ec *evalCtx, i int) []value.Value {
	if rs.scan != nil {
		return ec.scanRow(rs.scan, rs.pos[i])
	}
	return rs.rows[i]
}

// scanRow reads row ti of step st's table into the step's slots of ec's
// scratch row and returns the row.
func (ec *evalCtx) scanRow(st *planner.Step, ti int32) []value.Value {
	r := ec.scratchRow()
	st.Input.Tbl.CopyRow(r[st.Offset:st.Offset+len(st.Input.Rel.Attributes)], int(ti))
	return r
}

// passAll applies the compiled filters to row in order and reports whether
// every one passes; the first error stops it.
func (ec *evalCtx) passAll(row []value.Value, filters ...[]rowEval) (bool, error) {
	for _, group := range filters {
		for _, ev := range group {
			v, err := ev(ec, row)
			if err != nil || !passes(v) {
				return false, err
			}
		}
	}
	return true, nil
}

// emit speculatively fills a row from base plus the step table's row ti
// (read straight off the column vectors), applies the step's compiled
// filters, and keeps it on success.
func (ec *evalCtx) emit(out *[][]value.Value, base []value.Value, st *planner.Step, ti int32, evals ...[]rowEval) error {
	r := ec.rows.peek()
	copy(r, base)
	n := len(st.Input.Rel.Attributes)
	st.Input.Tbl.CopyRow(r[st.Offset:st.Offset+n], int(ti))
	if ok, err := ec.passAll(r, evals...); !ok {
		return err
	}
	ec.rows.commit()
	*out = append(*out, r)
	if ec.matched != nil {
		ec.matched[ti].Store(true)
	}
	return nil
}

// gatherRows runs join step st's fn over [0, n) on the engine's scheduler
// (fanOut), each worker with its own evalCtx, arenas and output rows, records
// the worker count on st, and concatenates the rows in chunk order.
func (ex *Engine) gatherRows(pq *plannedQuery, st *planner.Step, n int, fn func(ec *evalCtx, lo, hi int, out *[][]value.Value) error) ([][]value.Value, error) {
	workers := ex.workersFor(n)
	st.Workers = workers
	parts := make([]struct {
		ec  evalCtx
		out [][]value.Value
	}, workers)
	for w := range parts {
		parts[w].ec = *pq.newCtx()
	}
	err := ex.fanOut(n, workers, func(w, lo, hi int) error {
		return fn(&parts[w].ec, lo, hi, &parts[w].out)
	})
	if err != nil {
		return nil, err
	}
	merged := parts[0].out
	if workers > 1 {
		var total int
		for w := range parts {
			total += len(parts[w].out)
		}
		merged = make([][]value.Value, 0, total)
		for w := range parts {
			merged = append(merged, parts[w].out...)
		}
	}
	if err := growRows(ex.bud, merged); err != nil {
		return nil, err
	}
	return merged, nil
}

// slotBytes is what the memory quota charges for one materialized slot. The
// estimate is deliberately coarse — slots dominate a row's footprint.
const slotBytes = 24

// growRows charges a stage's materialized rows against the memory quota;
// zero-cost for nil budgets.
func growRows(bud *Budget, rows [][]value.Value) error {
	if bud == nil || len(rows) == 0 {
		return nil
	}
	return bud.Grow(len(rows) * len(rows[0]) * slotBytes)
}

// runPipeline runs the scan step, the join steps and the residual filters,
// and returns the surviving rows in pipeline order: the scan's rows in table
// order, each followed by its matches, step by step. That order is the same
// at every worker count, and it is FROM-major only when the plan keeps FROM
// order; SQL promises no order without a total ORDER BY, so nothing restores
// it. A plan with join steps materializes the scan's rows for the first join
// in one slab, exactly sized; a plan without them returns the positions, at
// most limit of them when limit >= 0 and no residual filter follows the scan.
func (ex *Engine) runPipeline(pq *plannedQuery, limit int) (rowSet, error) {
	steps := pq.plan.Steps
	if len(steps) != 1 || len(pq.postEvals) > 0 {
		limit = -1
	}
	var cur rowSet
	if len(steps) == 0 {
		cur.rows = [][]value.Value{{}} // a FROM-less SELECT's one empty row
	} else {
		pos, matched, err := ex.runScanStep(pq, steps[0], limit)
		if err != nil {
			return rowSet{}, err
		}
		steps[0].ActualRows = matched
		cur = rowSet{pos: pos, scan: steps[0]}
		if len(steps) > 1 {
			cur = rowSet{rows: pq.scanRows(steps[0], pos)}
			if err := growRows(ex.bud, cur.rows); err != nil {
				return rowSet{}, err
			}
		}
	}
	for si := 1; si < len(steps); si++ {
		st := steps[si]
		// With no row so far only a RIGHT join has rows to emit.
		if len(cur.rows) > 0 || st.Join == sqlparser.JoinRight {
			var err error
			if cur.rows, err = ex.runJoinStep(pq, si, st, cur.rows); err != nil {
				return rowSet{}, err
			}
		}
		st.ActualRows = len(cur.rows)
	}
	if len(pq.postEvals) > 0 && cur.len() > 0 {
		var err error
		if cur, err = ex.residual(pq, cur); err != nil {
			return rowSet{}, err
		}
	}
	pq.plan.ActualRows = cur.len()
	if limit >= 0 {
		pq.plan.ActualRows = steps[0].ActualRows // every row that passed, not only those kept
	}
	return cur, nil
}

// scanRows materializes the scan step's kept positions as full-width rows
// carved from one slab.
func (pq *plannedQuery) scanRows(st *planner.Step, pos []int32) [][]value.Value {
	w, n := pq.plan.Width, len(st.Input.Rel.Attributes)
	slab := make([]value.Value, len(pos)*w)
	rows := make([][]value.Value, len(pos))
	for i, ti := range pos {
		r := slab[i*w : (i+1)*w : (i+1)*w]
		st.Input.Tbl.CopyRow(r[st.Offset:st.Offset+n], int(ti))
		rows[i] = r
	}
	return rows
}

// residual drops the rows that fail a residual predicate, keeping the order
// of the rest; the first error in chunk order is the first in row order.
func (ex *Engine) residual(pq *plannedQuery, cur rowSet) (rowSet, error) {
	n := cur.len()
	workers := ex.workersFor(n)
	ctxs := make([]evalCtx, workers)
	for w := range ctxs {
		ctxs[w] = *pq.newCtx()
	}
	keep := make([]bool, n)
	err := ex.fanOut(n, workers, func(w, lo, hi int) error {
		var err error
		for i := lo; i < hi && err == nil; i++ {
			keep[i], err = ctxs[w].passAll(cur.row(&ctxs[w], i), pq.postEvals)
		}
		return err
	})
	if err != nil {
		return rowSet{}, err
	}
	if cur.scan != nil {
		cur.pos = compact(cur.pos, keep)
	} else {
		cur.rows = compact(cur.rows, keep)
	}
	return cur, nil
}

// compact closes up the elements of s whose keep flag is set, in order.
func compact[T any](s []T, keep []bool) []T {
	k := 0
	for i, ok := range keep {
		if ok {
			s[k] = s[i]
			k++
		}
	}
	return s[:k]
}

// scanPart is one worker's share of a full scan: its evaluation context, the
// selection buffer its zones reuse, the bitmap of its kernels' survivors
// (from the first survivor's word to the range's end, taken at the first
// survivor), and the positions it kept.
type scanPart struct {
	ec       evalCtx
	sel, pos []int32
	kept     *[]uint64
	matched  int // rows of the range that pass the step's filters
}

// survivorPool holds zeroed survivor bitmaps (*[]uint64), so a scan run per
// request or per subquery invocation reuses one instead of allocating it.
var survivorPool sync.Pool

// takeSurvivors returns a zeroed bitmap of words words from survivorPool.
func takeSurvivors(words int) *[]uint64 {
	if b, _ := survivorPool.Get().(*[]uint64); b != nil && cap(*b) >= words {
		*b = (*b)[:words]
		return b
	}
	b := make([]uint64, words)
	return &b
}

// markSurvivors sets the bits of the ascending positions kept in bits, whose
// first bit is position first. A contiguous run — a zone the verdicts passed
// whole, a step without kernels — is set a word at a time.
func markSurvivors(bits []uint64, first int, kept []int32) {
	lo, hi := int(kept[0])-first, int(kept[len(kept)-1])-first+1
	if hi-lo != len(kept) {
		for _, ti := range kept {
			i := int(ti) - first
			bits[i>>6] |= 1 << (i & 63)
		}
		return
	}
	for i := lo; i < hi; {
		n := min(64-i&63, hi-i)
		bits[i>>6] |= ^uint64(0) >> (64 - n) << (i & 63)
		i += n
	}
}

// runScanStep returns, in table order, the positions of the scan step's
// table that pass the step's filters — a primary-key probe's one position, or
// a full scan's — and how many rows pass. Filtering stays in the per-zone walk
// (scanBase: kernels and zone verdicts); the step's generic filters run on a
// scratch row. Each worker runs the kernels over its range once — the walk
// that polls the budget, once per zone, and notes the zones — marking their
// survivors in a bitmap and counting them, then reads the bitmap into a
// position vector of exactly that size, running the generic filters on the
// way. The vectors join in chunk order. Only generic filters, which must see
// every row, make a full scan fan out: without them a scan is a kernel loop
// per zone, cheaper than a goroutine, and a limit >= 0 caps the positions
// kept.
func (ex *Engine) runScanStep(pq *plannedQuery, st *planner.Step, limit int) (pos []int32, matched int, err error) {
	self, post := pq.steps[0].self, pq.steps[0].post
	if st.Access == planner.ScanPK {
		ec := pq.newCtx()
		pos := pq.probePositions(nil, st)
		for _, ti := range pos { // at most one
			if ok, err := ec.passAll(ec.scanRow(st, ti), self, post); !ok {
				return nil, 0, err
			}
		}
		return pos, len(pos), nil
	}
	n := st.Input.Tbl.Len()
	ex.bud.AddTotal(n)
	workers, generic := 1, len(self)+len(post) > 0
	if generic {
		workers, limit = ex.workersFor(n), -1
	}
	parts := make([]scanPart, workers)
	err = spread(n, len(parts), func(w, lo, hi int) error {
		p := &parts[w]
		p.ec = *pq.newCtx()
		var first, last int // the first bit's position, the last survivor's
		err := zones(ex.bud, lo, hi, func(s, e int) error {
			pq.scanBase(&p.sel, s, e, func(kept []int32) {
				if p.kept == nil {
					first = int(kept[0]) &^ 63
					p.kept = takeSurvivors((hi - first + 63) >> 6)
				}
				markSurvivors(*p.kept, first, kept)
				p.matched += len(kept)
				last = int(kept[len(kept)-1])
			})
			return nil
		})
		if p.kept == nil {
			return err
		}
		words := (*p.kept)[:(last-first)>>6+1]
		defer func() {
			clear(words)
			survivorPool.Put(p.kept)
		}()
		size := p.matched
		if limit >= 0 {
			size = min(size, limit)
		}
		if err != nil || size == 0 {
			return err
		}
		p.pos = make([]int32, 0, size)
		for i := 0; i < len(words) && len(p.pos) < size && err == nil; i++ {
			for word := words[i]; word != 0 && len(p.pos) < size; word &= word - 1 {
				ti := int32(first + i<<6 + bits.TrailingZeros64(word))
				if generic {
					var ok bool
					if ok, err = p.ec.passAll(p.ec.scanRow(st, ti), self, post); err != nil {
						break
					}
					if !ok {
						continue
					}
				}
				p.pos = append(p.pos, ti)
			}
		}
		if generic {
			p.matched = len(p.pos)
		}
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	pq.finishZoneSkip()
	if len(parts) == 1 {
		return parts[0].pos, parts[0].matched, nil
	}
	for w := range parts {
		matched += len(parts[w].pos)
	}
	pos = make([]int32, 0, matched)
	for w := range parts {
		pos = append(pos, parts[w].pos...)
	}
	return pos, matched, nil
}

// probePositions appends to dst the row position a first-step primary-key
// probe resolves to, if it passes the step's kernels (a NULL key value
// matches nothing).
func (pq *plannedQuery) probePositions(dst []int32, st *planner.Step) []int32 {
	var kb []byte
	for _, v := range st.KeyValues {
		if v.IsNull() {
			return dst
		}
		kb = v.AppendKey(kb)
	}
	if pos, ok := st.Input.Tbl.LookupPKPos(kb); ok && pq.kept(0, pos) {
		dst = append(dst, int32(pos))
	}
	return dst
}

// buildPass visits [0, n) one storage zone at a time — from the top when down
// is set — charging each zone's rows to the budget before fn sees them, so
// every pass a hash build makes over its table is a cancellation point and
// counts in a refusal's "examined" rows.
func buildPass(bud *Budget, n int, down bool, fn func(lo, hi int) error) error {
	bud.AddTotal(n)
	zones := (n + storage.ZoneRows - 1) >> storage.ZoneShift
	for i := 0; i < zones; i++ {
		z := i
		if down {
			z = zones - 1 - i
		}
		lo, hi := z<<storage.ZoneShift, min((z+1)<<storage.ZoneShift, n)
		if err := bud.Step(hi - lo); err != nil {
			return err
		}
		if err := fn(lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// buildKeep evaluates step si's compiled (non-vectorized) self-filters over
// every row of its table that the step's kernels keep, zone by zone, and
// returns the mask of survivors — nil when the step has no such filters. The
// pass runs forward and before either build, so whichever side is hashed
// afterwards a filter error surfaces, and it is the first in row order.
func (pq *plannedQuery) buildKeep(si int, st *planner.Step) ([]bool, error) {
	self := pq.steps[si].self
	if len(self) == 0 {
		return nil, nil
	}
	tbl := st.Input.Tbl
	keep := make([]bool, tbl.Len())
	ec := pq.newCtx()
	err := buildPass(pq.ex.bud, tbl.Len(), false, func(lo, hi int) error {
		for c := lo; c < hi; c += selRows {
			for _, ti := range pq.selectRange(si, pq.selection(), c, min(c+selRows, hi)) {
				ok, err := ec.passAll(ec.scanRow(st, ti), self)
				if err != nil {
					return err
				}
				keep[ti] = ok
			}
		}
		return nil
	})
	return keep, err
}

// buildSel fills sel with the positions [lo, hi), within one zone, that
// survive step si's self-filters — keep's verdicts when buildKeep computed
// them, the step's kernels otherwise — and returns them.
func (pq *plannedQuery) buildSel(si int, keep []bool, sel []int32, lo, hi int) []int32 {
	if keep == nil {
		return pq.selectRange(si, sel, lo, hi)
	}
	sel = sel[:hi-lo]
	k := 0
	for i, ok := range keep[lo:hi] {
		sel[k] = int32(lo + i)
		if ok {
			k++
		}
	}
	return sel[:k]
}

// buildKept reports whether build row ti survives the step's self-filters:
// the precomputed mask when there is one, the kernels over the one row
// otherwise.
func (pq *plannedQuery) buildKept(si int, keep []bool, ti int) bool {
	if keep != nil {
		return keep[ti]
	}
	return pq.kept(si, ti)
}

// buildChain hashes every filtered row of step si's table on its build
// attribute — the build for an outer side at least as large as the table, and
// for the fused aggregation pipeline, whose outer side is streamed and has no
// count yet.
func (pq *plannedQuery) buildChain(si int, st *planner.Step, keep []bool) (joinChain, error) {
	n := st.Input.Tbl.Len()
	buildCol := st.Input.Tbl.Col(st.BuildPos)
	chain := joinChain{head: make(map[joinKey]int32, n), next: make([]int32, n)}
	hashed := 0
	err := buildPass(pq.ex.bud, n, true, func(lo, hi int) error {
		for c := hi; c > lo; c -= selRows {
			kept := pq.buildSel(si, keep, pq.selection(), max(lo, c-selRows), c)
			for i := len(kept) - 1; i >= 0; i-- {
				ti := kept[i]
				// Col.Value materializes without allocating (text shares the
				// dictionary string), so this shares joinKeyOf's
				// normalization instead of duplicating it per column kind.
				k, ok := joinKeyOf(buildCol.Value(int(ti)))
				if !ok {
					continue
				}
				chain.next[ti] = chain.head[k]
				chain.head[k] = ti + 1
				hashed++
			}
		}
		return nil
	})
	st.HashSide, st.HashedRows, st.ScannedRows = planner.HashTable, hashed, n
	return chain, err
}

// buildChainFromOuter is the build for an outer batch smaller than the step's
// table: it hashes the batch's join keys, then scans the build column once
// and threads into the chain only the filtered rows whose key some outer row
// holds. Probing the result emits exactly what probing buildChain's would.
func (pq *plannedQuery) buildChainFromOuter(si int, st *planner.Step, keep []bool, outer [][]value.Value) (joinChain, error) {
	n := st.Input.Tbl.Len()
	buildCol := st.Input.Tbl.Col(st.BuildPos)
	chain := joinChain{head: make(map[joinKey]int32, len(outer))}
	st.HashSide, st.HashedRows, st.ScannedRows = planner.HashOuter, len(outer), n
	for i, row := range outer {
		// The outer rows were charged when their own step produced them.
		if i&storage.ZoneMask == 0 {
			if err := pq.ex.bud.Step(0); err != nil {
				return chain, err
			}
		}
		if k, ok := joinKeyOf(row[st.ProbeSlot]); ok {
			chain.head[k] = 0
		}
	}
	thread := func(ti int) {
		if !pq.buildKept(si, keep, ti) {
			return
		}
		k, ok := joinKeyOf(buildCol.Value(ti))
		if !ok {
			return
		}
		first, wanted := chain.head[k]
		if !wanted {
			return
		}
		chain.rows = append(chain.rows, int32(ti))
		chain.next = append(chain.next, first)
		chain.head[k] = int32(len(chain.rows))
	}
	// Int, date and dictionary-text columns are tested as raw payloads against
	// the keys' images in that type; thread re-checks every candidate, so an
	// image set only has to contain every payload that can join.
	scan := func(lo, hi int) error {
		for ti := hi - 1; ti >= lo; ti-- {
			thread(ti)
		}
		return nil
	}
	switch kind := buildCol.Kind(); kind {
	case value.Int, value.Date:
		if images, exact := intImages(chain.head, kind); exact {
			scan = func(lo, hi int) error {
				images.candidates(buildCol.Ints(lo>>storage.ZoneShift), lo, hi, thread)
				return nil
			}
		}
	case value.Text:
		images := codeImages(chain.head, buildCol)
		scan = func(lo, hi int) error {
			images.candidates(buildCol.Codes(lo>>storage.ZoneShift), lo, hi, thread)
			return nil
		}
	}
	return chain, buildPass(pq.ex.bud, n, true, scan)
}

// keyImages is a set of join keys in a build column's own payload type.
type keyImages[T int64 | uint32] struct {
	min, max T
	set      map[T]struct{}
}

func (ki *keyImages[T]) add(v T) {
	if len(ki.set) == 0 {
		ki.min, ki.max, ki.set = v, v, map[T]struct{}{}
	}
	ki.min, ki.max = min(ki.min, v), max(ki.max, v)
	ki.set[v] = struct{}{}
}

// candidates visits, from hi-1 down to lo, the positions of one zone whose
// payload is in the set; chunk is that zone's payload chunk. The bounds test
// settles most rows without a map lookup, and all of them for a single key.
func (ki *keyImages[T]) candidates(chunk []T, lo, hi int, visit func(ti int)) {
	// One unsigned comparison tests min <= v <= max (v-min wraps far past the
	// span when v < min): a key in the middle of the column's range would make
	// "v < min" a coin toss for the branch predictor on every row.
	lowest, span, seg := ki.min, uint64(ki.max-ki.min), chunk[lo&storage.ZoneMask:lo&storage.ZoneMask+hi-lo]
	for i := len(seg) - 1; i >= 0; i-- {
		v := seg[i]
		if uint64(v-lowest) > span {
			continue
		}
		if _, in := ki.set[v]; in {
			visit(lo + i)
		}
	}
}

// intImages projects join keys onto an Int column's payloads, or a Date
// column's epoch days. joinKeyOf folds Int and Float into one float64 image,
// so an int64 test is exact only for keys strictly inside ±2^53: beyond that
// several ints share an image (and join each other), and exact is false.
// Fractions and keys of another kind equal no payload and are left out.
func intImages(keys map[joinKey]int32, kind value.Kind) (images keyImages[int64], exact bool) {
	const lim = 1 << 53
	for k := range keys {
		switch {
		case kind == value.Date && k.kind == 'd':
			images.add(int64(k.bits) / 86400)
		case kind == value.Int && k.kind == 'f':
			f := math.Float64frombits(k.bits)
			if !(f > -lim && f < lim) {
				return images, false
			}
			if f == math.Trunc(f) {
				images.add(int64(f))
			}
		}
	}
	return images, true
}

// codeImages projects text join keys onto col's dictionary codes; a string
// the dictionary never saw equals no row.
func codeImages(keys map[joinKey]int32, col storage.Col) (images keyImages[uint32]) {
	for k := range keys {
		if k.kind != 't' {
			continue
		}
		if code, ok := col.DictCode(k.str); ok {
			images.add(code)
		}
	}
	return images
}

// loopInner lists the positions of step si's table that survive its
// self-filters (see buildSel) — the prefiltered inner side of a nested-loop
// join, each zone selected in the list's own free tail. Shared by the batch
// join pipeline and the fused aggregation pipeline.
func (pq *plannedQuery) loopInner(si int, tbl *storage.Table, keep []bool) []int32 {
	n := tbl.Len()
	inner := make([]int32, 0, n)
	for lo := 0; lo < n; lo += storage.ZoneRows {
		hi := min(lo+storage.ZoneRows, n)
		kept := pq.buildSel(si, keep, inner[len(inner):hi], lo, hi)
		inner = inner[:len(inner)+len(kept)]
	}
	return inner
}

// runJoinStep extends every current row with matches from the step's table:
// the access path finds row i's matches, joinRows emits them.
func (ex *Engine) runJoinStep(pq *plannedQuery, si int, st *planner.Step, cur [][]value.Value) ([][]value.Value, error) {
	tbl := st.Input.Tbl
	self, post := pq.steps[si].self, pq.steps[si].post

	var match func(ec *evalCtx, out *[][]value.Value, i int) error
	switch st.Access {
	case planner.JoinHash:
		// Build (serial), on whichever side is smaller: the filtered table, or
		// the rows so far. Either way the probe below walks one chain per outer
		// row, so rows come out in outer order, then ascending table position.
		keep, err := pq.buildKeep(si, st)
		if err != nil {
			return nil, err
		}
		var chain joinChain
		if len(cur) < tbl.Len() {
			chain, err = pq.buildChainFromOuter(si, st, keep, cur)
		} else {
			chain, err = pq.buildChain(si, st, keep)
		}
		if err != nil {
			return nil, err
		}
		probeSlot := st.ProbeSlot
		match = func(ec *evalCtx, out *[][]value.Value, i int) error {
			k, ok := joinKeyOf(cur[i][probeSlot])
			if !ok {
				return nil
			}
			for p := chain.head[k]; p != 0; p = chain.next[p-1] {
				if err := ec.emit(out, cur[i], st, chain.row(p-1), post); err != nil {
					return err
				}
			}
			return nil
		}

	case planner.JoinPK:
		match = func(ec *evalCtx, out *[][]value.Value, i int) error {
			if !ec.probeKey(cur[i], st.ProbeSlots) {
				return nil
			}
			pos, ok := tbl.LookupPKPos(ec.keyBuf)
			if !ok || !pq.kept(si, pos) {
				return nil
			}
			return ec.emit(out, cur[i], st, int32(pos), self, post)
		}

	default: // JoinLoop — prefilter the inner side once, then cross.
		keep, err := pq.buildKeep(si, st)
		if err != nil {
			return nil, err
		}
		inner := pq.loopInner(si, tbl, keep)
		match = func(ec *evalCtx, out *[][]value.Value, i int) error {
			for _, ti := range inner {
				if err := ec.emit(out, cur[i], st, ti, post); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return ex.joinRows(pq, st, cur, match)
}

// probeKey encodes base's primary-key probe key from the given slots into
// ec.keyBuf; false for a NULL part, which matches nothing.
func (ec *evalCtx) probeKey(base []value.Value, slots []int) bool {
	ec.keyBuf = ec.keyBuf[:0]
	for _, slot := range slots {
		v := base[slot]
		if v.IsNull() {
			return false
		}
		ec.keyBuf = v.AppendKey(ec.keyBuf)
	}
	return true
}

// joinRows runs match over every current row, in order-preserving worker
// chunks, and applies an outer join's emission rule. A LEFT step emits, for an
// outer row that kept no match, that row padded with NULLs in its place. A
// RIGHT step flags every table row it emits — atomically, since workers may
// match the same row — and afterwards emits the unflagged rows in ascending
// position, NULL in every slot before the step's own.
func (ex *Engine) joinRows(pq *plannedQuery, st *planner.Step, cur [][]value.Value, match func(ec *evalCtx, out *[][]value.Value, i int) error) ([][]value.Value, error) {
	var matched []atomic.Bool
	if st.Join == sqlparser.JoinRight {
		matched = make([]atomic.Bool, st.Input.Tbl.Len())
	}
	width := len(st.Input.Rel.Attributes)
	out, err := ex.gatherRows(pq, st, len(cur), func(ec *evalCtx, lo, hi int, out *[][]value.Value) error {
		ec.matched = matched
		for i := lo; i < hi; i++ {
			n := len(*out)
			if err := match(ec, out, i); err != nil {
				return err
			}
			if st.Join == sqlparser.JoinLeft && len(*out) == n {
				r := ec.rows.peek()
				copy(r, cur[i])
				clear(r[st.Offset : st.Offset+width])
				ec.rows.commit()
				*out = append(*out, r)
			}
		}
		return nil
	})
	if err != nil || matched == nil {
		return out, err
	}
	ec, kept := pq.newCtx(), len(out)
	for ti := range matched {
		if ti&storage.ZoneMask == 0 {
			if err := ex.bud.Step(0); err != nil {
				return nil, err
			}
		}
		if matched[ti].Load() {
			continue
		}
		r := ec.rows.peek()
		clear(r)
		st.Input.Tbl.CopyRow(r[st.Offset:st.Offset+width], ti)
		ec.rows.commit()
		out = append(out, r)
	}
	return out, growRows(ex.bud, out[kept:])
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

// planFor builds the plan for the flattened FROM entries. hasOuter reports an
// enclosing scope whose bindings may satisfy otherwise unresolvable column
// references (correlated subqueries).
func (ex *Engine) planFor(sel *sqlparser.SelectStmt, entries []fromEntry, hasOuter bool) *planner.Plan {
	inputs := make([]planner.Input, len(entries))
	for i, e := range entries {
		inputs[i] = planner.Input{Alias: e.alias, Rel: e.rel, Tbl: e.tbl, Join: e.joinKind, On: e.joinOn}
	}
	return planner.Build(sel, inputs, hasOuter)
}

// execPlanned runs a plan end to end: the join pipeline, then
// aggregation or projection, DISTINCT, ORDER BY (full sort or a bounded
// top-K heap), and LIMIT — all over flat slot-addressed rows.
func (ex *Engine) execPlanned(sel *sqlparser.SelectStmt, entries []fromEntry, plan *planner.Plan, outer *outerScope, earlyLimit int, grouped bool) (*Result, error) {
	pq := ex.compilePlan(plan, outer)
	if grouped {
		// Grouped queries inside the fused dialect run the scan→join→aggregate
		// pipeline over typed accumulators, never materializing a joined row;
		// the rest feed the aggregator the joined rows.
		if res, ok, err := ex.tryVecAgg(sel, entries, pq); ok {
			return res, err
		}
	}
	limit := -1
	if !grouped {
		limit = pq.rowLimit(sel, earlyLimit)
	}
	cur, err := ex.runPipeline(pq, limit)
	if err != nil {
		return nil, err
	}
	items, cols, err := expandItems(sel, entries)
	if err != nil {
		return nil, err
	}
	if grouped {
		return ex.aggregateRows(sel, entries, pq, &cur, items, cols)
	}
	return ex.execPlannedFlat(sel, pq, &cur, items, cols, limit)
}

// rowLimit is how many rows an ungrouped query projects: without ORDER BY or
// DISTINCT the first rows are the answer, so LIMIT (and a caller's bound)
// pushes down; -1 when every row is projected. The interpreter projects every
// joined row before truncating, so the LIMIT may stop the projection only
// when no select item can error past the bound — otherwise a planned run
// would swallow an error the interpreter raises. The caller's bound
// (subquery probes) mirrors the interpreter's early exit exactly, including
// its sel.Limit < 0 guard.
func (pq *plannedQuery) rowLimit(sel *sqlparser.SelectStmt, earlyLimit int) int {
	switch {
	case len(sel.OrderBy) > 0 || sel.Distinct:
		return -1
	case sel.Limit < 0:
		return earlyLimit
	}
	for _, it := range sel.Items {
		switch x := it.Expr.(type) {
		case *sqlparser.Literal, *sqlparser.Star:
		case *sqlparser.ColumnRef:
			// A slot read cannot fail; a failing lookup can.
			if _, ok := pq.slotOf(x); !ok && x.Column != "*" {
				return -1
			}
		default:
			return -1
		}
	}
	return sel.Limit
}

// execPlannedFlat projects the pipeline's rows through compiled item
// evaluators straight into the result — one slab, sized to the rows it will
// hold, at most limit of them when limit >= 0 (see rowLimit) — and shapes it.
func (ex *Engine) execPlannedFlat(sel *sqlparser.SelectStmt, pq *plannedQuery, cur *rowSet, items []sqlparser.SelectItem, cols []string, limit int) (*Result, error) {
	evals := make([]rowEval, len(items))
	for i, it := range items {
		evals[i] = pq.compile(it.Expr)
	}
	n := cur.len()
	if limit >= 0 {
		n = min(n, limit)
	}
	w := len(items)
	if err := ex.bud.Grow(n * w * slotBytes); err != nil {
		return nil, err
	}
	out := &Result{Columns: cols, Rows: make([]storage.Tuple, n)}
	flat := make([]value.Value, n*w)
	ec := pq.newCtx()
	for i := range out.Rows {
		row := cur.row(ec, i)
		r := flat[i*w : (i+1)*w : (i+1)*w]
		for j, ev := range evals {
			v, err := ev(ec, row)
			if err != nil {
				return nil, err
			}
			r[j] = v
		}
		out.Rows[i] = r
	}
	// The pipeline's rows stay aligned with out.Rows (no early exit is
	// possible when an ORDER BY is present), so expression sort keys evaluate
	// over the row backing each output row.
	keyOf := func(i int, k *plannedSortKey) (value.Value, error) {
		if k.col >= 0 {
			return out.Rows[i][k.col], nil
		}
		return k.eval(ec, cur.row(ec, i))
	}
	return ex.shapeResult(sel, pq, out, pq.flatOrderKeys(sel, items), keyOf)
}

// flatOrderKeys resolves ORDER BY items for the ungrouped planned path:
// ordinals and select-list matches read output columns; other expressions
// compile over the joined row. Resolution errors are deferred — they surface
// only when there are rows to sort, matching the interpreter.
func (pq *plannedQuery) flatOrderKeys(sel *sqlparser.SelectStmt, items []sqlparser.SelectItem) []plannedSortKey {
	keys := make([]plannedSortKey, len(sel.OrderBy))
	for j, o := range sel.OrderBy {
		keys[j] = plannedSortKey{col: -1, desc: o.Desc}
		if col, ok, err := orderTarget(o, items); err != nil {
			keys[j].err = err
			continue
		} else if ok {
			keys[j].col = col
			continue
		}
		if sel.Distinct {
			// Row/env alignment is lost after dedup in the interpreter, and
			// the planned path mirrors its error.
			keys[j].err = fmt.Errorf("engine: ORDER BY expression %s is not in the select list", o.Expr.SQL())
			continue
		}
		keys[j].eval = pq.compile(o.Expr)
	}
	return keys
}

// ---------------------------------------------------------------------------
// Public planner API
// ---------------------------------------------------------------------------

// Plan builds (without executing) the plan the engine would use for sel,
// compiled as far as an execution compiles it before its first row: the shape
// carries the zone-skip, parallel-scan and vec-aggregate steps a run would
// report.
func (ex *Engine) Plan(sel *sqlparser.SelectStmt) (*planner.Plan, error) {
	entries, err := ex.flattenFrom(sel.From)
	if err != nil {
		return nil, err
	}
	plan := ex.planFor(sel, entries, false)
	pq := ex.compilePlan(plan, nil)
	if sel.Grouped() {
		pq.compileVecAgg(sel, entries)
	}
	return plan, nil
}

// SelectExplained executes sel and returns both the result and the executed
// plan with per-step actual row counts — the EXPLAIN PLAN backbone.
func (ex *Engine) SelectExplained(sel *sqlparser.SelectStmt) (*Result, *planner.Plan, error) {
	return ex.execSelectExplained(sel, nil, -1)
}
