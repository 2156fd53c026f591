package engine

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// execInsert runs INSERT ... VALUES or INSERT ... SELECT as one storage
// call. Every row is evaluated first — the VALUES expressions, polling the
// budget per row, or the source SELECT — so the expressions read the table
// as it stood before the statement, and the evaluated rows then apply with
// one InsertRows: one WAL record, one published version. A budget trip can
// only land before that call, so a cancelled INSERT leaves no trace in
// memory or in the log. An evaluation error stops the evaluation at its row:
// the rows before it still apply, and the error is returned unless applying
// them failed. Rows applied before a constraint failure remain in the table
// and the log (the storage layer's partial-apply rule). Once the call is
// made the statement commits even if the deadline has passed — the
// loss-free contract is "commits through the WAL or leaves no trace", never
// half of each.
func (ex *Engine) execInsert(stmt *sqlparser.InsertStmt) (int, error) {
	tbl := ex.db.Table(stmt.Relation)
	if tbl == nil {
		return 0, fmt.Errorf("engine: unknown relation %q", stmt.Relation)
	}
	rel := tbl.Relation()

	// Map statement columns to attribute positions; default is declaration
	// order over all attributes.
	var positions []int
	if len(stmt.Columns) > 0 {
		positions = make([]int, len(stmt.Columns))
		for i, c := range stmt.Columns {
			p := rel.AttrIndex(c)
			if p < 0 {
				return 0, fmt.Errorf("engine: relation %s has no attribute %q", rel.Name, c)
			}
			positions[i] = p
		}
	} else {
		positions = make([]int, len(rel.Attributes))
		for i := range rel.Attributes {
			positions[i] = i
		}
	}

	// The rows to insert: the source SELECT's, or the VALUES rows, evaluated
	// one at a time into vals. VALUES expressions compile over the FROM-less
	// plan `select <exprs>` runs: no FROM entry and no outer scope binds a
	// name, and its one row is empty.
	var (
		selected []storage.Tuple
		compile  func(sqlparser.Expr) rowEval
		ec       *evalCtx
		vals     []value.Value
	)
	count := len(stmt.Rows)
	if stmt.Query != nil {
		res, err := ex.execSelect(stmt.Query)
		if err != nil {
			return 0, err // source SELECT failed or was cancelled: nothing applied
		}
		selected, count = res.Rows, len(res.Rows)
	} else {
		pq := ex.compilePlan(ex.planFor(&sqlparser.SelectStmt{Limit: -1}, nil, false), nil)
		compile, ec = ex.dmlCompiler(pq), pq.newCtx()
	}

	// The evaluated tuples share one backing array, and a one-row INSERT
	// keeps its row list on the stack.
	width := len(rel.Attributes)
	flat := make([]value.Value, count*width)
	var one [1]storage.Tuple
	rows := one[:0]
	var evalErr error
	for i := 0; i < count; i++ {
		if evalErr = ex.bud.Tick(i); evalErr != nil {
			break
		}
		if selected != nil {
			vals = selected[i]
		} else {
			row := stmt.Rows[i]
			if cap(vals) < len(row) {
				vals = make([]value.Value, len(row))
			}
			vals = vals[:len(row)]
			for j, e := range row {
				if vals[j], evalErr = compile(e)(ec, []value.Value{}); evalErr != nil {
					break
				}
			}
			if evalErr != nil {
				break
			}
		}
		if len(vals) != len(positions) {
			evalErr = fmt.Errorf("engine: INSERT into %s expects %d values, got %d", rel.Name, len(positions), len(vals))
			break
		}
		tup := storage.Tuple(flat[i*width : (i+1)*width : (i+1)*width])
		for j := range tup {
			tup[j] = value.NewNull()
		}
		for j, p := range positions {
			tup[p] = vals[j]
		}
		rows = append(rows, tup)
	}
	if len(rows) == 0 || evalErr != nil && IsCancel(evalErr) {
		return 0, evalErr
	}
	n, err := ex.db.InsertRows(ex.bud.Context(), rel.Name, rows)
	if err != nil {
		return n, err
	}
	return n, evalErr
}

// execUpdate runs UPDATE ... SET ... WHERE; SET expressions may reference
// the current tuple. The statement is one storage call (see execInsert).
//
// The WHERE is resolved to row positions before any row mutates (see
// dmlPositions): a budget trip or an evaluation error there returns with the
// table untouched. Each SET expression is then evaluated once per matched
// row, over one reused scratch row, into one run of new values per set
// attribute, and the runs apply with one UpdateAt. Past that point the
// statement commits what it applied: a constraint failure stops it at that
// row with the earlier rows updated and logged, and a row whose SET
// expression fails is left as it was while the rest are updated.
func (ex *Engine) execUpdate(stmt *sqlparser.UpdateStmt) (int, error) {
	tbl := ex.db.Table(stmt.Relation)
	if tbl == nil {
		return 0, fmt.Errorf("engine: unknown relation %q", stmt.Relation)
	}
	rel := tbl.Relation()
	alias := stmt.Alias
	if alias == "" {
		alias = rel.Name
	}
	setPos := make([]int, len(stmt.Set))
	for i, a := range stmt.Set {
		if setPos[i] = rel.AttrIndex(a.Column); setPos[i] < 0 {
			return 0, fmt.Errorf("engine: relation %s has no attribute %q", rel.Name, a.Column)
		}
	}
	pq, positions, err := ex.dmlPositions(tbl, alias, stmt.Where)
	if err != nil {
		return 0, err
	}

	// The SET expressions compile over the WHERE's single-table plan, whose
	// row layout is the tuple's. A subquery among them reads the database as
	// it stood before the statement, as SQL specifies: from the version
	// pinned here, never the live tables, which the apply below writes. A SET
	// without one pins nothing.
	setPQ := pq
	for _, a := range stmt.Set {
		if len(sqlparser.Subqueries(a.Value)) > 0 {
			pinned := *pq
			pinned.ex = ex.At(ex.db.Snapshot())
			setPQ = &pinned
			break
		}
	}
	compile := ex.dmlCompiler(setPQ)
	set := make([]rowEval, len(stmt.Set))
	for i, a := range stmt.Set {
		set[i] = compile(a.Value)
	}

	// The set attributes in ascending order, and the run each SET item
	// writes: a later SET of one attribute overwrites an earlier one, as
	// assignments in SET order do.
	ints := make([]int, 2*len(setPos))
	attrs, runOf := ints[:len(setPos)], ints[len(setPos):]
	copy(attrs, setPos)
	slices.Sort(attrs)
	attrs = slices.Compact(attrs)
	for i, p := range setPos {
		runOf[i], _ = slices.BinarySearch(attrs, p)
	}
	n := len(positions)
	vals := make([]value.Value, len(attrs)*n)
	// One context, one scratch row and one value scratch serve every row:
	// evaluation never retains them.
	ec := setPQ.newCtx()
	scratch := make([]value.Value, len(rel.Attributes)+len(set))
	row, newVals := storage.Tuple(scratch[:len(rel.Attributes)]), scratch[len(rel.Attributes):]
	type evalFail struct {
		k   int
		err error
	}
	var fails []evalFail
	for k, p := range positions {
		tbl.CopyRow(row, p)
		// Evaluate all RHS before assigning, per SQL simultaneous-update
		// semantics (sal = sal * 2 uses the old sal).
		var evalErr error
		for i, ev := range set {
			if newVals[i], evalErr = ev(ec, row); evalErr != nil {
				break
			}
		}
		if evalErr != nil {
			// This row stays as it is: its runs hold its stored values, and
			// the statement goes on.
			fails = append(fails, evalFail{k, evalErr})
			for c, a := range attrs {
				vals[c*n+k] = row[a]
			}
			continue
		}
		for i, v := range newVals {
			vals[runOf[i]*n+k] = v
		}
	}
	applied, err := ex.db.UpdateAt(ex.bud.Context(), rel.Name, positions, attrs, vals)
	// An evaluation error is reported over a constraint failure, as when
	// each row's SET was evaluated as the check reached it: the last one
	// among the rows the check reached — the applied rows and the one
	// refused, or none when the statement was refused before its first row.
	reached := n
	if applied < n {
		reached = applied + 1
		if errors.Is(err, storage.ErrReadOnlyReplica) || errors.Is(err, storage.ErrWALFailed) {
			reached = 0
		}
	}
	for i := len(fails) - 1; i >= 0; i-- {
		if fails[i].k < reached {
			return applied, fails[i].err
		}
	}
	return applied, err
}

// execDelete runs DELETE FROM ... WHERE as one storage call (see
// execInsert); the WHERE resolves to positions before any row is removed,
// exactly like execUpdate.
func (ex *Engine) execDelete(stmt *sqlparser.DeleteStmt) (int, error) {
	tbl := ex.db.Table(stmt.Relation)
	if tbl == nil {
		return 0, fmt.Errorf("engine: unknown relation %q", stmt.Relation)
	}
	alias := stmt.Alias
	if alias == "" {
		alias = tbl.Relation().Name
	}
	_, positions, err := ex.dmlPositions(tbl, alias, stmt.Where)
	if err != nil {
		return 0, err
	}
	return ex.db.DeleteAt(ex.bud.Context(), tbl.Relation().Name, positions)
}

// dmlCompiler compiles UPDATE SET or INSERT VALUES expressions over pq — on
// the interpreter when the engine's tests installed it.
func (ex *Engine) dmlCompiler(pq *plannedQuery) func(sqlparser.Expr) rowEval {
	if o := ex.st.oracle.Load(); o != nil {
		return func(e sqlparser.Expr) rowEval { return o.set(pq, e) }
	}
	return pq.compile
}

// dmlPositions resolves an UPDATE or DELETE WHERE to the ascending positions
// of the rows it matches in the live table, before any of them mutates. It
// builds the plan `SELECT * FROM rel alias WHERE where` would get, a scan
// step alone, and runs it for the scan's row positions — a primary-key
// probe, or the vectorized filter prefix with zone skipping and the
// compiled residual filters — polling the budget where a SELECT's scan does.
// A budget trip or an evaluation error therefore leaves no trace, with or
// without a budget. The plan is returned for UPDATE's SET to compile over.
//
// Positions stay valid until the apply because engine DML is serialized (core
// holds execMu): nothing else mutates the table in between.
func (ex *Engine) dmlPositions(tbl *storage.Table, alias string, where sqlparser.Expr) (*plannedQuery, []int, error) {
	if err := ex.bud.Step(0); err != nil {
		return nil, nil, err
	}
	sel := &sqlparser.SelectStmt{Where: where, Limit: -1}
	pq := ex.compilePlan(ex.planFor(sel, []fromEntry{{rel: tbl.Relation(), tbl: tbl, alias: alias}}, false), nil)
	if where == nil {
		positions := make([]int, tbl.Len())
		for i := range positions {
			positions[i] = i
		}
		return pq, positions, nil
	}
	if o := ex.st.oracle.Load(); o != nil {
		positions, err := o.positions(ex, tbl, alias, where)
		return pq, positions, err
	}
	cur, err := ex.runPipeline(pq, -1)
	if err != nil {
		return nil, nil, err
	}
	positions := make([]int, len(cur.pos))
	for i, p := range cur.pos {
		positions[i] = int(p)
	}
	return pq, positions, nil
}
