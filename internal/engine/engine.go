package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Engine executes SQL statements against a storage.Database.
//
// Concurrency: an Engine is safe for concurrent queries (Query/Select/Exec
// of SELECTs) — the view registry is lock-protected and query evaluation
// never mutates engine or AST state. Reads resolve tables through src, which
// is either the live database (each statement reads what the statements
// before it committed, never its own partial writes) or a pinned
// storage.Snapshot (At); snapshot-bound engines run the whole planned
// pipeline against immutable frozen tables, so any number of them execute
// concurrently with a committing writer. DML always goes to the live database
// and follows the storage layer's contract.
type Engine struct {
	db  *storage.Database
	src storage.TableSource
	st  *engineState
	bud *Budget // per-request budget; nil = unbounded (see cancel.go)
}

// engineState is the mutable configuration shared between the root engine
// and its snapshot-bound clones: one view registry and one worker cap,
// whichever surface a statement arrives through.
type engineState struct {
	vmu   sync.RWMutex
	views map[string]*sqlparser.SelectStmt

	// par caps the worker fan-out of parallel join/scan steps; 0 means
	// GOMAXPROCS, 1 forces serial execution.
	par atomic.Int32

	// noZoneMaps and oracle are false and nil in production. Only the
	// engine's tests set them (export_test.go), to hold one execution to
	// another: noZoneMaps makes scans test every row against plain payloads,
	// and oracle answers every SELECT (subqueries and view bodies included),
	// every UPDATE/DELETE WHERE and every UPDATE SET and INSERT VALUES
	// expression on the interpreter instead of a plan.
	noZoneMaps atomic.Bool
	oracle     atomic.Pointer[oracle]
}

// oracle is the test-installed interpreter (see engineState.oracle).
type oracle struct {
	selectRows func(ex *Engine, sel *sqlparser.SelectStmt, entries []fromEntry, earlyLimit int) (*Result, error)
	positions  func(ex *Engine, tbl *storage.Table, alias string, where sqlparser.Expr) ([]int, error)
	set        func(pq *plannedQuery, e sqlparser.Expr) rowEval
}

// New creates an engine over db.
func New(db *storage.Database) *Engine {
	return &Engine{db: db, src: db, st: &engineState{views: make(map[string]*sqlparser.SelectStmt)}}
}

// At returns a reader engine bound to the given snapshot: every table
// resolution, statistic, and zone probe reads the snapshot's frozen state,
// while views and the worker cap stay shared with the root engine. The
// clone is cheap (three words) — core pins a snapshot per question and
// discards the clone after answering.
func (ex *Engine) At(snap *storage.Snapshot) *Engine {
	return &Engine{db: ex.db, src: snap, st: ex.st, bud: ex.bud}
}

// Source returns the read surface this engine resolves tables through — the
// live database, or the pinned snapshot for an At clone.
func (ex *Engine) Source() storage.TableSource { return ex.src }

// Database exposes the underlying database.
func (ex *Engine) Database() *storage.Database { return ex.db }

// Result is the answer of a SELECT: column names plus rows.
type Result struct {
	Columns []string
	Rows    []storage.Tuple
}

// String renders the result as an aligned text table for CLI output.
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range r.Columns {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Query parses and executes a SELECT statement.
func (ex *Engine) Query(src string) (*Result, error) {
	sel, err := sqlparser.ParseSelect(src)
	if err != nil {
		return nil, err
	}
	return ex.Select(sel)
}

// Select executes a parsed SELECT statement.
func (ex *Engine) Select(sel *sqlparser.SelectStmt) (*Result, error) {
	return ex.execSelect(sel)
}

// Exec parses and executes any statement; for SELECT it returns the result,
// for DML the number of affected rows in count, for DDL (0, nil).
func (ex *Engine) Exec(src string) (res *Result, count int, err error) {
	stmt, err := sqlparser.Parse(src)
	if err != nil {
		return nil, 0, err
	}
	return ex.ExecStatement(stmt)
}

// ExecStatement executes an already-parsed statement (see Exec); callers
// with a cached AST use it to skip re-parsing. The statement is not
// mutated.
func (ex *Engine) ExecStatement(stmt sqlparser.Statement) (res *Result, count int, err error) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		r, err := ex.execSelect(s)
		return r, 0, err
	case *sqlparser.InsertStmt:
		n, err := ex.execInsert(s)
		return nil, n, err
	case *sqlparser.UpdateStmt:
		n, err := ex.execUpdate(s)
		return nil, n, err
	case *sqlparser.DeleteStmt:
		n, err := ex.execDelete(s)
		return nil, n, err
	case *sqlparser.ExplainStmt:
		if _, plan, err := ex.SelectExplained(s.Query); err == nil {
			return explainResult(plan), 0, nil
		} else {
			return nil, 0, err
		}
	case *sqlparser.CreateViewStmt:
		return nil, 0, ex.CreateView(s.Name, s.Query)
	case *sqlparser.CreateTableStmt:
		return nil, 0, fmt.Errorf("engine: CREATE TABLE must be applied through the catalog (use dataset builders)")
	default:
		return nil, 0, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// CreateView registers a named view expanded at reference time. Safe for
// concurrent use.
func (ex *Engine) CreateView(name string, q *sqlparser.SelectStmt) error {
	key := strings.ToLower(name)
	if ex.db.Table(name) != nil {
		return fmt.Errorf("engine: view %q collides with a table", name)
	}
	ex.st.vmu.Lock()
	defer ex.st.vmu.Unlock()
	if _, dup := ex.st.views[key]; dup {
		return fmt.Errorf("engine: duplicate view %q", name)
	}
	ex.st.views[key] = q
	return nil
}

// View returns the definition of a named view, or nil. Safe for concurrent
// use; callers treat the returned AST as immutable.
func (ex *Engine) View(name string) *sqlparser.SelectStmt {
	ex.st.vmu.RLock()
	defer ex.st.vmu.RUnlock()
	return ex.st.views[strings.ToLower(name)]
}

// ---------------------------------------------------------------------------
// SELECT execution
// ---------------------------------------------------------------------------

// fromEntry is one flattened FROM element; a view reference reads the table
// its body was materialized into.
type fromEntry struct {
	rel      *catalog.Relation
	tbl      *storage.Table
	alias    string
	joinKind sqlparser.JoinKind
	joinOn   sqlparser.Expr // only for explicit joins
}

func (ex *Engine) execSelect(sel *sqlparser.SelectStmt) (*Result, error) {
	return ex.execSelectBounded(sel, nil, -1)
}

// execSelectBounded runs a query, a subquery when outer is set; earlyLimit >=
// 0 caps its output early (EXISTS and scalar subqueries).
func (ex *Engine) execSelectBounded(sel *sqlparser.SelectStmt, outer *outerScope, earlyLimit int) (*Result, error) {
	res, _, err := ex.execSelectExplained(sel, outer, earlyLimit)
	return res, err
}

// execSelectExplained is execSelectBounded plus the plan that produced the
// result, with actual row counts filled in.
func (ex *Engine) execSelectExplained(sel *sqlparser.SelectStmt, outer *outerScope, earlyLimit int) (*Result, *planner.Plan, error) {
	if err := ex.bud.Step(0); err != nil {
		return nil, nil, err
	}
	entries, err := ex.flattenFrom(sel.From)
	if err != nil {
		return nil, nil, err
	}
	if o := ex.st.oracle.Load(); o != nil {
		res, err := o.selectRows(ex, sel, entries, earlyLimit)
		return res, nil, err
	}
	plan := ex.planFor(sel, entries, outer != nil)
	out, err := ex.execPlanned(sel, entries, plan, outer, earlyLimit, sel.Grouped())
	if err != nil {
		return nil, nil, err
	}
	return out, plan, nil
}

// explainResult renders an executed plan as a tabular Result — the output
// of the EXPLAIN PLAN statement.
func explainResult(plan *planner.Plan) *Result {
	out := &Result{Columns: []string{"step", "access", "target", "detail", "estimated_rows", "actual_rows", "cost"}}
	s := plan.Summarize()
	for i, st := range s.Steps {
		detail := st.JoinKey
		if st.Join != "" {
			if detail != "" {
				detail = " on " + detail
			}
			detail = st.Join + " outer join" + detail
		}
		if len(st.Filters) > 0 {
			if detail != "" {
				detail += "; "
			}
			detail += "filter " + strings.Join(st.Filters, " and ")
		}
		var detailVal value.Value
		if detail != "" {
			detailVal = value.NewText(detail)
		} else {
			detailVal = value.NewNull()
		}
		out.Rows = append(out.Rows, storage.Tuple{
			value.NewInt(int64(i + 1)),
			value.NewText(st.Access),
			value.NewText(st.Relation + " " + st.Alias),
			detailVal,
			value.NewFloat(round2(st.EstRows)),
			value.NewInt(int64(st.ActualRows)),
			value.NewFloat(round2(st.EstCost)),
		})
	}
	for _, r := range s.Residual {
		out.Rows = append(out.Rows, storage.Tuple{
			value.NewInt(int64(len(out.Rows) + 1)),
			value.NewText("residual filter"),
			value.NewText(r),
			value.NewNull(),
			value.NewNull(),
			value.NewInt(int64(plan.ActualRows)),
			value.NewNull(),
		})
	}
	for _, sh := range s.Shape {
		actual := value.NewNull()
		if sh.ActualRows >= 0 {
			actual = value.NewInt(int64(sh.ActualRows))
		}
		out.Rows = append(out.Rows, storage.Tuple{
			value.NewInt(int64(len(out.Rows) + 1)),
			value.NewText(sh.Kind),
			value.NewText("(result shaping)"),
			value.NewText(sh.Detail),
			value.NewFloat(round2(sh.EstRows)),
			actual,
			value.NewNull(),
		})
	}
	return out
}

func round2(f float64) float64 {
	return math.Round(f*100) / 100
}

// flattenFrom resolves FROM items (including explicit JOIN chains and view
// references) into a flat entry list.
func (ex *Engine) flattenFrom(from []*sqlparser.TableRef) ([]fromEntry, error) {
	var entries []fromEntry
	seen := map[string]bool{}
	var add func(t *sqlparser.TableRef, kind sqlparser.JoinKind, on sqlparser.Expr) error
	add = func(t *sqlparser.TableRef, kind sqlparser.JoinKind, on sqlparser.Expr) error {
		e := fromEntry{alias: t.Name(), joinKind: kind, joinOn: on, tbl: ex.src.Table(t.Relation)}
		if e.tbl == nil {
			v := ex.View(t.Relation)
			if v == nil {
				return fmt.Errorf("engine: unknown relation %q", t.Relation)
			}
			var err error
			if e.tbl, err = ex.materializeView(t.Relation, v); err != nil {
				return err
			}
		}
		e.rel = e.tbl.Relation()
		key := strings.ToLower(e.alias)
		if seen[key] {
			return fmt.Errorf("engine: duplicate tuple variable %q", e.alias)
		}
		seen[key] = true
		entries = append(entries, e)
		if t.Join != nil {
			return add(t.Join.Right, t.Join.Kind, t.Join.On)
		}
		return nil
	}
	for _, t := range from {
		if err := add(t, sqlparser.JoinInner, nil); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// materializeView runs the view's body through the engine and loads the rows
// into a detached table, which the plan then reads like any other. Each
// column takes the one kind its values have — Text when all are NULL, the
// type a view column always had — and a column whose values mix kinds, which
// no column vector can hold, is refused.
func (ex *Engine) materializeView(name string, q *sqlparser.SelectStmt) (*storage.Table, error) {
	res, err := ex.execSelect(q)
	if err != nil {
		return nil, fmt.Errorf("engine: materializing view %s: %v", name, err)
	}
	rel := &catalog.Relation{Name: name}
	for i, c := range res.Columns {
		kind := value.Null
		for _, row := range res.Rows {
			switch k := row[i].Kind(); {
			case k == value.Null || k == kind:
			case kind == value.Null:
				kind = k
			default:
				return nil, fmt.Errorf("engine: view %s: column %s mixes %s and %s values", name, c, kind, k)
			}
		}
		typ := catalog.Text
		for _, t := range []catalog.Type{catalog.Int, catalog.Float, catalog.Date, catalog.Bool} {
			if value.CatalogKind(t) == kind {
				typ = t
			}
		}
		rel.Attributes = append(rel.Attributes, &catalog.Attribute{Name: c, Type: typ})
	}
	return storage.DetachedTable(rel, res.Rows)
}

// ---------------------------------------------------------------------------
// Projection
// ---------------------------------------------------------------------------

// expandItems resolves *, alias.* and returns the final select items plus
// output column names.
func expandItems(sel *sqlparser.SelectStmt, entries []fromEntry) ([]sqlparser.SelectItem, []string, error) {
	var items []sqlparser.SelectItem
	var cols []string
	for _, it := range sel.Items {
		switch x := it.Expr.(type) {
		case *sqlparser.Star:
			for _, e := range entries {
				for _, a := range e.rel.Attributes {
					items = append(items, sqlparser.SelectItem{Expr: &sqlparser.ColumnRef{Table: e.alias, Column: a.Name}})
					cols = append(cols, a.Name)
				}
			}
		case *sqlparser.ColumnRef:
			if x.Column == "*" {
				found := false
				for _, e := range entries {
					if strings.EqualFold(e.alias, x.Table) {
						for _, a := range e.rel.Attributes {
							items = append(items, sqlparser.SelectItem{Expr: &sqlparser.ColumnRef{Table: e.alias, Column: a.Name}})
							cols = append(cols, a.Name)
						}
						found = true
						break
					}
				}
				if !found {
					return nil, nil, fmt.Errorf("engine: unknown tuple variable %q", x.Table)
				}
				continue
			}
			items = append(items, it)
			cols = append(cols, itemName(it))
		default:
			items = append(items, it)
			cols = append(cols, itemName(it))
		}
	}
	return items, cols, nil
}

func itemName(it sqlparser.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*sqlparser.ColumnRef); ok {
		return c.Column
	}
	return it.Expr.SQL()
}

// resolveIn resolves a column reference among n FROM entries by SQL's rules
// for one scope: a qualified name takes the first entry, in FROM order, whose
// alias or relation matches, and an unqualified name must be an attribute of
// exactly one entry. entry(i) is entry i's alias and relation, ok=false for
// an entry out of scope. i < 0 with a nil error means no entry binds the
// name; err is a matched relation without the attribute, or an ambiguous
// name.
func resolveIn(ref *sqlparser.ColumnRef, n int, entry func(i int) (alias string, rel *catalog.Relation, ok bool)) (i, pos int, err error) {
	i = -1
	for j := 0; j < n; j++ {
		alias, rel, ok := entry(j)
		if !ok {
			continue
		}
		if ref.Table != "" {
			if !strings.EqualFold(alias, ref.Table) && !strings.EqualFold(rel.Name, ref.Table) {
				continue
			}
			if pos = rel.AttrIndex(ref.Column); pos < 0 {
				return -1, 0, fmt.Errorf("engine: relation %s has no attribute %q", rel.Name, ref.Column)
			}
			return j, pos, nil
		}
		if p := rel.AttrIndex(ref.Column); p >= 0 {
			if i >= 0 {
				return -1, 0, fmt.Errorf("engine: ambiguous column %q", ref.Column)
			}
			i, pos = j, p
		}
	}
	return i, pos, nil
}

// grouping is a grouped query's GROUP BY list, each expression's SQL text
// rendered once, for matching the expressions of HAVING, the select list and
// ORDER BY against it.
type grouping struct {
	exprs   []sqlparser.Expr
	sqls    []string
	entries []fromEntry
}

func newGrouping(sel *sqlparser.SelectStmt, entries []fromEntry) *grouping {
	g := &grouping{exprs: sel.GroupBy, sqls: make([]string, len(sel.GroupBy)), entries: entries}
	for j, x := range sel.GroupBy {
		g.sqls[j] = x.SQL()
	}
	return g
}

// index matches e against the GROUP BY expressions: textually identical, or
// a column reference resolving to the same attribute (so `year` matches
// `group by m.year`).
func (g *grouping) index(e sqlparser.Expr) (int, bool) {
	if len(g.exprs) == 0 {
		return 0, false
	}
	eSQL := e.SQL()
	eRef, eIsRef := e.(*sqlparser.ColumnRef)
	for j, x := range g.exprs {
		if g.sqls[j] == eSQL {
			return j, true
		}
		if !eIsRef {
			continue
		}
		xRef, ok := x.(*sqlparser.ColumnRef)
		if !ok {
			continue
		}
		entry := func(i int) (string, *catalog.Relation, bool) { return g.entries[i].alias, g.entries[i].rel, true }
		ei, ep, eerr := resolveIn(eRef, len(g.entries), entry)
		xi, xp, xerr := resolveIn(xRef, len(g.entries), entry)
		if eerr == nil && xerr == nil && ei >= 0 && ei == xi && ep == xp {
			return j, true
		}
	}
	return 0, false
}

// check enforces the standard-SQL grouping rule: in a grouped query, a
// column reference is legal only inside an aggregate or when the enclosing
// expression appears in GROUP BY. Subquery subtrees are exempt — their outer
// scope is the group's representative row, which is how correlated HAVING
// subqueries reference grouping columns.
func (g *grouping) check(e sqlparser.Expr) error {
	var bad *sqlparser.ColumnRef
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if bad != nil {
			return false
		}
		if _, ok := g.index(x); ok {
			return false
		}
		switch n := x.(type) {
		case *sqlparser.AggregateExpr:
			return false // aggregate arguments range over the group's rows
		case *sqlparser.ColumnRef:
			if n.Column == "*" {
				return false
			}
			bad = n
			return false
		}
		return true
	})
	if bad != nil {
		return fmt.Errorf("engine: column %s must appear in GROUP BY or an aggregate", bad.SQL())
	}
	return nil
}

// orderOrdinal resolves the SQL ordinal form `ORDER BY <n>`: a bare integer
// literal names the n-th select-list column (1-based). Other literals stay
// constant sort keys; out-of-range ordinals are an error.
func orderOrdinal(o sqlparser.OrderItem, n int) (int, bool, error) {
	lit, ok := o.Expr.(*sqlparser.Literal)
	if !ok || lit.Value.Kind() != value.Int {
		return 0, false, nil
	}
	p := lit.Value.Int()
	if p < 1 || p > int64(n) {
		return 0, false, fmt.Errorf("engine: ORDER BY position %d is not in the select list", p)
	}
	return int(p) - 1, true, nil
}

// orderTarget resolves an ORDER BY item to a select-list column: the SQL
// ordinal form first, then alias/name/expression matching. A non-nil error
// is an out-of-range ordinal; ok=false with a nil error means the item is
// an expression each pipeline evaluates its own way.
func orderTarget(o sqlparser.OrderItem, items []sqlparser.SelectItem) (int, bool, error) {
	if col, ok, err := orderOrdinal(o, len(items)); err != nil {
		return 0, false, err
	} else if ok {
		return col, true, nil
	}
	if col, ok := orderColumnTarget(o, items); ok {
		return col, true, nil
	}
	return 0, false, nil
}

// orderColumnTarget matches an ORDER BY expression to a select-list column:
// by alias or column name, then by identical expression text.
func orderColumnTarget(o sqlparser.OrderItem, items []sqlparser.SelectItem) (int, bool) {
	if c, ok := o.Expr.(*sqlparser.ColumnRef); ok {
		for i, it := range items {
			if strings.EqualFold(itemName(it), c.Column) && (c.Table == "" || aliasMatches(it, c)) {
				return i, true
			}
		}
	}
	oSQL := o.Expr.SQL()
	for i, it := range items {
		if it.Expr.SQL() == oSQL {
			return i, true
		}
	}
	return 0, false
}

func aliasMatches(it sqlparser.SelectItem, c *sqlparser.ColumnRef) bool {
	ic, ok := it.Expr.(*sqlparser.ColumnRef)
	return ok && strings.EqualFold(ic.Table, c.Table)
}

func distinctRows(rows []storage.Tuple) []storage.Tuple {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	var keyBuf []byte // reused; value.AppendKey keys cannot collide across adjacent values
	for _, r := range rows {
		keyBuf = keyBuf[:0]
		for _, v := range r {
			keyBuf = v.AppendKey(keyBuf)
		}
		if !seen[string(keyBuf)] {
			seen[string(keyBuf)] = true
			out = append(out, r)
		}
	}
	return out
}
