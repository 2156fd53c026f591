package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file is the interpreter: the engine's original, environment-per-row
// executor, kept as the oracle the differential suites hold the planned
// pipeline to. It joins FROM entries left to right with nested loops (and a
// hash lookup for an inner equi-join), binds every tuple variable in an
// environment chain and evaluates every expression with evalExpr, applying
// each WHERE conjunct as soon as its tuple variables are bound (one that reads
// only the entry being joined filters all of that entry's tuples first, as
// the planned pipeline's self-filters do); grouped queries partition those
// environments and evaluate aggregates lazily per group (execGrouped), and
// ORDER BY sorts through them (orderRows). A subquery runs on the interpreter
// too (interpRows), with the environment of the row at hand as its outer
// scope, so no node of an oracle answer is evaluated by production code.
// export_test.go installs it (useOracle); production never runs it.

// interpSelect runs a SELECT on the interpreter.
func interpSelect(ex *Engine, sel *sqlparser.SelectStmt, entries []fromEntry, earlyLimit int) (*Result, error) {
	return interpScope(ex, sel, entries, nil, earlyLimit)
}

// interpRows runs a subquery on the interpreter with outer as its enclosing
// scope, as execSelectBounded runs one: a budget poll, then FROM flattened
// (views materialized), then the query; limit >= 0 caps its rows early.
func (ex *Engine) interpRows(sub *sqlparser.SelectStmt, outer *env, limit int) ([]storage.Tuple, error) {
	if err := ex.bud.Step(0); err != nil {
		return nil, err
	}
	entries, err := ex.flattenFrom(sub.From)
	if err != nil {
		return nil, err
	}
	res, err := interpScope(ex, sub, entries, outer, limit)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// interpScope runs a SELECT on the interpreter under the enclosing scope
// outer, nil at the top.
func interpScope(ex *Engine, sel *sqlparser.SelectStmt, entries []fromEntry, outer *env, earlyLimit int) (*Result, error) {
	envs, err := ex.joinFrom(entries, sqlparser.Conjuncts(sel.Where), outer)
	if err != nil {
		return nil, err
	}
	var out *Result
	var rowEnvs []*env    // aligned with out.Rows for ungrouped queries
	var groups []groupRef // aligned with out.Rows for grouped queries
	if sel.Grouped() {
		out, groups, err = ex.execGrouped(sel, entries, envs)
	} else {
		out, rowEnvs, err = ex.execUngrouped(sel, entries, envs, earlyLimit)
	}
	if err != nil {
		return nil, err
	}
	if sel.Distinct {
		out.Rows = distinctRows(out.Rows)
		rowEnvs, groups = nil, nil // row alignment is lost after dedup
	}
	if len(sel.OrderBy) > 0 {
		if err := ex.orderRows(sel, entries, out, rowEnvs, groups); err != nil {
			return nil, err
		}
	}
	if sel.Limit >= 0 && len(out.Rows) > sel.Limit {
		out.Rows = out.Rows[:sel.Limit]
	}
	return out, nil
}

// interpPositions resolves an UPDATE or DELETE WHERE on the interpreter: it
// evaluates where over every row of tbl with cooperative budget polls.
func interpPositions(ex *Engine, tbl *storage.Table, alias string, where sqlparser.Expr) ([]int, error) {
	rel := tbl.Relation()
	nrows := tbl.Len()
	ex.bud.AddTotal(nrows)
	var positions []int
	scratch := make(storage.Tuple, len(rel.Attributes))
	en := &env{bindings: []binding{{alias: alias, rel: rel, tuple: scratch}}}
	for i := 0; i < nrows; i++ {
		if err := ex.bud.Tick(i); err != nil {
			return nil, err
		}
		tbl.CopyRow(scratch, i)
		v, err := ex.evalExpr(where, en, nil)
		if err != nil {
			return nil, err
		}
		if passes(v) {
			positions = append(positions, i)
		}
	}
	return positions, nil
}

// interpSet evaluates an UPDATE SET or INSERT VALUES expression on the
// interpreter: evalExpr over an environment binding pq's FROM entries to the
// row — the updated row under the statement's alias, or nothing for VALUES.
func interpSet(pq *plannedQuery, e sqlparser.Expr) rowEval {
	return func(_ *evalCtx, row []value.Value) (value.Value, error) {
		en := &env{}
		for _, si := range pq.fromOrder {
			st := pq.plan.Steps[si]
			tup := storage.Tuple(row[st.Offset : st.Offset+len(st.Input.Rel.Attributes)])
			en.bindings = append(en.bindings, binding{alias: st.Input.Alias, rel: st.Input.Rel, tuple: tup})
		}
		return pq.ex.evalExpr(e, en, nil)
	}
}

// joinFrom produces every joined environment. Inner joins use nested loops
// with pushed-down predicates plus a hash-join fast path for equality
// predicates; LEFT/RIGHT joins null-extend. A WHERE conjunct is pulled into an
// inner join step once its tuple variables are bound, but never before the
// last RIGHT join, which pads every entry before it with NULLs.
func (ex *Engine) joinFrom(entries []fromEntry, conjuncts []sqlparser.Expr, outer *env) ([]*env, error) {
	// Start with a single environment holding no bindings.
	envs := []*env{{parent: outer}}
	applied := make([]bool, len(conjuncts))
	lastRight := -1
	for idx := range entries {
		if entries[idx].joinKind == sqlparser.JoinRight {
			lastRight = idx
		}
	}

	boundAliases := map[string]*catalog.Relation{}
	// Aliases visible from outer scopes count as bound for pushdown
	// purposes; conservatively treat unqualified refs as unbound until all
	// entries are joined.
	for idx := range entries {
		e := &entries[idx]
		boundAliases[strings.ToLower(e.alias)] = e.rel

		stepConj := sqlparser.Conjuncts(e.joinOn)
		// Pull in WHERE conjuncts that just became fully bound (only for
		// inner semantics — applying WHERE during an outer join would be
		// wrong, but entries from comma-FROM are always inner).
		if e.joinKind == sqlparser.JoinInner && idx >= lastRight {
			for ci, c := range conjuncts {
				if applied[ci] {
					continue
				}
				if conjBound(c, boundAliases, idx == len(entries)-1) {
					stepConj = append(stepConj, c)
					applied[ci] = true
				}
			}
		}

		next, err := ex.joinStep(envs, entries[:idx+1], stepConj, outer)
		if err != nil {
			return nil, err
		}
		envs = next
	}
	// Any conjunct not yet applied (e.g. due to outer joins or unqualified
	// columns) filters the final environments.
	for ci, c := range conjuncts {
		if applied[ci] {
			continue
		}
		filtered := envs[:0]
		for _, en := range envs {
			v, err := ex.evalExpr(c, en, nil)
			if err != nil {
				return nil, err
			}
			if passes(v) {
				filtered = append(filtered, en)
			}
		}
		envs = filtered
	}
	return envs, nil
}

// conjBound reports whether every column reference of c resolves within
// boundAliases (or, when last is true, anywhere — the final join step can
// evaluate everything; unqualified refs are also allowed then). The planner's
// interpreterStep places the conjuncts it cannot resolve by this rule.
func conjBound(c sqlparser.Expr, bound map[string]*catalog.Relation, last bool) bool {
	if last {
		return true
	}
	ok := true
	sqlparser.WalkExpr(c, func(x sqlparser.Expr) bool {
		switch n := x.(type) {
		case *sqlparser.ColumnRef:
			if n.Table == "" {
				// Unqualified: only safe when a unique bound relation has it.
				count := 0
				for _, rel := range bound {
					if rel.AttrIndex(n.Column) >= 0 {
						count++
					}
				}
				if count != 1 {
					ok = false
					return false
				}
				return true
			}
			if _, b := bound[strings.ToLower(n.Table)]; !b {
				ok = false
				return false
			}
		case *sqlparser.InExpr:
			if n.Subquery != nil {
				// Correlated subqueries may reference anything; defer them.
				ok = false
				return false
			}
		case *sqlparser.ExistsExpr, *sqlparser.QuantifiedExpr, *sqlparser.SubqueryExpr:
			ok = false
			return false
		}
		return true
	})
	return ok
}

// joinStep extends each environment with every tuple of the prefix's last
// entry e that satisfies stepConj. For equality conjuncts of the form
// bound.col = e.col it builds a hash table over e once and probes it per
// environment. outer is the statement's enclosing scope.
func (ex *Engine) joinStep(envs []*env, prefix []fromEntry, stepConj []sqlparser.Expr, outer *env) ([]*env, error) {
	e := &prefix[len(prefix)-1]
	tuples := e.tbl.Tuples()
	ex.bud.AddTotal(len(tuples))
	if err := ex.bud.Step(0); err != nil {
		return nil, err
	}

	// A conjunct over e alone filters every tuple of e before the join, as
	// the planned pipeline's self-filters do, so whether it raises an error
	// does not depend on which tuples the join goes on to match.
	if e.joinKind == sqlparser.JoinInner && len(envs) > 0 {
		var self, rest []sqlparser.Expr
		for _, c := range stepConj {
			if selfConj(c, prefix) {
				self = append(self, c)
			} else {
				rest = append(rest, c)
			}
		}
		if len(self) > 0 {
			var kept []storage.Tuple
			for ti, tup := range tuples {
				if err := ex.bud.Tick(ti); err != nil {
					return nil, err
				}
				en := &env{parent: outer, bindings: []binding{{alias: e.alias, rel: e.rel, tuple: tup}}}
				if ok, err := ex.allPass(self, en); err != nil {
					return nil, err
				} else if ok {
					kept = append(kept, tup)
				}
			}
			tuples, stepConj = kept, rest
		}
	}

	// Hash-join fast path: find an equality conjunct linking e to an
	// already-bound alias.
	var probeExpr sqlparser.Expr // evaluated against the existing env
	var buildPos int             // attribute position in e
	rest := stepConj
	if e.joinKind == sqlparser.JoinInner {
		for i, c := range stepConj {
			b, ok := c.(*sqlparser.BinaryExpr)
			if !ok || b.Op != sqlparser.OpEq {
				continue
			}
			l, lok := b.Left.(*sqlparser.ColumnRef)
			r, rok := b.Right.(*sqlparser.ColumnRef)
			if !lok || !rok {
				continue
			}
			lIsE := strings.EqualFold(l.Table, e.alias)
			rIsE := strings.EqualFold(r.Table, e.alias)
			if lIsE == rIsE { // both or neither refer to e
				continue
			}
			var eRef, oRef *sqlparser.ColumnRef
			if lIsE {
				eRef, oRef = l, r
			} else {
				eRef, oRef = r, l
			}
			pos := e.rel.AttrIndex(eRef.Column)
			if pos < 0 {
				return nil, fmt.Errorf("engine: relation %s has no attribute %q", e.rel.Name, eRef.Column)
			}
			probeExpr = oRef
			buildPos = pos
			rest = make([]sqlparser.Expr, 0, len(stepConj)-1)
			rest = append(rest, stepConj[:i]...)
			rest = append(rest, stepConj[i+1:]...)
			break
		}
	}

	// matchTuple extends base with tup and applies conds; nil env means the
	// candidate failed a condition. It only reads shared state, so the
	// parallel fan-out below may call it from many goroutines.
	matchTuple := func(base *env, tup storage.Tuple, conds []sqlparser.Expr) (*env, error) {
		cand := &env{parent: base.parent}
		cand.bindings = append(append([]binding{}, base.bindings...), binding{alias: e.alias, rel: e.rel, tuple: tup})
		if ok, err := ex.allPass(conds, cand); !ok {
			return nil, err
		}
		return cand, nil
	}

	if probeExpr != nil {
		if len(tuples) == 0 {
			// No tuple to pair an environment with: like the nested loop,
			// evaluate nothing, so the probe's error cannot surface.
			return nil, nil
		}
		ht := make(map[string][]storage.Tuple, len(tuples))
		for _, tup := range tuples {
			v := tup[buildPos]
			if v.IsNull() {
				continue
			}
			ht[v.Key()] = append(ht[v.Key()], tup)
		}
		// Probe the (read-only) hash table for a chunk of environments.
		probeRange := func(lo, hi int) ([]*env, error) {
			var out []*env
			for bi, base := range envs[lo:hi] {
				if err := ex.bud.Tick(bi); err != nil {
					return nil, err
				}
				pv, err := ex.evalExpr(probeExpr, base, nil)
				if err != nil {
					return nil, err
				}
				if pv.IsNull() {
					continue
				}
				for _, tup := range ht[pv.Key()] {
					cand, err := matchTuple(base, tup, rest)
					if err != nil {
						return nil, err
					}
					if cand != nil {
						out = append(out, cand)
					}
				}
			}
			return out, nil
		}
		if w := ex.workersFor(len(envs)); w > 1 {
			return gatherParallel(len(envs), w, probeRange)
		}
		return probeRange(0, len(envs))
	}

	// Nested loop, with LEFT/RIGHT outer handling for explicit joins.
	if e.joinKind != sqlparser.JoinInner {
		return ex.outerJoinStep(envs, prefix, stepConj, outer)
	}
	// crossMatch is the one nested-loop body every serial and parallel
	// variant below shares: bases × tups, in order.
	crossMatch := func(bases []*env, tups []storage.Tuple) ([]*env, error) {
		var out []*env
		for bi, base := range bases {
			if err := ex.bud.Tick(bi); err != nil {
				return nil, err
			}
			for tj, tup := range tups {
				if err := ex.bud.Tick(tj); err != nil {
					return nil, err
				}
				cand, err := matchTuple(base, tup, stepConj)
				if err != nil {
					return nil, err
				}
				if cand != nil {
					out = append(out, cand)
				}
			}
		}
		return out, nil
	}
	if w := ex.workersFor(len(envs)); w > 1 {
		return gatherParallel(len(envs), w, func(lo, hi int) ([]*env, error) {
			return crossMatch(envs[lo:hi], tuples)
		})
	}
	// Few environments over a big table — the base-table scan/filter case —
	// fans out across tuple chunks instead, per environment in order.
	if w := ex.workersFor(len(envs) * len(tuples)); w > 1 && len(tuples) >= w {
		var out []*env
		for _, base := range envs {
			part, err := gatherParallel(len(tuples), w, func(lo, hi int) ([]*env, error) {
				return crossMatch([]*env{base}, tuples[lo:hi])
			})
			if err != nil {
				return nil, err
			}
			out = append(out, part...)
		}
		return out, nil
	}
	return crossMatch(envs, tuples)
}

// allPass reports whether every condition passes in en, stopping at the
// first that does not.
func (ex *Engine) allPass(conds []sqlparser.Expr, en *env) (bool, error) {
	for _, c := range conds {
		v, err := ex.evalExpr(c, en, nil)
		if err != nil || !passes(v) {
			return false, err
		}
	}
	return true, nil
}

// selfConj reports whether c reads the prefix's last entry alone: it has no
// subquery and at least one column reference, and each reference names an
// attribute of that entry and is bound by no entry before it.
func selfConj(c sqlparser.Expr, prefix []fromEntry) bool {
	e := &prefix[len(prefix)-1]
	refs := sqlparser.ColumnRefs(c)
	if len(refs) == 0 || !conjBound(c, map[string]*catalog.Relation{strings.ToLower(e.alias): e.rel}, false) {
		return false
	}
	for _, ref := range refs {
		if e.rel.AttrIndex(ref.Column) < 0 {
			return false
		}
		for _, o := range prefix[:len(prefix)-1] {
			if ref.Table == "" && o.rel.AttrIndex(ref.Column) >= 0 ||
				ref.Table != "" && (strings.EqualFold(o.alias, ref.Table) || strings.EqualFold(o.rel.Name, ref.Table)) {
				return false
			}
		}
	}
	return true
}

// outerJoinStep implements LEFT JOIN (preserve existing envs) and RIGHT JOIN
// (preserve new-table tuples) with NULL extension of the prefix's last entry.
// A RIGHT join pads the unmatched tuples with one NULL binding per earlier
// entry, whether or not any environment reached this step.
func (ex *Engine) outerJoinStep(envs []*env, prefix []fromEntry, conds []sqlparser.Expr, outer *env) ([]*env, error) {
	e := &prefix[len(prefix)-1]
	tuples := e.tbl.Tuples()
	nullTuple := make(storage.Tuple, len(e.rel.Attributes))
	var out []*env
	matchedRight := make([]bool, len(tuples))
	for bi, base := range envs {
		if err := ex.bud.Tick(bi); err != nil {
			return nil, err
		}
		matched := false
		for ti, tup := range tuples {
			if err := ex.bud.Tick(ti); err != nil {
				return nil, err
			}
			cand := &env{parent: base.parent}
			cand.bindings = append(append([]binding{}, base.bindings...), binding{alias: e.alias, rel: e.rel, tuple: tup})
			ok := true
			for _, c := range conds {
				v, err := ex.evalExpr(c, cand, nil)
				if err != nil {
					return nil, err
				}
				if !passes(v) {
					ok = false
					break
				}
			}
			if ok {
				matched = true
				matchedRight[ti] = true
				out = append(out, cand)
			}
		}
		if !matched && e.joinKind == sqlparser.JoinLeft {
			cand := &env{parent: base.parent}
			cand.bindings = append(append([]binding{}, base.bindings...), binding{alias: e.alias, rel: e.rel, tuple: nullTuple})
			out = append(out, cand)
		}
	}
	if e.joinKind == sqlparser.JoinRight {
		// Preserve unmatched right tuples with NULLs for all prior bindings.
		var padding []binding
		for _, p := range prefix[:len(prefix)-1] {
			padding = append(padding, binding{alias: p.alias, rel: p.rel, tuple: make(storage.Tuple, len(p.rel.Attributes))})
		}
		for ti, tup := range tuples {
			if matchedRight[ti] {
				continue
			}
			cand := &env{parent: outer}
			cand.bindings = append(append([]binding{}, padding...), binding{alias: e.alias, rel: e.rel, tuple: tup})
			out = append(out, cand)
		}
	}
	return out, nil
}

func (ex *Engine) execUngrouped(sel *sqlparser.SelectStmt, entries []fromEntry, envs []*env, earlyLimit int) (*Result, []*env, error) {
	items, cols, err := expandItems(sel, entries)
	if err != nil {
		return nil, nil, err
	}
	out := &Result{Columns: cols}
	var rowEnvs []*env
	for ei, en := range envs {
		if err := ex.bud.Tick(ei); err != nil {
			return nil, nil, err
		}
		row := make(storage.Tuple, len(items))
		for i, it := range items {
			v, err := ex.evalExpr(it.Expr, en, nil)
			if err != nil {
				return nil, nil, err
			}
			row[i] = v
		}
		out.Rows = append(out.Rows, row)
		rowEnvs = append(rowEnvs, en)
		if earlyLimit >= 0 && len(out.Rows) >= earlyLimit &&
			len(sel.OrderBy) == 0 && !sel.Distinct && sel.Limit < 0 {
			return out, rowEnvs, nil
		}
	}
	return out, rowEnvs, nil
}

// gatherParallel splits [0, n) into at most `workers` contiguous chunks,
// runs fn over each chunk on its own goroutine, and concatenates the chunk
// outputs in index order — so the combined result is identical to
// fn(0, n) run serially, making parallel execution deterministic.
func gatherParallel(n, workers int, fn func(lo, hi int) ([]*env, error)) ([]*env, error) {
	if workers <= 1 || n <= 1 {
		return fn(0, n)
	}
	chunk := (n + workers - 1) / workers
	outs := make([][]*env, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			outs[w], errs[w] = fn(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := make([]*env, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	return out, nil
}

// checkGroupedExpr is the grouping rule (grouping.check) for one expression.
func checkGroupedExpr(e sqlparser.Expr, sel *sqlparser.SelectStmt, entries []fromEntry) error {
	return newGrouping(sel, entries).check(e)
}

// groupRef ties one grouped output row back to its group so ORDER BY can
// evaluate aggregate expressions (and grouping keys outside the select list)
// against the group context.
type groupRef struct {
	env *env
	gc  *groupCtx
}

func (ex *Engine) execGrouped(sel *sqlparser.SelectStmt, entries []fromEntry, envs []*env) (*Result, []groupRef, error) {
	items, cols, err := expandItems(sel, entries)
	if err != nil {
		return nil, nil, err
	}
	// Standard-SQL grouping rule: a select item or HAVING term must be a
	// grouping expression or an aggregate — the group's first row is not a
	// stand-in for ungrouped columns.
	for _, it := range items {
		if err := checkGroupedExpr(it.Expr, sel, entries); err != nil {
			return nil, nil, err
		}
	}
	if sel.Having != nil {
		if err := checkGroupedExpr(sel.Having, sel, entries); err != nil {
			return nil, nil, err
		}
	}
	// Partition envs into groups keyed by the GROUP BY expressions; with no
	// GROUP BY the whole input is one group.
	type group struct {
		ctx *groupCtx
	}
	groupsByKey := map[string]*group{}
	var order []string
	var keyBuf []byte // reused; value.AppendKey keys cannot collide across adjacent values
	for ei, en := range envs {
		if err := ex.bud.Tick(ei); err != nil {
			return nil, nil, err
		}
		keyBuf = keyBuf[:0]
		for _, g := range sel.GroupBy {
			v, err := ex.evalExpr(g, en, nil)
			if err != nil {
				return nil, nil, err
			}
			keyBuf = v.AppendKey(keyBuf)
		}
		grp, ok := groupsByKey[string(keyBuf)]
		if !ok {
			k := string(keyBuf)
			grp = &group{ctx: &groupCtx{}}
			groupsByKey[k] = grp
			order = append(order, k)
		}
		grp.ctx.rows = append(grp.ctx.rows, en)
	}
	// A grouped query with no GROUP BY and no input rows still yields one
	// group (COUNT(*) = 0).
	if len(sel.GroupBy) == 0 && len(order) == 0 {
		k := ""
		groupsByKey[k] = &group{ctx: &groupCtx{}}
		order = append(order, k)
	}

	out := &Result{Columns: cols}
	var refs []groupRef
	for _, k := range order {
		grp := groupsByKey[k]
		// Evaluate HAVING with an env seeded from the group's first row so
		// correlated subqueries can reference group-by columns.
		he := &env{}
		if len(grp.ctx.rows) > 0 {
			he = grp.ctx.rows[0]
		}
		if sel.Having != nil {
			v, err := ex.evalExpr(sel.Having, he, grp.ctx)
			if err != nil {
				return nil, nil, err
			}
			if v.IsNull() || v.Kind() != value.Bool || !v.Bool() {
				continue
			}
		}
		row := make(storage.Tuple, len(items))
		for i, it := range items {
			v, err := ex.evalExpr(it.Expr, he, grp.ctx)
			if err != nil {
				return nil, nil, err
			}
			row[i] = v
		}
		out.Rows = append(out.Rows, row)
		refs = append(refs, groupRef{env: he, gc: grp.ctx})
	}
	return out, refs, nil
}

func (ex *Engine) orderRows(sel *sqlparser.SelectStmt, entries []fromEntry, out *Result, rowEnvs []*env, groups []groupRef) error {
	// Build sort keys: each ORDER BY expression is an ordinal, a select-list
	// alias/position, or an expression over output columns; beyond those,
	// grouped queries evaluate expressions (aggregates, grouping keys) in
	// the row's group context and ungrouped queries against the stashed envs.
	items, _, err := expandItems(sel, entries)
	if err != nil {
		return err
	}
	// Resolve each order item once; errors stay deferred until a row needs
	// the key, matching the per-row resolution they replace.
	specs := make([]struct {
		col int
		err error
	}, len(sel.OrderBy))
	for j, o := range sel.OrderBy {
		specs[j].col = -1
		if col, ok, err := orderTarget(o, items); err != nil {
			specs[j].err = err
		} else if ok {
			specs[j].col = col
		} else if groups != nil {
			// Grouped: the expression evaluates in the group context (ORDER
			// BY <aggregate>, grouping keys outside the select list) and
			// must obey the grouping rule.
			specs[j].err = checkGroupedExpr(o.Expr, sel, entries)
		} else if rowEnvs == nil {
			specs[j].err = fmt.Errorf("engine: ORDER BY expression %s is not in the select list", o.Expr.SQL())
		}
	}
	keyFor := func(rowIdx, j int) (value.Value, error) {
		o := sel.OrderBy[j]
		if specs[j].err != nil {
			return value.Value{}, specs[j].err
		}
		if specs[j].col >= 0 {
			return out.Rows[rowIdx][specs[j].col], nil
		}
		if groups != nil && rowIdx < len(groups) {
			return ex.evalExpr(o.Expr, groups[rowIdx].env, groups[rowIdx].gc)
		}
		return ex.evalExpr(o.Expr, rowEnvs[rowIdx], nil)
	}
	type keyedRow struct {
		row  storage.Tuple
		keys []value.Value
	}
	rows := make([]keyedRow, len(out.Rows))
	for i := range out.Rows {
		keys := make([]value.Value, len(sel.OrderBy))
		for j := range sel.OrderBy {
			v, err := keyFor(i, j)
			if err != nil {
				return err
			}
			keys[j] = v
		}
		rows[i] = keyedRow{row: out.Rows[i], keys: keys}
	}
	var sortErr error
	sort.SliceStable(rows, func(a, b int) bool {
		for j, o := range sel.OrderBy {
			ka, kb := rows[a].keys[j], rows[b].keys[j]
			// NULLs sort first ascending, last descending.
			if ka.IsNull() || kb.IsNull() {
				if ka.IsNull() && kb.IsNull() {
					continue
				}
				return ka.IsNull() != o.Desc
			}
			c, err := ka.Compare(kb)
			if err != nil {
				sortErr = err
				return false
			}
			if c == 0 {
				continue
			}
			if o.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	for i := range rows {
		out.Rows[i] = rows[i].row
	}
	return nil
}

// binding associates one tuple variable with its relation and current tuple.
type binding struct {
	alias string
	rel   *catalog.Relation
	tuple storage.Tuple
}

// env is a chain of binding scopes; inner subqueries see outer bindings for
// correlation.
type env struct {
	parent   *env
	bindings []binding
}

// lookup resolves a column reference to its current value.
func (e *env) lookup(ref *sqlparser.ColumnRef) (value.Value, error) {
	for scope := e; scope != nil; scope = scope.parent {
		if ref.Table != "" {
			for i := range scope.bindings {
				b := &scope.bindings[i]
				if strings.EqualFold(b.alias, ref.Table) || strings.EqualFold(b.rel.Name, ref.Table) {
					pos := b.rel.AttrIndex(ref.Column)
					if pos < 0 {
						return value.Value{}, fmt.Errorf("engine: relation %s has no attribute %q", b.rel.Name, ref.Column)
					}
					return b.tuple[pos], nil
				}
			}
			continue
		}
		// Unqualified: must be unambiguous within the scope.
		found := -1
		var out value.Value
		for i := range scope.bindings {
			b := &scope.bindings[i]
			pos := b.rel.AttrIndex(ref.Column)
			if pos >= 0 {
				if found >= 0 {
					return value.Value{}, fmt.Errorf("engine: ambiguous column %q", ref.Column)
				}
				found = i
				out = b.tuple[pos]
			}
		}
		if found >= 0 {
			return out, nil
		}
	}
	return value.Value{}, fmt.Errorf("engine: unknown column %s", ref.SQL())
}

// groupCtx carries the rows of the current group during aggregate
// evaluation. When nil, aggregate expressions are illegal.
type groupCtx struct {
	rows []*env
}

// evalExpr evaluates an expression under env; gc is non-nil only inside
// grouped evaluation (HAVING and grouped SELECT items).
func (ex *Engine) evalExpr(e sqlparser.Expr, en *env, gc *groupCtx) (value.Value, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return x.Value, nil

	case *sqlparser.ColumnRef:
		if x.Column == "*" {
			return value.Value{}, fmt.Errorf("engine: %s is not a scalar expression", x.SQL())
		}
		if gc != nil {
			// Inside a grouped context a bare column is evaluated on the
			// group's representative row (valid when it is functionally
			// dependent on the GROUP BY columns, which the planner checks).
			if len(gc.rows) == 0 {
				return value.NewNull(), nil
			}
			return gc.rows[0].lookup(x)
		}
		return en.lookup(x)

	case *sqlparser.BinaryExpr:
		return ex.evalBinary(x, en, gc)

	case *sqlparser.NotExpr:
		v, err := ex.evalExpr(x.Inner, en, gc)
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

	case *sqlparser.IsNullExpr:
		v, err := ex.evalExpr(x.Inner, en, gc)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool(v.IsNull() != x.Negate), nil

	case *sqlparser.BetweenExpr:
		subj, err := ex.evalExpr(x.Subject, en, gc)
		if err != nil {
			return value.Value{}, err
		}
		lo, err := ex.evalExpr(x.Lo, en, gc)
		if err != nil {
			return value.Value{}, err
		}
		hi, err := ex.evalExpr(x.Hi, en, gc)
		if err != nil {
			return value.Value{}, err
		}
		if subj.IsNull() || lo.IsNull() || hi.IsNull() {
			return value.NewNull(), nil
		}
		c1, err := subj.Compare(lo)
		if err != nil {
			return value.Value{}, err
		}
		c2, err := subj.Compare(hi)
		if err != nil {
			return value.Value{}, err
		}
		in := c1 >= 0 && c2 <= 0
		return value.NewBool(in != x.Negate), nil

	case *sqlparser.AggregateExpr:
		if gc == nil {
			return value.Value{}, fmt.Errorf("engine: aggregate %s outside grouped context", x.SQL())
		}
		return ex.evalAggregate(x, gc)

	case *sqlparser.InExpr:
		return ex.evalIn(x, en, gc)

	case *sqlparser.ExistsExpr:
		rows, err := ex.interpRows(x.Subquery, en, 1)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool((len(rows) > 0) != x.Negate), nil

	case *sqlparser.QuantifiedExpr:
		return ex.evalQuantified(x, en, gc)

	case *sqlparser.SubqueryExpr:
		return ex.evalScalarSubquery(x.Subquery, en)

	case *sqlparser.CaseExpr:
		for _, w := range x.Whens {
			cond, err := ex.evalExpr(w.Cond, en, gc)
			if err != nil {
				return value.Value{}, err
			}
			if !cond.IsNull() && cond.Kind() == value.Bool && cond.Bool() {
				return ex.evalExpr(w.Then, en, gc)
			}
		}
		if x.Else != nil {
			return ex.evalExpr(x.Else, en, gc)
		}
		return value.NewNull(), nil

	case *sqlparser.Star:
		return value.Value{}, fmt.Errorf("engine: * is not a scalar expression")

	default:
		return value.Value{}, fmt.Errorf("engine: cannot evaluate %T", e)
	}
}

func (ex *Engine) evalBinary(x *sqlparser.BinaryExpr, en *env, gc *groupCtx) (value.Value, error) {
	switch x.Op {
	case sqlparser.OpAnd, sqlparser.OpOr:
		l, err := ex.evalExpr(x.Left, en, gc)
		if err != nil {
			return value.Value{}, err
		}
		// Three-valued short circuit.
		if !l.IsNull() && l.Kind() == value.Bool {
			if x.Op == sqlparser.OpAnd && !l.Bool() {
				return value.NewBool(false), nil
			}
			if x.Op == sqlparser.OpOr && l.Bool() {
				return value.NewBool(true), nil
			}
		}
		r, err := ex.evalExpr(x.Right, en, gc)
		if err != nil {
			return value.Value{}, err
		}
		return threeValued(x.Op, l, r)
	}

	l, err := ex.evalExpr(x.Left, en, gc)
	if err != nil {
		return value.Value{}, err
	}
	r, err := ex.evalExpr(x.Right, en, gc)
	if err != nil {
		return value.Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return value.NewNull(), nil
	}

	switch x.Op {
	case sqlparser.OpEq:
		return compareOp(l, r, true, func(c int) bool { return c == 0 })
	case sqlparser.OpNe:
		return compareOp(l, r, true, func(c int) bool { return c != 0 })
	case sqlparser.OpLt:
		return compareOp(l, r, false, func(c int) bool { return c < 0 })
	case sqlparser.OpLe:
		return compareOp(l, r, false, func(c int) bool { return c <= 0 })
	case sqlparser.OpGt:
		return compareOp(l, r, false, func(c int) bool { return c > 0 })
	case sqlparser.OpGe:
		return compareOp(l, r, false, func(c int) bool { return c >= 0 })
	case sqlparser.OpLike:
		if l.Kind() != value.Text || r.Kind() != value.Text {
			return value.Value{}, fmt.Errorf("engine: LIKE requires text operands")
		}
		return value.NewBool(likeMatch(l.Text(), r.Text())), nil
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv, sqlparser.OpMod:
		return arith(x.Op, l, r)
	default:
		return value.Value{}, fmt.Errorf("engine: unsupported operator %s", x.Op)
	}
}

func (ex *Engine) evalIn(x *sqlparser.InExpr, en *env, gc *groupCtx) (value.Value, error) {
	subj, err := ex.evalExpr(x.Subject, en, gc)
	if err != nil {
		return value.Value{}, err
	}
	if x.Subquery != nil {
		rows, err := ex.interpRows(x.Subquery, en, -1)
		if err != nil {
			return value.Value{}, err
		}
		return inRows(subj, rows, x.Negate)
	}
	var in inTest
	for _, item := range x.List {
		v, err := ex.evalExpr(item, en, gc)
		if err != nil {
			return value.Value{}, err
		}
		in.add(subj, v)
	}
	return in.result(subj, x.Negate), nil
}

func (ex *Engine) evalQuantified(x *sqlparser.QuantifiedExpr, en *env, gc *groupCtx) (value.Value, error) {
	subj, err := ex.evalExpr(x.Subject, en, gc)
	if err != nil {
		return value.Value{}, err
	}
	rows, err := ex.interpRows(x.Subquery, en, -1)
	if err != nil {
		return value.Value{}, err
	}
	return quantify(x, subj, rows)
}

func (ex *Engine) evalScalarSubquery(sub *sqlparser.SelectStmt, en *env) (value.Value, error) {
	rows, err := ex.interpRows(sub, en, 2)
	if err != nil {
		return value.Value{}, err
	}
	return scalarOf(rows)
}

func (ex *Engine) evalAggregate(x *sqlparser.AggregateExpr, gc *groupCtx) (value.Value, error) {
	// COUNT(*) counts rows.
	if x.Arg == nil {
		return value.NewInt(int64(len(gc.rows))), nil
	}
	var vals []value.Value
	seen := map[string]bool{}
	for _, rowEnv := range gc.rows {
		v, err := ex.evalExpr(x.Arg, rowEnv, nil)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if x.Distinct {
			k := v.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch x.Func {
	case sqlparser.AggCount:
		return value.NewInt(int64(len(vals))), nil
	case sqlparser.AggSum, sqlparser.AggAvg:
		if len(vals) == 0 {
			return value.NewNull(), nil
		}
		allInt := true
		sumF := 0.0
		sumI := int64(0)
		for _, v := range vals {
			if !v.IsNumeric() {
				return value.Value{}, fmt.Errorf("engine: %s over non-numeric values", x.Func)
			}
			if v.Kind() == value.Int {
				sumI += v.Int()
			} else {
				allInt = false
			}
			sumF += v.Float()
		}
		if x.Func == sqlparser.AggSum {
			if allInt {
				return value.NewInt(sumI), nil
			}
			return value.NewFloat(sumF), nil
		}
		return value.NewFloat(sumF / float64(len(vals))), nil
	case sqlparser.AggMin, sqlparser.AggMax:
		if len(vals) == 0 {
			return value.NewNull(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := v.Compare(best)
			if err != nil {
				return value.Value{}, err
			}
			if (x.Func == sqlparser.AggMin && c < 0) || (x.Func == sqlparser.AggMax && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return value.Value{}, fmt.Errorf("engine: unknown aggregate")
	}
}
