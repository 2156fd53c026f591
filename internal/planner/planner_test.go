package planner_test

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/storage"
)

// buildPlan flattens a SELECT's FROM clause the way the engine does and
// plans it.
func buildPlan(t *testing.T, db *storage.Database, sql string) *planner.Plan {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	var inputs []planner.Input
	var add func(ref *sqlparser.TableRef, kind sqlparser.JoinKind, on sqlparser.Expr)
	add = func(ref *sqlparser.TableRef, kind sqlparser.JoinKind, on sqlparser.Expr) {
		tbl := db.Table(ref.Relation)
		if tbl == nil {
			t.Fatalf("unknown relation %q", ref.Relation)
		}
		inputs = append(inputs, planner.Input{Alias: ref.Name(), Rel: tbl.Relation(), Tbl: tbl, Join: kind, On: on})
		if ref.Join != nil {
			add(ref.Join.Right, ref.Join.Kind, ref.Join.On)
		}
	}
	for _, ref := range sel.From {
		add(ref, sqlparser.JoinInner, nil)
	}
	p := planner.Build(sel, inputs, false)
	if p == nil {
		t.Fatal("nil plan")
	}
	return p
}

func genDB(t *testing.T) *storage.Database {
	t.Helper()
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 7, Movies: 2000, Actors: 500, Directors: 21, CastPerMovie: 2, GenresPerMovie: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestPlanOrdersBySelectivity: the selective CAST filter must be scanned
// first and MOVIES joined via its primary key, even though MOVIES comes
// first in the FROM clause.
func TestPlanOrdersBySelectivity(t *testing.T) {
	p := buildPlan(t, genDB(t),
		`select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = 'Role 7-19'`)
	if got := p.Steps[0].Input.Alias; got != "c" {
		t.Fatalf("first step = %s, want the filtered CAST scan", got)
	}
	if p.Steps[0].Access != planner.ScanFull {
		t.Fatalf("first access = %s", p.Steps[0].Access)
	}
	if p.Steps[1].Access != planner.JoinPK {
		t.Fatalf("second access = %s, want primary-key join", p.Steps[1].Access)
	}
	if p.Steps[0].EstRows > 10 {
		t.Fatalf("selective equality estimated %f rows", p.Steps[0].EstRows)
	}
}

// TestPlanPicksPKProbe: literal equality on the whole primary key becomes a
// point probe.
func TestPlanPicksPKProbe(t *testing.T) {
	p := buildPlan(t, genDB(t), `select m.title from MOVIES m where m.id = 77`)
	if p.Steps[0].Access != planner.ScanPK {
		t.Fatalf("access = %s, want primary-key probe", p.Steps[0].Access)
	}
	if p.EstRows > 1 {
		t.Fatalf("estimated %f rows for a pk probe", p.EstRows)
	}
}

// TestPlanSubqueryGoesResidual: subquery predicates defer to the residual
// phase and surface in the summary.
func TestPlanSubqueryGoesResidual(t *testing.T) {
	p := buildPlan(t, genDB(t),
		`select m.title from MOVIES m where m.id in (select c.mid from CAST c) and m.year > 1960`)
	if len(p.Post) != 1 {
		t.Fatalf("residual count = %d, want the IN subquery", len(p.Post))
	}
	s := p.Summarize()
	if len(s.Residual) != 1 || !strings.Contains(s.Residual[0], "IN") {
		t.Fatalf("summary residual = %v", s.Residual)
	}
}

// TestPlanFallbacks: constructs the planner once refused are planned now. An
// ambiguous unqualified column keeps FROM order and waits, unanalyzed, where
// the interpreter binds it — at the first entry that has the column, the
// only one bound there — for the engine to compile.
func TestPlanFallbacks(t *testing.T) {
	db := genDB(t)
	// id is an attribute of both MOVIES and ACTOR.
	p := buildPlan(t, db, `select title from ACTOR a, MOVIES m where id = 3 and m.year > 2000`)
	if p.Steps[0].Input.Alias != "a" {
		t.Fatalf("a plan with an unresolvable conjunct must keep FROM order, got %s", p.Fingerprint())
	}
	if got := p.Steps[0].PostJoinFilters; len(got) != 1 || got[0].SQL() != "id = 3" {
		t.Fatalf("step 1 filters %v, want the ambiguous conjunct where the interpreter binds it", got)
	}
	if got := p.Steps[1].SelfFilters; len(got) != 1 {
		t.Fatalf("step 2 self-filters %v, want m.year > 2000", got)
	}
}

// TestPlanOuterJoinKeepsFromOrder: an outer join keeps FROM order and picks its
// access path by cost. A LEFT join's ON conjunct over the padded side filters
// it before the join; a WHERE conjunct over a padded side filters the joined
// rows, and a RIGHT join pads every input before it, so no WHERE conjunct
// filters a step before it.
func TestPlanOuterJoinKeepsFromOrder(t *testing.T) {
	db := genDB(t)
	p := buildPlan(t, db, `select m.title from MOVIES m left join CAST c on m.id = c.mid and c.role = 'Role 7-19'
		where m.year > 2000 and c.aid is null`)
	if got := p.Fingerprint(); got != "m:full scan{1}>c:left hash join{1}>post{1}" {
		t.Fatalf("fingerprint %s", got)
	}
	if st := p.Steps[1]; st.Join != sqlparser.JoinLeft || len(st.SelfFilters) != 1 || st.EstRows < p.Steps[0].EstRows {
		t.Fatalf("LEFT step %+v: want the padded side's ON filter before the join and at least the rows so far", st)
	}
	s := p.Summarize()
	if s.Steps[1].Join != "left" {
		t.Fatalf("summary step %+v", s.Steps[1])
	}
	for _, tip := range s.Tips {
		if strings.Contains(tip, "subqueries") {
			t.Fatalf("a residual without a subquery earned the subquery tip: %q", tip)
		}
	}

	p = buildPlan(t, db, `select m.title from CAST c right join MOVIES m on c.mid = m.id and c.aid < 9
		where m.year > 2000 and c.role = 'Role 7-19'`)
	if got := p.Fingerprint(); got != "c:full scan>m:right primary-key join{1}>post{2}" {
		t.Fatalf("fingerprint %s", got)
	}
	if st := p.Steps[1]; len(st.SelfFilters) != 0 || st.EstRows < float64(db.Table("MOVIES").Len()) {
		t.Fatalf("RIGHT step %+v: its ON conjuncts are match conditions and it keeps every movie", st)
	}
}

// TestPlanFingerprintStable: same query, same statistics, same fingerprint.
func TestPlanFingerprintStable(t *testing.T) {
	db := genDB(t)
	sql := `select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = 'Role 7-19'`
	a := buildPlan(t, db, sql).Fingerprint()
	b := buildPlan(t, db, sql).Fingerprint()
	if a != b || a == "" {
		t.Fatalf("fingerprints differ: %q vs %q", a, b)
	}
}

// TestPlanTips: a cross product and a residual subquery each earn a tip,
// and nothing suggests an index — the primary key is the only one, and no
// statement creates another. A big equality scan and a hash join, which once
// earned index suggestions, stay silent whichever side the join hashed.
func TestPlanTips(t *testing.T) {
	db := genDB(t)
	p := buildPlan(t, db, `select m.title from MOVIES m, GENRE g where m.year = 1999`)
	if tips := p.Tips(); len(tips) != 1 || !strings.HasPrefix(tips[0], "g joins without an equality condition (a cross product)") {
		t.Errorf("cross product: tips %q, want one cross-product tip", tips)
	}
	p = buildPlan(t, db, `select m.title from MOVIES m where m.id in (select g.mid from GENRE g where g.genre = 'drama') or m.year = 1999`)
	if tips := p.Tips(); len(tips) != 1 || !strings.HasPrefix(tips[0], "one residual predicate evaluated per row after all joins") {
		t.Errorf("residual subquery: tips %q, want one residual tip", tips)
	}

	if tips := buildPlan(t, db, `select c.aid from CAST c where c.role = 'Role 7-19'`).Tips(); len(tips) != 0 {
		t.Errorf("equality scan: tips %q, want none", tips)
	}
	p = buildPlan(t, db, `select m.title from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id and a.id = 7`)
	var hash *planner.Step
	for _, st := range p.Steps {
		if st.Access == planner.JoinHash {
			hash = st
		}
	}
	if hash == nil {
		t.Fatalf("want a hash join onto CAST, got %s", p.Fingerprint())
	}
	planned := p.Fingerprint()
	for _, side := range []string{"", planner.HashTable, planner.HashOuter} {
		hash.HashSide = side
		if tips := p.Tips(); len(tips) != 0 {
			t.Errorf("hash side %q: tips %q, want none", side, tips)
		}
	}
	if got := p.Fingerprint(); got != planned {
		t.Errorf("fingerprint %q changed with the side hashed, want %q: the run differs, the plan does not", got, planned)
	}
}

// TestPlanEstimatesRangeFilter: range estimates interpolate between min and
// max rather than using the flat default.
func TestPlanEstimatesRangeFilter(t *testing.T) {
	db := genDB(t)
	// Generated years are uniform in [1950, 2009]; year > 2003 keeps ~10%.
	p := buildPlan(t, db, `select m.title from MOVIES m where m.year > 2003`)
	est := p.Steps[0].EstRows
	rows := float64(db.Table("MOVIES").Len())
	if est < rows*0.02 || est > rows*0.3 {
		t.Fatalf("range estimate %f of %f rows; want roughly 10%%", est, rows)
	}
}

// TestPlanShapeSteps: grouped/ordered queries carry shape steps with
// distinct-statistics group estimates, and the fingerprint reflects them.
func TestPlanShapeSteps(t *testing.T) {
	db := genDB(t)
	p := buildPlan(t, db,
		`select g.genre, count(*) from MOVIES m, GENRE g
		 where m.id = g.mid group by g.genre having count(*) > 1
		 order by count(*) desc limit 5`)
	if len(p.Shape) != 2 {
		t.Fatalf("shape steps = %d, want aggregate + top-k", len(p.Shape))
	}
	agg, topk := p.Shape[0], p.Shape[1]
	// How the aggregation runs is the engine's to say: its compiler turns
	// this step into vec-aggregate (engine.TestPlanShapeVecAggregate).
	if agg.Kind != planner.ShapeAggregate {
		t.Fatalf("first shape step = %s", agg.Kind)
	}
	genres := float64(db.Table("GENRE").Stats().Attrs[1].Distinct)
	// With HAVING the estimate is the distinct-count product scaled by the
	// default selectivity.
	if agg.EstRows <= 0 || agg.EstRows > genres {
		t.Errorf("aggregate estimate %.2f not in (0, %v] derived from DistinctCount", agg.EstRows, genres)
	}
	if agg.Having == "" || len(agg.GroupBy) != 1 || len(agg.Aggregates) != 1 {
		t.Errorf("aggregate step detail incomplete: %+v", agg)
	}
	if topk.Kind != planner.ShapeTopK || topk.K != 5 || topk.EstRows > 5 {
		t.Errorf("top-k step = %+v", topk)
	}
	fp := p.Fingerprint()
	for _, want := range []string{">agg{1,1}+having", ">topk{1,5}"} {
		if !strings.Contains(fp, want) {
			t.Errorf("fingerprint %q missing %q", fp, want)
		}
	}
	s := p.Summarize()
	if len(s.Shape) != 2 || s.Shape[0].Kind != "aggregate" || s.Shape[1].Kind != "top-k" {
		t.Errorf("summary shape = %+v", s.Shape)
	}

	// Plain sort and bare limit produce their own kinds.
	p2 := buildPlan(t, db, "select m.title from MOVIES m order by m.title")
	if len(p2.Shape) != 1 || p2.Shape[0].Kind != planner.ShapeSort {
		t.Errorf("sort-only shape = %+v", p2.Shape)
	}
	p3 := buildPlan(t, db, "select m.title from MOVIES m limit 3")
	if len(p3.Shape) != 1 || p3.Shape[0].Kind != planner.ShapeLimit || p3.Shape[0].K != 3 {
		t.Errorf("limit-only shape = %+v", p3.Shape)
	}
	p4 := buildPlan(t, db, "select m.title from MOVIES m")
	if len(p4.Shape) != 0 {
		t.Errorf("unshaped query grew shape steps: %+v", p4.Shape)
	}
}

// TestShapeStepCostGates pins the cost decision the planner keeps about how a
// base scan runs; the engine's compiler asks it before annotating.
func TestShapeStepCostGates(t *testing.T) {
	scan := func(access planner.Access, rows int, est float64) *planner.Step {
		return &planner.Step{Access: access, TableRows: rows, EstRows: est}
	}
	const m = planner.MorselRows
	zs := planner.ZoneSkipStep(scan(planner.ScanFull, 2*m+1, float64(m)/2))
	if zs == nil || zs.Kind != planner.ShapeZoneSkip || zs.K != 3 || zs.ActualRows != -1 {
		t.Fatalf("selective multi-morsel scan: %+v", zs)
	}
	if want := (1 - float64(m)/2/float64(2*m+1)) * 3; zs.EstRows != want {
		t.Errorf("zone-skip estimate %v, want %v morsels skipped", zs.EstRows, want)
	}
	for name, st := range map[string]*planner.Step{
		"under one morsel":  scan(planner.ScanFull, m-1, 1),
		"unselective":       scan(planner.ScanFull, 2*m, float64(m)+1),
		"primary-key probe": scan(planner.ScanPK, 2*m, 1),
	} {
		if zs := planner.ZoneSkipStep(st); zs != nil {
			t.Errorf("%s earned a zone-skip step: %+v", name, zs)
		}
	}
	if zs := planner.ZoneSkipStep(scan(planner.ScanFull, 2*m, float64(m))); zs == nil {
		t.Error("a scan estimated to keep exactly half its rows is still worth probing")
	}
}
