package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/planner"
	"repro/internal/querytotext"
	"repro/internal/sqlparser"
	"repro/internal/storage"
)

// This file pins which plans carry the zone-skip, parallel-scan and
// vec-aggregate shape steps. The engine's compilers add them — the planner
// contributes only the zone-skip cost gate — so the tables that used to pin the
// planner's gates live here and read the plan through Engine.Plan, which
// compiles exactly as an execution does and runs nothing.

func shapeStep(p *planner.Plan, kind planner.ShapeKind) *planner.ShapeStep {
	for _, sh := range p.Shape {
		if sh.Kind == kind {
			return sh
		}
	}
	return nil
}

func vecAggStep(p *planner.Plan) *planner.ShapeStep {
	return shapeStep(p, planner.ShapeVecAggregate)
}
func hasParallelScan(p *planner.Plan) bool { return shapeStep(p, planner.ShapeParallelScan) != nil }
func hasZoneSkip(p *planner.Plan) bool     { return shapeStep(p, planner.ShapeZoneSkip) != nil }

// buildPlan is the compiled, unexecuted plan of sql over db.
func buildPlan(t *testing.T, db *storage.Database, sql string) *planner.Plan {
	t.Helper()
	return planOn(t, New(db), sql)
}

// planOn is the compiled, unexecuted plan of sql on ex.
func planOn(t *testing.T, ex *Engine, sql string) *planner.Plan {
	t.Helper()
	p, err := ex.Plan(mustParse(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// withWorkers caps ex's fan-out at n workers, so a test that expects a
// parallel-scan step does not depend on the host's core count.
func withWorkers(ex *Engine, n int) *Engine {
	ex.SetParallelism(n)
	return ex
}

func genMovieDB(t *testing.T, cfg dataset.GenConfig) *storage.Database {
	t.Helper()
	db, err := dataset.GenerateMovieDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// bigDB builds a movie database whose MOVIES table spans multiple morsels,
// clearing the zone-skip row-count gate.
func bigDB(t *testing.T) *storage.Database {
	return genMovieDB(t, dataset.GenConfig{
		Seed: 7, Movies: 3 * planner.MorselRows, Actors: 500, Directors: 21,
		CastPerMovie: 1, GenresPerMovie: 1,
	})
}

// TestPlanShapeVecAggregate: a grouped query inside the fused dialect (column
// group key, COUNT(*), compiled HAVING) reports vec-aggregate in the plan's
// shape, fingerprint and summary.
func TestPlanShapeVecAggregate(t *testing.T) {
	db := genMovieDB(t, dataset.GenConfig{
		Seed: 7, Movies: 2000, Actors: 500, Directors: 21, CastPerMovie: 2, GenresPerMovie: 1,
	})
	p := buildPlan(t, db,
		`select g.genre, count(*) from MOVIES m, GENRE g
		 where m.id = g.mid group by g.genre having count(*) > 1
		 order by count(*) desc limit 5`)
	if len(p.Shape) != 2 {
		t.Fatalf("shape steps = %d, want aggregate + top-k", len(p.Shape))
	}
	if agg := p.Shape[0]; agg.Kind != planner.ShapeVecAggregate {
		t.Fatalf("first shape step = %s", agg.Kind)
	}
	fp := p.Fingerprint()
	for _, want := range []string{">vagg{1,1}+having", ">topk{1,5}"} {
		if !strings.Contains(fp, want) {
			t.Errorf("fingerprint %q missing %q", fp, want)
		}
	}
	s := p.Summarize()
	if len(s.Shape) != 2 || s.Shape[0].Kind != "vec-aggregate" || s.Shape[1].Kind != "top-k" {
		t.Errorf("summary shape = %+v", s.Shape)
	}
}

// TestVecAggGate pins the vectorized-aggregation gate: which grouped queries
// earn the vec-aggregate shape, when a parallel scan is scheduled, and which
// shapes stay on the generic aggregate.
func TestVecAggGate(t *testing.T) {
	db := genMovieDB(t, dataset.GenConfig{
		Seed: 7, Movies: 4000, Actors: 500, Directors: 21, CastPerMovie: 2, GenresPerMovie: 1,
	})
	kinds := shapeKinds
	ex := withWorkers(New(db), 2)

	// Single-table grouped scan over a vectorizable filter: vec-aggregate
	// with a parallel scan (COUNT/MIN merge exactly; the table is large
	// enough to fan out).
	p := planOn(t, ex, `select m.year, count(*), min(m.title) from MOVIES m
		where m.year >= 1960 group by m.year`)
	got := kinds(p)
	if len(got) != 2 || got[0] != planner.ShapeParallelScan || got[1] != planner.ShapeVecAggregate {
		t.Fatalf("shape kinds = %v, want [parallel-scan vec-aggregate]", got)
	}
	if !strings.Contains(p.Fingerprint(), ">pscan>vagg{1,2}") {
		t.Errorf("fingerprint = %q", p.Fingerprint())
	}
	if p.Shape[0].K != 2 {
		t.Errorf("parallel-scan K = %d, want the worker count", p.Shape[0].K)
	}

	// Post-join grouping with AVG over a bounded int column still merges
	// exactly: parallel-scan stays.
	p = planOn(t, ex, `select g.genre, count(*), avg(m.year) from MOVIES m, GENRE g
		where m.id = g.mid group by g.genre`)
	got = kinds(p)
	if len(got) != 2 || got[0] != planner.ShapeParallelScan || got[1] != planner.ShapeVecAggregate {
		t.Fatalf("join shape kinds = %v, want [parallel-scan vec-aggregate]", got)
	}

	// Float sums replicate naive row-order accumulation: vec-aggregate
	// without a parallel scan. (MOVIES has no float column; a non-column
	// aggregate argument must instead fall back entirely.)
	p = planOn(t, ex, `select m.year, sum(m.id + 1) from MOVIES m group by m.year`)
	got = kinds(p)
	if len(got) != 1 || got[0] != planner.ShapeAggregate {
		t.Fatalf("expression-argument shape kinds = %v, want [aggregate]", got)
	}

	// A subquery in HAVING is outside the fused dialect: the row feeder
	// runs it, compiling the subquery at its node.
	p = planOn(t, ex, `select m.year, count(*) from MOVIES m group by m.year
		having count(*) > (select min(g.mid) from GENRE g)`)
	got = kinds(p)
	if len(got) != 1 || got[0] != planner.ShapeAggregate {
		t.Fatalf("subquery-HAVING shape kinds = %v, want [aggregate]", got)
	}

	// A stray (ungrouped, unaggregated) column is a grouping-rule error the
	// row feeder raises: generic aggregate.
	p = planOn(t, ex, `select m.title, count(*) from MOVIES m group by m.year`)
	got = kinds(p)
	if len(got) != 1 || got[0] != planner.ShapeAggregate {
		t.Fatalf("stray-column shape kinds = %v, want [aggregate]", got)
	}

	// A small base table aggregates vectorized but scans serially.
	small := genMovieDB(t, dataset.GenConfig{
		Seed: 9, Movies: 100, Actors: 30, Directors: 3, CastPerMovie: 2, GenresPerMovie: 1,
	})
	p = planOn(t, withWorkers(New(small), 2), `select m.year, count(*) from MOVIES m group by m.year`)
	got = kinds(p)
	if len(got) != 1 || got[0] != planner.ShapeVecAggregate {
		t.Fatalf("small-table shape kinds = %v, want [vec-aggregate]", got)
	}
}

// TestZoneSkipShapeGating pins when a plan carries a zone-skip step: a
// selective vectorizable filter over a multi-morsel full scan qualifies;
// small tables, unselective filters, probes, and prefix-free LIKEs do not.
func TestZoneSkipShapeGating(t *testing.T) {
	big := bigDB(t)
	rows := big.Table("MOVIES").Len()
	morsels := (rows + planner.MorselRows - 1) / planner.MorselRows
	zoneStep := func(p *planner.Plan) *planner.ShapeStep { return shapeStep(p, planner.ShapeZoneSkip) }

	p := buildPlan(t, big, `select m.title from MOVIES m where m.year = 1975`)
	st := zoneStep(p)
	if st == nil {
		t.Fatalf("selective scan lacks zone-skip step: %s", p.Fingerprint())
	}
	if p.Shape[0] != st {
		t.Fatalf("zone-skip step not first in shape: %s", p.Fingerprint())
	}
	if st.K != morsels {
		t.Fatalf("zone-skip K = %d, want %d", st.K, morsels)
	}
	if st.ActualRows != -1 {
		t.Fatalf("unexecuted plan reports ActualRows %d", st.ActualRows)
	}
	if !strings.Contains(p.Fingerprint(), ">zskip") {
		t.Fatalf("fingerprint %q lacks >zskip", p.Fingerprint())
	}
	if !strings.Contains(p.Summarize().Shape[0].Detail, "morsels") {
		t.Fatalf("summary detail %q", p.Summarize().Shape[0].Detail)
	}

	// LIKE with a prefix qualifies; a prefix-free LIKE leaves nothing to probe.
	if p := buildPlan(t, big, `select m.title from MOVIES m where m.title like 'Movie 42%'`); zoneStep(p) == nil {
		t.Fatalf("prefix LIKE lacks zone-skip: %s", p.Fingerprint())
	}
	if p := buildPlan(t, big, `select m.title from MOVIES m where m.title like '%42'`); zoneStep(p) != nil {
		t.Fatalf("suffix LIKE planted zone-skip: %s", p.Fingerprint())
	}
	// Not even one that matches every non-NULL string.
	if p := buildPlan(t, big, `select m.title from MOVIES m where m.title like '%'`); zoneStep(p) != nil {
		t.Fatalf("wildcard-only LIKE planted zone-skip: %s", p.Fingerprint())
	}

	// Unselective: the estimate exceeds the gate, pruning would be wasted work.
	if p := buildPlan(t, big, `select m.title from MOVIES m where m.year != 1975`); zoneStep(p) != nil {
		t.Fatalf("unselective filter planted zone-skip: %s", p.Fingerprint())
	}
	// No filter at all.
	if p := buildPlan(t, big, `select m.title from MOVIES m`); zoneStep(p) != nil {
		t.Fatalf("filterless scan planted zone-skip: %s", p.Fingerprint())
	}
	// Point probe: not a full scan.
	if p := buildPlan(t, big, `select m.title from MOVIES m where m.id = 7`); zoneStep(p) != nil {
		t.Fatalf("pk probe planted zone-skip: %s", p.Fingerprint())
	}

	// Small table: under one morsel there is nothing to skip.
	small := genMovieDB(t, dataset.GenConfig{
		Seed: 7, Movies: 200, Actors: 50, Directors: 7, CastPerMovie: 1, GenresPerMovie: 1,
	})
	if p := buildPlan(t, small, `select m.title from MOVIES m where m.year = 1975`); zoneStep(p) != nil {
		t.Fatalf("small table planted zone-skip: %s", p.Fingerprint())
	}
}

// TestZoneSkipShapeComposes: the step rides in front of vec-aggregate and
// parallel-scan shaping without disturbing them.
func TestZoneSkipShapeComposes(t *testing.T) {
	p := planOn(t, withWorkers(New(bigDB(t)), 2),
		`select m.year, count(*) from MOVIES m where m.year < 1940 group by m.year`)
	fp := p.Fingerprint()
	if !strings.Contains(fp, ">zskip") || !strings.Contains(fp, ">pscan") || !strings.Contains(fp, ">vagg") {
		t.Fatalf("fingerprint %q should compose zskip, pscan and vagg", fp)
	}
	if p.Shape[0].Kind != planner.ShapeZoneSkip {
		t.Fatalf("zone-skip not first: %s", fp)
	}
}

// TestZoneSkipOnlyForAppliedFilters: probes come from the filters the scan
// applies vectorized, and from nothing else. A vectorizable filter behind one
// that is not stays out of the vectorized prefix, and a LIKE prefix that is
// not valid UTF-8 cannot be compared byte-wise with zone bounds; in both cases
// no probe exists, so the plan carries no zone-skip step and no zone is probed.
func TestZoneSkipOnlyForAppliedFilters(t *testing.T) {
	ex := New(bigDB(t))
	for _, sql := range []string{
		`select m.id from MOVIES m where m.year + 0 = 1970 and m.id < 10`,
		"select m.id from MOVIES m where m.title like 'Movie 4\xff%'",
	} {
		probed, _ := ZoneSkipStats()
		res, plan, err := ex.SelectExplained(mustParse(t, sql))
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if hasZoneSkip(plan) {
			t.Errorf("%q: zone-skip step without a probe: %s", sql, plan.Fingerprint())
		}
		if after, _ := ZoneSkipStats(); after != probed {
			t.Errorf("%q: probed %d zones", sql, after-probed)
		}
		ex.SetZoneMapsEnabled(false)
		plain, err := ex.Select(mustParse(t, sql))
		ex.SetZoneMapsEnabled(true)
		if err != nil {
			t.Fatalf("%q with zone maps off: %v", sql, err)
		}
		requireSameResult(t, sql, "zoned", res, "plain", plain)
	}
	// The same vectorizable filter in front is applied, probed and narrated.
	_, plan, err := ex.SelectExplained(mustParse(t, `select m.id from MOVIES m where m.id < 10 and m.year + 0 = 1970`))
	if err != nil {
		t.Fatal(err)
	}
	if !hasZoneSkip(plan) {
		t.Errorf("leading vectorizable filter lost its zone-skip step: %s", plan.Fingerprint())
	}
}

// TestShapeStepsSayWhatRan asserts, over the paper corpus and the vec, zone
// (with and without a sorted dictionary) and aggregation differential
// corpora, what annotating the plan from the compilers gives: zone-skip is in
// the executed plan exactly when the run probed zones, with zone maps
// switched off it is absent, and a grouped query's row-fed twin reports the
// generic aggregate and no parallel scan. It also pins how many zones each corpus
// probes and skips, so a zone verdict that decides less fails here.
func TestShapeStepsSayWhatRan(t *testing.T) {
	movieDB, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	draw := func(templates []func() string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = templates[i%len(templates)]()
		}
		return out
	}
	var paper []string
	for _, label := range sqlparser.PaperQueryOrder {
		if label != "Q0" { // EMP/DEPT schema
			paper = append(paper, sqlparser.PaperQueries[label])
		}
	}
	corpora := []struct {
		name    string
		ex      *Engine
		queries []string
		// probed and skipped are the corpus's zone totals.
		probed, skipped int64
	}{
		{"paper", New(movieDB), paper, 0, 0},
		{"vec", New(vecTestDB(t, 90, 31)), draw(vecTemplates(rand.New(rand.NewSource(77))), 60), 0, 0},
		{"zone", New(zoneTestDB(t, false)), draw(zoneTemplates(rand.New(rand.NewSource(113))), 64), 208, 128},
		{"zone-sorted", New(zoneTestDB(t, true)), draw(zoneTemplates(rand.New(rand.NewSource(113))), 64), 208, 128},
		{"agg", withWorkers(New(aggDiffDB(t, 5000, 303)), 2), aggTemplates(rand.New(rand.NewSource(404)), 40), 31, 2},
	}
	explained := func(t *testing.T, ex *Engine, q string) (plan *planner.Plan, probed, skipped int64) {
		p0, s0 := ZoneSkipStats()
		_, plan, err := ex.SelectExplained(mustParse(t, q))
		p1, s1 := ZoneSkipStats()
		if err != nil {
			return nil, 0, 0
		}
		return plan, p1 - p0, s1 - s0
	}
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			var zoned, fused, parallel int
			var probedAll, skippedAll int64
			for _, q := range c.queries {
				plan, probed, skipped := explained(t, c.ex, q)
				if plan == nil {
					continue // both pipelines raise the error; there is no plan to read
				}
				probedAll += probed
				skippedAll += skipped
				if hasZoneSkip(plan) != (probed > 0) {
					t.Errorf("%s\nzone-skip step %v, zones probed %d: %s", q, hasZoneSkip(plan), probed, plan.Fingerprint())
				}
				if hasParallelScan(plan) && vecAggStep(plan) == nil {
					t.Errorf("%s\nparallel-scan without vec-aggregate: %s", q, plan.Fingerprint())
				}
				if hasZoneSkip(plan) {
					zoned++
				}
				if vecAggStep(plan) != nil {
					fused++
				}
				if hasParallelScan(plan) {
					parallel++
				}

				c.ex.SetZoneMapsEnabled(false)
				plan, probed, _ = explained(t, c.ex, q)
				c.ex.SetZoneMapsEnabled(true)
				if hasZoneSkip(plan) || probed > 0 {
					t.Errorf("%s\nzone maps off: zone-skip step %v, zones probed %d", q, hasZoneSkip(plan), probed)
				}

				if twin, ok := rowFedTwin(t, q); ok {
					plan, _, _ = explained(t, c.ex, twin)
					if plan != nil && (shapeStep(plan, planner.ShapeAggregate) == nil || hasParallelScan(plan)) {
						t.Errorf("%s\nrow-fed twin: shape %v", twin, shapeKinds(plan))
					}
				}
			}
			t.Logf("%d queries: %d zone-skip, %d vec-aggregate, %d parallel-scan", len(c.queries), zoned, fused, parallel)
			if probedAll != c.probed || skippedAll != c.skipped {
				t.Errorf("zones probed %d, skipped %d; want %d, %d", probedAll, skippedAll, c.probed, c.skipped)
			}
			switch c.name {
			case "zone", "zone-sorted":
				if zoned == 0 {
					t.Error("no query of the zone corpus probed a zone")
				}
			case "agg":
				if fused == 0 || parallel == 0 || zoned == 0 {
					t.Errorf("aggregation corpus ran %d fused, %d parallel, %d zone-pruned", fused, parallel, zoned)
				}
			}
		})
	}
}

// TestParallelScanOnlyWhenWorkersRan: the parallel-scan step is in a grouped
// query's plan exactly when its scan runs on more than one worker, with K
// the worker count — in the compiled plan (Plan) and in the executed one
// (SelectExplained) alike — and the narration speaks of workers only then.
func TestParallelScanOnlyWhenWorkersRan(t *testing.T) {
	db := genMovieDB(t, dataset.GenConfig{
		Seed: 7, Movies: 4000, Actors: 500, Directors: 21, CastPerMovie: 1, GenresPerMovie: 1,
	})
	sel := mustParse(t, `select g.genre, count(*), min(g.mid) from GENRE g where g.mid > 1000 group by g.genre`)
	for _, workers := range []int{1, 2, 3} {
		ex := withWorkers(New(db), workers)
		planned, err := ex.Plan(sel)
		if err != nil {
			t.Fatal(err)
		}
		_, ran, err := ex.SelectExplained(sel)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*planner.Plan{planned, ran} {
			if vecAggStep(p) == nil {
				t.Fatalf("%d workers: not on the fused pipeline: %s", workers, p.Fingerprint())
			}
			ps := shapeStep(p, planner.ShapeParallelScan)
			english := querytotext.PlanEnglish(p.Summarize())
			if workers == 1 {
				if ps != nil || strings.Contains(p.Fingerprint(), "pscan") || strings.Contains(english, "worker") {
					t.Errorf("serial run says it fanned out: %s\n%s", p.Fingerprint(), english)
				}
				continue
			}
			if ps == nil || ps.K != workers {
				t.Fatalf("%d workers: parallel-scan step %+v in %s", workers, ps, p.Fingerprint())
			}
			if want := fmt.Sprintf("split into %d contiguous ranges, one per worker", workers); !strings.Contains(english, want) {
				t.Errorf("%d workers: narration lacks %q:\n%s", workers, want, english)
			}
		}
	}
}
