package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file proves the fused vectorized-aggregation pipeline agrees with the
// naive environment pipeline (the oracle) as oracleAgrees asks — the same
// rows, in the same order where the plan keeps FROM order, and the same
// errors — across randomized GROUP BY templates with NULL group keys,
// DISTINCT aggregates, HAVING, ORDER BY, and LIMIT; and that parallel
// execution is byte-identical to serial at any worker count. The row feeder
// answers to the oracle in rowfed_differential_test.go.

// aggDiffDB builds a movie database with deliberate NULL pockets: ~1/6 of
// movie years, ~1/4 of cast roles, and ~1/3 of director birth dates are
// NULL, so group keys and aggregate arguments both exercise the NULL paths.
func aggDiffDB(t testing.TB, movies int, seed int64) *storage.Database {
	t.Helper()
	db, err := storage.NewDatabase(dataset.MovieSchema())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	iv := func(n int64) value.Value { return value.NewInt(n) }
	sv := func(s string) value.Value { return value.NewText(s) }
	nullable := func(v value.Value, oneIn int) value.Value {
		if rng.Intn(oneIn) == 0 {
			return value.NewNull()
		}
		return v
	}
	actors := movies / 3
	if actors < 8 {
		actors = 8
	}
	for a := 1; a <= actors; a++ {
		if err := db.Insert("ACTOR", storage.Tuple{iv(int64(a)), sv(fmt.Sprintf("Actor %d", a%37))}); err != nil {
			t.Fatal(err)
		}
	}
	directors := movies / 10
	if directors < 4 {
		directors = 4
	}
	for d := 1; d <= directors; d++ {
		bdate := nullable(value.NewDateDays(int64(rng.Intn(20000))), 3)
		loc := nullable(sv(fmt.Sprintf("City %d", rng.Intn(7))), 5)
		if err := db.Insert("DIRECTOR", storage.Tuple{
			iv(int64(d)), sv(fmt.Sprintf("Director %d", d%23)), bdate, loc,
		}); err != nil {
			t.Fatal(err)
		}
	}
	genres := []string{"action", "drama", "comedy", "noir", "sci-fi"}
	for m := 1; m <= movies; m++ {
		mid := int64(m)
		year := nullable(iv(int64(1950+rng.Intn(50))), 6)
		title := sv(fmt.Sprintf("Movie %d", rng.Intn(movies)))
		if err := db.Insert("MOVIES", storage.Tuple{iv(mid), title, year}); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 1+rng.Intn(3); c++ {
			aid := int64(1 + rng.Intn(actors))
			role := nullable(sv(fmt.Sprintf("Role %d", rng.Intn(13))), 4)
			if err := db.Insert("CAST", storage.Tuple{iv(mid), iv(aid), role}); err != nil {
				// Duplicate (mid, aid) primary keys are fine to skip.
				break
			}
		}
		if rng.Intn(8) != 0 { // some movies have no genre rows at all
			if err := db.Insert("GENRE", storage.Tuple{iv(mid), sv(genres[rng.Intn(len(genres))])}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// aggTemplates generates n randomized grouped queries (aggTemplate) from rng.
func aggTemplates(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = aggTemplate(rng.Intn)
	}
	return out
}

// aggTemplate draws one grouped query, each choice from pick (a value in
// [0, n)): single-table (MOVIES, GENRE and CAST, each with its own
// arguments and filters) and post-join, array-tier (small int/text domains)
// and hash-tier (wide int composites) group keys, NULL-able keys and
// arguments, DISTINCT aggregates over integers and text, text MIN/MAX,
// HAVING, ORDER BY (column, aggregate, ordinal), and LIMIT.
func aggTemplate(pick func(n int) int) string {
	keySets := [][2]string{
		{"m.year", "MOVIES m, CAST c where m.id = c.mid"},
		{"c.role", "MOVIES m, CAST c where m.id = c.mid"},
		{"m.year, c.role", "MOVIES m, CAST c where m.id = c.mid"},
		{"g.genre", "MOVIES m, GENRE g where m.id = g.mid"},
		{"m.year", "MOVIES m"},
		{"g.genre", "GENRE g"},
		{"c.role", "CAST c"},
		// Wide composite of two primary-key columns: the composed domain
		// overflows the array tier, forcing packed-key hashing.
		{"m.id, c.mid", "MOVIES m, CAST c where m.id = c.mid"},
	}
	type pools struct{ aggs, wheres, havings []string }
	joined := pools{
		aggs: []string{
			"count(*)", "count(c.role)", "count(distinct c.role)",
			"sum(m.year)", "avg(m.year)", "min(m.year)", "max(m.year)",
			"min(m.title)", "max(m.title)", "count(distinct m.year)",
		},
		wheres: []string{
			"", "and m.year >= 1960", "and m.year between 1955 and 1995",
			"and m.title like 'Movie 1%'",
		},
		havings: []string{
			"", "having count(*) > 2", "having count(*) > 1000000",
			"having avg(m.year) > 1970", "having min(m.year) is not null",
		},
	}
	single := map[string]pools{
		"MOVIES m": {
			aggs: []string{
				"count(*)", "sum(m.year)", "avg(m.year)", "min(m.title)",
				"max(m.year)", "count(distinct m.year)", "count(m.year)",
				"max(m.title)", "count(distinct m.title)",
			},
			wheres:  joined.wheres,
			havings: joined.havings,
		},
		"GENRE g": {
			aggs: []string{
				"count(*)", "min(g.genre)", "max(g.genre)", "count(distinct g.genre)",
				"sum(g.mid)", "avg(g.mid)", "min(g.mid)", "count(distinct g.mid)",
			},
			wheres:  []string{"", "and g.mid > 300", "and g.genre <> 'drama'"},
			havings: []string{"", "having count(*) > 2", "having min(g.mid) < 100"},
		},
		"CAST c": {
			aggs: []string{
				"count(*)", "count(c.role)", "count(distinct c.role)", "min(c.role)",
				"max(c.role)", "sum(c.aid)", "max(c.aid)", "count(distinct c.aid)",
			},
			wheres:  []string{"", "and c.mid between 100 and 700", "and c.role like 'Role 1%'"},
			havings: []string{"", "having count(*) > 2", "having max(c.role) is not null"},
		},
	}
	ks := keySets[pick(len(keySets))]
	pool, oneTable := single[ks[1]]
	if !oneTable {
		pool = joined
	}
	nAggs := 1 + pick(3)
	sel := ks[0]
	chosen := make([]string, 0, nAggs)
	for j := 0; j < nAggs; j++ {
		a := pool.aggs[pick(len(pool.aggs))]
		sel += ", " + a
		chosen = append(chosen, a)
	}
	from := ks[1]
	if w := pool.wheres[pick(len(pool.wheres))]; w != "" {
		if oneTable {
			from += " where " + w[len("and "):]
		} else {
			from += " " + w
		}
	}
	q := fmt.Sprintf("select %s from %s group by %s", sel, from, ks[0])
	if h := pool.havings[pick(len(pool.havings))]; h != "" {
		q += " " + h
	}
	switch pick(4) {
	case 1:
		q += " order by " + chosen[0] + " desc, 1"
	case 2:
		q += " order by 1"
	case 3:
		q += fmt.Sprintf(" order by %s limit %d", ks[0], 1+pick(5))
	}
	return q
}

func mustSame(t *testing.T, q, labelA, labelB string, a, b *Result, errA, errB error) {
	t.Helper()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("%s: %s err=%v, %s err=%v", q, labelA, errA, labelB, errB)
	}
	if errA != nil {
		if errA.Error() != errB.Error() {
			t.Fatalf("%s: error text differs: %q vs %q", q, errA, errB)
		}
		return
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: %s %d rows, %s %d rows", q, labelA, len(a.Rows), labelB, len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			t.Fatalf("%s: row %d width differs", q, i)
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j].Key() != b.Rows[i][j].Key() {
				t.Fatalf("%s: row %d col %d: %s=%s %s=%s",
					q, i, j, labelA, a.Rows[i][j].Key(), labelB, b.Rows[i][j].Key())
			}
		}
	}
}

// TestVecAggDifferential: randomized grouped templates run on the planned
// pipeline and on the naive environment pipeline (the oracle) and must agree
// as fusedVsOracle asks. The vec path must actually execute for a healthy
// share of templates, and some plan must reorder, or the comparison is
// vacuous.
func TestVecAggDifferential(t *testing.T) {
	db := aggDiffDB(t, 900, 101)
	ex := New(db)
	rng := rand.New(rand.NewSource(202))
	vecRan := 0
	queries := aggTemplates(rng, 60)
	// Fixed date-typed coverage: date group keys, date DISTINCT bitsets,
	// and date MIN/MAX (a planner gate that read date bounds through
	// Value.Float used to panic on exactly this shape).
	queries = append(queries,
		`select d.blocation, count(distinct d.bdate), min(d.bdate), max(d.bdate)
		 from DIRECTOR d group by d.blocation order by 1`,
		`select d.bdate, count(*) from DIRECTOR d group by d.bdate order by 1`,
		`select count(distinct d.bdate) from DIRECTOR d`,
	)
	reordered := 0
	for _, q := range queries {
		fused, r := fusedVsOracle(t, ex, q)
		if fused {
			vecRan++
		}
		if r {
			reordered++
		}
	}
	if vecRan < len(queries)/3 {
		t.Fatalf("vec-aggregate ran for only %d/%d templates — the differential is vacuous", vecRan, len(queries))
	}
	requireReordered(t, reordered)

	// Queries that take the fused pipeline on the engine's own compile-time
	// bounds, the only ones there are: an AVG(DISTINCT) whose float sum is
	// exact over the bitset the engine really allocates (64 codes here) though
	// not over a maxBitsetDomain-wide one, and a star select list that expands
	// to the group keys.
	bounds := New(avgDistinctBoundDB(t))
	for _, q := range []string{
		`select t.g, avg(distinct t.v), count(distinct t.v) from T t group by t.g order by 1`,
		`select avg(distinct t.v) from T t`,
		`select * from T t group by t.id, t.g, t.v order by 1 limit 9`,
	} {
		if fused, _ := fusedVsOracle(t, bounds, q); !fused {
			t.Errorf("%s\ndid not run the fused pipeline", q)
		}
	}
}

// fusedVsOracle runs q through the planned pipeline and the naive
// environment pipeline, which must give the same error or the rows
// oracleAgrees asks for. It reports whether the planned run really was fused
// and whether its plan reordered the joins.
func fusedVsOracle(t *testing.T, ex *Engine, q string) (fused, reordered bool) {
	t.Helper()
	sel, err := sqlparser.ParseSelect(q)
	if err != nil {
		t.Fatalf("template %q does not parse: %v", q, err)
	}
	vecRes, plan, vecErr := ex.SelectExplained(sel)
	fused = vecErr == nil && vecAggStep(plan) != nil

	ex.useOracle(true)
	naiveRes, naiveErr := ex.Select(sel)
	ex.useOracle(false)
	if vecErr != nil || naiveErr != nil {
		mustSame(t, q, "vec", "naive", vecRes, naiveRes, vecErr, naiveErr)
		return fused, false
	}
	oracleAgrees(t, ex, sel, plan, vecRes, naiveRes)
	return fused, reorders(plan)
}

// TestVecAggReorderedJoins: grouped queries over a join the planner reorders
// — U's selective filter puts U's scan first — run the fused pipeline, are
// identical serial and parallel, and equal the oracle as multisets: exactly for integer aggregates, within a
// relative 1e-12 for float SUM and AVG, which the pipeline adds in U's order
// and the interpreter in T's. Both join access paths are covered (t.id is
// T's primary key, t.k an unindexed copy of it) and both grouping tiers
// (t.k, u.tag overflows the array domain).
func TestVecAggReorderedJoins(t *testing.T) {
	oldThreshold := parallelThreshold
	parallelThreshold = 8
	defer func() { parallelThreshold = oldThreshold }()

	schema := catalog.NewSchema("reordered")
	for _, rel := range []*catalog.Relation{
		{Name: "T", PrimaryKey: []string{"id"}, Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true}, {Name: "g", Type: catalog.Int},
			{Name: "k", Type: catalog.Int}, {Name: "f", Type: catalog.Float}}},
		{Name: "U", PrimaryKey: []string{"id"}, Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true}, {Name: "tid", Type: catalog.Int}, {Name: "tag", Type: catalog.Int}}},
	} {
		if err := schema.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	db, err := storage.NewDatabase(schema)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < n; i++ {
		f := value.NewFloat(rng.Float64() * 1000)
		if rng.Intn(10) == 0 {
			f = value.NewNull()
		}
		id := value.NewInt(int64(i))
		if err := db.Insert("T", storage.Tuple{id, value.NewInt(int64(rng.Intn(6))), id, f}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("U", storage.Tuple{id, value.NewInt(int64(rng.Intn(n))), value.NewInt(int64(rng.Intn(50)))}); err != nil {
			t.Fatal(err)
		}
	}
	ex := New(db)
	keys := []string{"t.g", "u.tag", "t.g, u.tag", "t.k, u.tag"}
	joins := []string{"t.id = u.tid", "t.k = u.tid"}
	filters := []string{"u.tag < 3", "u.tag = 7", "u.tag between 10 and 12"}
	aggs := []string{"count(*)", "sum(u.tag)", "avg(u.tag)", "count(distinct u.tag)", "sum(t.f)", "avg(t.f)", "min(t.f)", "max(t.f)"}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	parallel := 0
	for i := 0; i < 40; i++ {
		k := pick(keys)
		q := fmt.Sprintf("select %s, %s, %s from T t, U u where %s and %s group by %s",
			k, pick(aggs), pick(aggs), pick(joins), pick(filters), k)
		if i%3 == 0 {
			q += " order by 1 limit 4"
		}
		if fused, reordered := fusedVsOracle(t, ex, q); !fused || !reordered {
			t.Fatalf("%s\nfused %v, reordered %v: want the fused pipeline on a reordered plan", q, fused, reordered)
		}
		sel, err := sqlparser.ParseSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		ex.SetParallelism(1)
		serialRes, serialErr := ex.Select(sel)
		ex.SetParallelism(4)
		parRes, plan, parErr := ex.SelectExplained(sel)
		ex.SetParallelism(0)
		if parErr == nil && hasParallelScan(plan) {
			parallel++
		}
		mustSame(t, q, "serial", "parallel", serialRes, parRes, serialErr, parErr)
	}
	if parallel == 0 {
		t.Fatal("no template ran a parallel scan — the serial/parallel comparison is vacuous")
	}
}

// avgDistinctBoundDB builds T(id, g, v) with v in [2^40, 2^40+50): 64·max|v|
// stays below 2^53 while maxBitsetDomain·max|v| does not.
func avgDistinctBoundDB(t *testing.T) *storage.Database {
	t.Helper()
	schema := catalog.NewSchema("bounds")
	if err := schema.AddRelation(&catalog.Relation{
		Name: "T",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "g", Type: catalog.Int},
			{Name: "v", Type: catalog.Int},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.NewDatabase(schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 600; i++ {
		v := value.NewInt(int64(1)<<40 + int64(rng.Intn(50)))
		if rng.Intn(9) == 0 {
			v = value.NewNull()
		}
		if err := db.Insert("T", storage.Tuple{value.NewInt(int64(i)), value.NewInt(int64(i % 7)), v}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestVecAggParallelDifferential: parallel aggregation over contiguous scan
// ranges must be byte-identical to serial execution at any worker count. The
// threshold shrinks so every base scan of a small database fans out.
func TestVecAggParallelDifferential(t *testing.T) {
	oldThreshold := parallelThreshold
	parallelThreshold = 8
	defer func() { parallelThreshold = oldThreshold }()

	db := aggDiffDB(t, 2500, 303)
	ex := New(db)
	rng := rand.New(rand.NewSource(404))
	parallelRan := 0
	queries := aggTemplates(rng, 40)
	for _, q := range queries {
		sel, err := sqlparser.ParseSelect(q)
		if err != nil {
			t.Fatalf("template %q does not parse: %v", q, err)
		}
		ex.SetParallelism(1)
		serialRes, serialErr := ex.Select(sel)
		ex.SetParallelism(7) // ranges that cut zones and scan-ordered groups unevenly
		parRes, plan, parErr := ex.SelectExplained(sel)
		ex.SetParallelism(0)
		if parErr == nil && hasParallelScan(plan) {
			parallelRan++
		}
		mustSame(t, q, "serial", "parallel", serialRes, parRes, serialErr, parErr)
	}
	if parallelRan < len(queries)/4 {
		t.Fatalf("parallel-scan ran for only %d/%d templates — the differential is vacuous", parallelRan, len(queries))
	}
}

// TestVecAggDistinctSelect: grouped queries under SELECT DISTINCT and the
// empty-input single-group rule shape identically across pipelines.
func TestVecAggDistinctSelect(t *testing.T) {
	db := aggDiffDB(t, 400, 505)
	ex := New(db)
	for _, q := range []string{
		`select distinct m.year, count(*) from MOVIES m group by m.year order by 1 limit 7`,
		`select count(*), sum(m.year), min(m.title) from MOVIES m where m.year > 3000`,
		`select count(distinct m.year) from MOVIES m`,
	} {
		sel, err := sqlparser.ParseSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		vecRes, vecErr := ex.Select(sel)
		ex.useOracle(true)
		naiveRes, naiveErr := ex.Select(sel)
		ex.useOracle(false)
		mustSame(t, q, "vec", "naive", vecRes, naiveRes, vecErr, naiveErr)
	}
}

// TestVecAggShapeDowngrade: a query's expression-key twin runs on the row
// feeder, and its executed plan's shape narrates the generic aggregate —
// never a path that did not run.
func TestVecAggShapeDowngrade(t *testing.T) {
	db := aggDiffDB(t, 2500, 606)
	ex := New(db)
	ex.SetParallelism(2)
	sel, err := sqlparser.ParseSelect(`select m.year, count(*) from MOVIES m group by m.year`)
	if err != nil {
		t.Fatal(err)
	}
	_, plan, err := ex.SelectExplained(sel)
	if err != nil {
		t.Fatal(err)
	}
	if vecAggStep(plan) == nil || !hasParallelScan(plan) {
		t.Fatalf("fused run should report vec-aggregate + parallel-scan, got %v", shapeKinds(plan))
	}
	twin, err := sqlparser.ParseSelect(`select m.year + 0, count(*) from MOVIES m group by m.year + 0`)
	if err != nil {
		t.Fatal(err)
	}
	_, plan, err = ex.SelectExplained(twin)
	if err != nil {
		t.Fatal(err)
	}
	if vecAggStep(plan) != nil || hasParallelScan(plan) {
		t.Fatalf("row-fed run must downgrade the shape, got %v", shapeKinds(plan))
	}
	if len(plan.Shape) != 1 || plan.Shape[0].Kind != planner.ShapeAggregate {
		t.Fatalf("downgraded shape = %v", shapeKinds(plan))
	}
	if plan.Shape[0].ActualRows < 0 {
		t.Fatal("downgraded aggregate step did not record its actual row count")
	}
}

func shapeKinds(plan *planner.Plan) []planner.ShapeKind {
	var out []planner.ShapeKind
	for _, sh := range plan.Shape {
		out = append(out, sh.Kind)
	}
	return out
}

// TestVecAggTiesAcrossChunks puts compare-equal but distinct payloads in
// different workers' scan ranges: integer group keys and MIN/MAX arguments
// 2^53 and 2^53+1, which share one float image, and float ones -0.0 and
// +0.0. Row 0 holds the first-seen payload, in worker 0's range; its twin is
// the last row, in the last worker's range. The serial accumulator keeps the
// first-seen payload as the group's key and as its MIN and MAX, so every
// worker count must give the serial answer payload for payload (an Int stays
// an Int, -0.0 stays -0.0), and that answer must be the oracle's.
func TestVecAggTiesAcrossChunks(t *testing.T) {
	schema := catalog.NewSchema("ties")
	if err := schema.AddRelation(&catalog.Relation{
		Name: "T", PrimaryKey: []string{"id"}, Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "k", Type: catalog.Int}, {Name: "v", Type: catalog.Int},
			{Name: "fk", Type: catalog.Float}, {Name: "fv", Type: catalog.Float}},
	}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.NewDatabase(schema)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8400 // past the parallel gate and two zones; 2, 3 and 7 workers split it evenly
	const big = int64(1) << 53
	negZero := math.Copysign(0, -1)
	for i := 0; i < n; i++ {
		k, v := int64(i%5), int64(i)
		fk, fv := float64(i%4)+0.5, float64(i)+0.5
		switch i {
		case 0:
			k, v, fk, fv = big, big, negZero, negZero
		case n - 1:
			k, v, fk, fv = big+1, big+1, 0, 0
		}
		if err := db.Insert("T", storage.Tuple{value.NewInt(int64(i)), value.NewInt(k), value.NewInt(v),
			value.NewFloat(fk), value.NewFloat(fv)}); err != nil {
			t.Fatal(err)
		}
	}
	ex := New(db)
	for _, q := range []string{
		`select t.k, count(*), min(t.v), max(t.v) from T t group by t.k`,
		`select t.fk, count(*), min(t.fv), max(t.fv) from T t group by t.fk`,
		`select min(t.v), max(t.v), min(t.fv), max(t.fv), count(*) from T t where t.k > 1000`,
	} {
		sel := mustParse(t, q)
		ex.SetParallelism(1)
		serial, err := ex.Select(sel)
		if err != nil {
			t.Fatal(err)
		}
		want := payloads(serial)
		ex.useOracle(true)
		oracle, err := ex.Select(sel)
		ex.useOracle(false)
		if err != nil {
			t.Fatal(err)
		}
		if got := payloads(oracle); got != want {
			t.Fatalf("%s\nserial:\n%soracle:\n%s", q, want, got)
		}
		for _, workers := range []int{2, 3, 7} {
			ex.SetParallelism(workers)
			res, plan, err := ex.SelectExplained(sel)
			if err != nil {
				t.Fatal(err)
			}
			if !hasParallelScan(plan) {
				t.Fatalf("%s at %d workers: plan %s ran serially", q, workers, plan.Fingerprint())
			}
			if got := payloads(res); got != want {
				t.Fatalf("%s at %d workers:\n%swant (serial):\n%s", q, workers, got, want)
			}
		}
	}
}

// payloads renders a result exactly: kind and payload bits of every value.
func payloads(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			switch v.Kind() {
			case value.Int:
				fmt.Fprintf(&b, "i%d ", v.Int())
			case value.Float:
				fmt.Fprintf(&b, "f%x ", math.Float64bits(v.Float()))
			default:
				fmt.Fprintf(&b, "%s ", v.Key())
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestVecAggBatchEdges holds the fused aggregation's batch edges to the
// oracle, at one worker and at GOMAXPROCS (and three) workers, payload for
// payload. T spans three full zones and a partial one. Only the middle zone
// holds NULL keys and NULL arguments, so the typed loops read the NULL
// bitmap there and take the zone maps' word for it elsewhere. Key 100 is
// first seen at position 1023, the last of the scan's first selection
// vector, and key 101 at position 255, the last of the first group-number
// batch. Compare-equal but distinct MIN/MAX payloads (2^53 and 2^53+1, -0.0
// and +0.0) tie inside one vector, where the first seen must win. Joined
// with U, every worker's tail batch of joined rows fills and flushes many
// times within its range, and the range's last rows flush at its end.
func TestVecAggBatchEdges(t *testing.T) {
	schema := catalog.NewSchema("edges")
	for _, r := range []*catalog.Relation{
		{Name: "T", PrimaryKey: []string{"id"}, Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "k", Type: catalog.Int}, {Name: "s", Type: catalog.Text},
			{Name: "v", Type: catalog.Int}, {Name: "f", Type: catalog.Float}}},
		{Name: "U", PrimaryKey: []string{"id"}, Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "tid", Type: catalog.Int}, {Name: "w", Type: catalog.Int}}},
	} {
		if err := schema.AddRelation(r); err != nil {
			t.Fatal(err)
		}
	}
	db, err := storage.NewDatabase(schema)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3*storage.ZoneRows + 1500
	const big = int64(1) << 53
	null := value.NewNull()
	var rows, urows []storage.Tuple
	for i := 0; i < n; i++ {
		k, s := value.NewInt(int64(i%7)), value.NewText(fmt.Sprintf("s%d", i%11))
		v, f := value.NewInt(int64(i*37%1001)), value.NewFloat(float64(i)*0.5+1)
		switch i {
		case 255:
			k = value.NewInt(101)
		case 1023, 9000:
			k = value.NewInt(100)
		// Rows 3, 10, 17 and 24 are in group 3, rows 5 and 12 in group 5.
		case 3:
			v = value.NewInt(big)
		case 10:
			v = value.NewInt(big + 1)
		case 17:
			v = value.NewInt(-big - 1)
		case 24:
			v = value.NewInt(-big)
		case 5:
			f = value.NewFloat(math.Copysign(0, -1))
		case 12:
			f = value.NewFloat(0)
		}
		if i>>storage.ZoneShift == 1 {
			if i%5 == 0 {
				k = null
			}
			if i%3 == 0 {
				s = null
			}
			if i%4 == 0 {
				v, f = null, null
			}
		}
		rows = append(rows, storage.Tuple{value.NewInt(int64(i)), k, s, v, f})
		for j := 0; j < i%3; j++ {
			urows = append(urows, storage.Tuple{value.NewInt(int64(len(urows))), value.NewInt(int64(i)), value.NewInt(int64(i % 13))})
		}
	}
	for rel, tuples := range map[string][]storage.Tuple{"T": rows, "U": urows} {
		if _, err := db.InsertRows(context.Background(), rel, tuples); err != nil {
			t.Fatal(err)
		}
	}
	kcol := db.Table("T").Col(1)
	if kcol.ZoneNulls(0) != 0 || kcol.ZoneNulls(1) == 0 || kcol.ZoneNulls(2) != 0 || kcol.ZoneNulls(3) != 0 {
		t.Fatal("T.k: NULLs are not confined to the middle zone")
	}

	ex := New(db)
	for _, q := range []string{
		`select t.k, count(*), count(t.v), sum(t.v), min(t.v), max(t.v), min(t.f), max(t.f) from T t group by t.k`,
		`select t.s, count(*), min(t.s), max(t.s), count(distinct t.s), count(distinct t.k) from T t group by t.s`,
		`select t.k, t.s, count(t.f), max(t.v) from T t where t.id > 200 group by t.k, t.s`,
		`select t.f, count(*), min(t.v) from T t where t.k = 5 group by t.f`,
		`select t.k, count(*) from T t where t.id = 1023 group by t.k`,
		`select t.k, count(*), sum(u.w), min(t.v), max(t.v), max(u.w) from T t, U u where t.id = u.tid group by t.k`,
		`select u.w, t.s, count(*), min(t.f), count(distinct t.s) from T t, U u where t.id = u.tid and u.w > 3 group by u.w, t.s`,
		`select t.k, count(*), max(u.w) from T t, U u where t.id = 1023 and u.tid = t.id group by t.k`,
	} {
		sel := mustParse(t, q)
		var want string
		for _, workers := range []int{1, runtime.GOMAXPROCS(0), 3} {
			ex.SetParallelism(workers)
			fused, _ := fusedVsOracle(t, ex, q)
			if !fused {
				t.Fatalf("%s at %d workers did not run vec-aggregate", q, workers)
			}
			res, err := ex.Select(sel)
			if err != nil {
				t.Fatal(err)
			}
			if got := payloads(res); want == "" {
				want = got
			} else if got != want {
				t.Fatalf("%s at %d workers:\n%swant (one worker):\n%s", q, workers, got, want)
			}
		}
		if !strings.Contains(q, " U u") {
			ex.useOracle(true)
			oracle, err := ex.Select(sel)
			ex.useOracle(false)
			if err != nil {
				t.Fatal(err)
			}
			if got := payloads(oracle); got != want {
				t.Fatalf("%s\nfused:\n%soracle:\n%s", q, want, got)
			}
		}
	}
	ex.SetParallelism(0)
}
