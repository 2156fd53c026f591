package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/planner"
	"repro/internal/querytotext"
	"repro/internal/sqlparser"
)

// TestExplainPlanStatement runs EXPLAIN PLAN through Exec and checks the
// tabular rendering: one row per step, estimated and actual counts filled.
func TestExplainPlanStatement(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	res, n, err := ex.Exec("explain plan " + sqlparser.PaperQueries["Q1"])
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("affected = %d", n)
	}
	if len(res.Columns) != 7 || res.Columns[0] != "step" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("Q1 should plan in 3 steps, got %d rows:\n%s", len(res.Rows), res)
	}
	// The first step must be the selective ACTOR scan; each row carries an
	// actual count >= 0.
	if got := res.Rows[0][2].Text(); !strings.Contains(got, "ACTOR") {
		t.Errorf("first step target = %q, want the filtered ACTOR scan", got)
	}
	for i, row := range res.Rows {
		if row[5].IsNull() || row[5].Int() < 0 {
			t.Errorf("row %d has no actual count: %s", i, row)
		}
	}
}

// TestExplainNarratesHashedSide: an executed hash join reports the side it
// hashed — here the one ACTOR row, not the 1200 CAST rows — in the plan's
// summary and its English, and suggests no index.
func TestExplainNarratesHashedSide(t *testing.T) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 3, Movies: 300, Actors: 100, Directors: 9, CastPerMovie: 4, GenresPerMovie: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := sqlparser.ParseSelect("select m.title from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id and a.id = 7")
	if err != nil {
		t.Fatal(err)
	}
	_, plan, err := New(db).SelectExplained(sel)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Summarize()
	cast := db.Table("CAST").Len()
	if len(s.Steps) != 3 || s.Steps[1].HashSide != planner.HashOuter || s.Steps[1].HashedRows != 1 || s.Steps[1].ScannedRows != cast {
		t.Fatalf("want step 2 to hash the 1 outer row and scan CAST's %d, got %+v", cast, s.Steps)
	}
	text := querytotext.PlanEnglish(s)
	if want := fmt.Sprintf("Step 2 hashes the one row so far and scans CAST (as c, %d rows) once for c.aid = a.id", cast); !strings.Contains(text, want) {
		t.Errorf("narration missing %q:\n%s", want, text)
	}
	if strings.Contains(text, "Tip:") {
		t.Errorf("narration suggests something for a plan without a cross product or residual subquery:\n%s", text)
	}
}

// TestExplainPlanStatementFallback: an outer join, which once fell back to
// the interpreter and explained itself as one "naive pipeline" row, runs a
// plan — real steps with estimated and actual rows — and its narration says
// which side the join keeps and which it pads.
func TestExplainPlanStatementFallback(t *testing.T) {
	db, err := dataset.CuratedEmpDept()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	if _, _, err := ex.Exec("insert into DEPT (did, dname, mgr) values (30, 'R and D', NULL)"); err != nil {
		t.Fatal(err)
	}
	const sql = "select d.dname, e.name from DEPT d left join EMP e on e.did = d.did"
	res, _, err := ex.Exec("explain plan " + sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[1][2].Text() != "EMP e" || res.Rows[1][3].Text() != "left outer join on e.did = d.did" {
		t.Fatalf("outer join rendering:\n%s", res)
	}
	emp := int64(db.Table("EMP").Len())
	for i, row := range res.Rows {
		if row[4].IsNull() || row[5].IsNull() || row[5].Int() < 0 {
			t.Fatalf("step %d has no estimated or actual rows:\n%s", i+1, res)
		}
	}
	// Every employee's department exists, and R and D has none: each matches
	// once and the new department is kept, padded.
	if got := res.Rows[1][5].Int(); got != emp+1 {
		t.Fatalf("the join step saw %d rows, want %d:\n%s", got, emp+1, res)
	}

	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	_, plan, err := ex.SelectExplained(sel)
	if err != nil {
		t.Fatal(err)
	}
	text := querytotext.PlanEnglish(plan.Summarize())
	if want := "keeping every row so far and padding e with NULLs where nothing matches"; !strings.Contains(text, want) {
		t.Fatalf("narration missing %q:\n%s", want, text)
	}
}

// TestPlannedParallelMatchesSerial: the planned pipeline's worker fan-out
// must be invisible — identical rows in identical order at any parallelism.
func TestPlannedParallelMatchesSerial(t *testing.T) {
	old := parallelThreshold
	parallelThreshold = 8 // force the parallel paths on a small database
	defer func() { parallelThreshold = old }()

	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 11, Movies: 300, Actors: 80, Directors: 9, CastPerMovie: 3, GenresPerMovie: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	for _, sql := range []string{
		"select m.title, c.role from MOVIES m, CAST c where m.id = c.mid and c.aid < 40",
		"select m.title, g.genre from MOVIES m, GENRE g where m.id = g.mid and g.genre = 'drama'",
		"select a.name from ACTOR a, CAST c, MOVIES m where a.id = c.aid and c.mid = m.id and m.year > 1980",
	} {
		ex.SetParallelism(1)
		serial, err := ex.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		ex.SetParallelism(4)
		parallel, err := ex.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		ex.SetParallelism(0)
		if len(serial.Rows) != len(parallel.Rows) {
			t.Fatalf("%s: serial %d rows, parallel %d", sql, len(serial.Rows), len(parallel.Rows))
		}
		for i := range serial.Rows {
			for j := range serial.Rows[i] {
				a, b := serial.Rows[i][j], parallel.Rows[i][j]
				if a.IsNull() != b.IsNull() || (!a.IsNull() && !a.Equal(b)) {
					t.Fatalf("%s: row %d differs between serial and parallel", sql, i)
				}
			}
		}
	}
}

// TestPlannedRowsAreIndependent: arena-allocated result rows must not alias
// each other — mutating one (as DML helpers may) cannot corrupt another.
func TestPlannedRowsAreIndependent(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	res, err := ex.Query("select m.id, m.title from MOVIES m where m.year > 1900")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 {
		t.Fatal("need a few rows")
	}
	before := res.Rows[1][1].Text()
	res.Rows[0][1] = res.Rows[0][0] // clobber row 0
	if res.Rows[1][1].Text() != before {
		t.Fatal("mutating one result row changed another (arena aliasing)")
	}
}

// TestExplainPlanShapeRows: grouped/ordered queries render their shaping
// stages as extra EXPLAIN PLAN rows with actual counts filled in.
func TestExplainPlanShapeRows(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	res, _, err := ex.Exec("explain plan select g.genre, count(*) from GENRE g group by g.genre having count(*) > 1 order by count(*) desc limit 2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, row := range res.Rows {
		kinds = append(kinds, row[1].Text())
	}
	joined := strings.Join(kinds, ",")
	if !strings.Contains(joined, "aggregate") || !strings.Contains(joined, "top-k") {
		t.Fatalf("EXPLAIN PLAN missing shaping rows, got kinds %v:\n%s", kinds, res)
	}
	last := res.Rows[len(res.Rows)-1]
	if last[1].Text() != "top-k" || last[5].Int() != 2 {
		t.Errorf("top-k row should report 2 actual rows: %s", last)
	}
	for _, row := range res.Rows {
		if row[1].Text() == "aggregate" && row[5].Int() != 5 {
			t.Errorf("aggregate row actual = %s, want the 5 groups surviving HAVING", row[5])
		}
	}
}

// TestExplainPlanVecAggregate pins the EXPLAIN PLAN rendering of the fused
// vectorized-aggregation shape: a parallel-scan shape row (with the worker
// count and the scanned-row count) followed by a vec-aggregate row. The
// worker count is set, so the rendering does not depend on the host's cores.
func TestExplainPlanVecAggregate(t *testing.T) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 31, Movies: 4000, Actors: 800, Directors: 41, CastPerMovie: 1, GenresPerMovie: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	ex.SetParallelism(2)
	res, _, err := ex.Exec(`explain plan select g.genre, count(*), avg(m.year)
		from MOVIES m, GENRE g where m.id = g.mid group by g.genre having count(*) > 10`)
	if err != nil {
		t.Fatal(err)
	}
	var pscan, vagg []string
	for _, row := range res.Rows {
		switch row[1].Text() {
		case "parallel-scan":
			pscan = []string{row[3].Text(), row[5].String()}
		case "vec-aggregate":
			vagg = []string{row[3].Text(), row[5].String()}
		case "aggregate":
			t.Fatalf("generic aggregate rendered for a vec-aggregate query:\n%s", res)
		}
	}
	if pscan == nil {
		t.Fatalf("no parallel-scan shape row:\n%s", res)
	}
	if pscan[0] != "2 workers over contiguous ranges" {
		t.Errorf("parallel-scan detail = %q", pscan[0])
	}
	if pscan[1] != "4000" {
		t.Errorf("parallel-scan actual rows = %s, want the full scan count", pscan[1])
	}
	if vagg == nil {
		t.Fatalf("no vec-aggregate shape row:\n%s", res)
	}
	if !strings.Contains(vagg[0], "group by g.genre") || !strings.Contains(vagg[0], "having COUNT(*) > 10") {
		t.Errorf("vec-aggregate detail = %q", vagg[0])
	}

	// Fingerprint stability: the same query plans to the same fingerprint,
	// including the new shape markers.
	sel, err := sqlparser.ParseSelect(`select g.genre, count(*), avg(m.year)
		from MOVIES m, GENRE g where m.id = g.mid group by g.genre having count(*) > 10`)
	if err != nil {
		t.Fatal(err)
	}
	_, p1, err := ex.SelectExplained(sel)
	if err != nil {
		t.Fatal(err)
	}
	_, p2, err := ex.SelectExplained(sel)
	if err != nil {
		t.Fatal(err)
	}
	fp := p1.Fingerprint()
	if fp != p2.Fingerprint() {
		t.Fatalf("fingerprint unstable: %q vs %q", fp, p2.Fingerprint())
	}
	if !strings.Contains(fp, ">pscan>vagg{1,2}+having") {
		t.Errorf("fingerprint %q missing the vec shape markers", fp)
	}
}
