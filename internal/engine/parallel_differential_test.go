package engine

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sqlparser"
)

// parallelCorpus are the query shapes the fan-out paths touch: hash-probe
// joins, base scans with pushed-down filters, multi-join chains, grouping
// over joined envs, subqueries, and ordering.
var parallelCorpus = []string{
	`select m.title from MOVIES m where m.year > 1980`,
	`select m.title, a.name from MOVIES m, CAST c, ACTOR a
	 where m.id = c.mid and c.aid = a.id and m.year > 1975`,
	`select a.name, count(*) from MOVIES m, CAST c, ACTOR a
	 where m.id = c.mid and c.aid = a.id
	 group by a.name having count(*) > 2`,
	`select m.title from MOVIES m, GENRE g
	 where m.id = g.mid and g.genre = 'drama' order by m.title`,
	`select distinct d.name from MOVIES m, DIRECTED r, DIRECTOR d
	 where m.id = r.mid and r.did = d.id and m.year < 2000`,
	`select m.title from MOVIES m
	 where m.id in (select c.mid from CAST c where c.aid < 50)`,
	`select m.title from MOVIES m left join GENRE g on m.id = g.mid
	 where g.genre is null or g.genre = 'comedy'`,
	// Hash joins whose outer side is smaller than the table: the one actor's
	// keys are hashed and CAST.aid scanned for them; in the second, CAST's own
	// filter does not vectorize and runs as a pass of its own before the build.
	`select m.title from MOVIES m, CAST c, ACTOR a
	 where m.id = c.mid and c.aid = a.id and a.id = 7`,
	`select a.name, c.role from ACTOR a, CAST c
	 where a.id = c.aid and a.id < 4 and c.mid + 0 > 10`,
	// A LEFT nested loop whose padded side's ON filter does not vectorize and
	// runs as a pass of its own, and a RIGHT hash join whose unmatched rows
	// workers flag concurrently.
	`select m.title, d.name from MOVIES m left join DIRECTOR d on d.id + 0 < 5
	 where m.year > 2000`,
	`select m.title, g.genre from MOVIES m right join GENRE g
	 on m.id = g.mid and m.year > 1990`,
	// Grouped queries whose subqueries compile at their nodes: the
	// paper's Q7 (a HAVING subquery correlated to a grouping column), and
	// subqueries in an aggregate argument and in an IN over a grouping key.
	sqlparser.PaperQueries["Q7"],
	`select m.year, sum((select count(*) from GENRE g where g.mid = m.id)) from MOVIES m
	 where m.year > 1990 group by m.year
	 having m.year in (select m2.year from MOVIES m2 where m2.id < 300)`,
	// A correlated EXISTS in the residual filter, which workers evaluate over
	// their chunks of the scan, each subquery reading its worker's row.
	`select m.title from MOVIES m where m.year > 1995
	 and exists (select * from DIRECTED r where r.mid = m.id and r.did < 40)`,
}

func cloneResult(r *Result) *Result {
	out := &Result{Columns: append([]string{}, r.Columns...)}
	for _, row := range r.Rows {
		out.Rows = append(out.Rows, row.Clone())
	}
	return out
}

func sameResult(t *testing.T, q string, serial, parallel *Result) {
	t.Helper()
	if len(serial.Columns) != len(parallel.Columns) {
		t.Fatalf("%s: column count differs: %v vs %v", q, serial.Columns, parallel.Columns)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("%s: row count differs: %d vs %d", q, len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		for j := range serial.Rows[i] {
			a, b := serial.Rows[i][j], parallel.Rows[i][j]
			if a.Key() != b.Key() {
				t.Fatalf("%s: row %d col %d differs: %s vs %s (parallel execution must be deterministic)",
					q, i, j, a.Key(), b.Key())
			}
		}
	}
}

// TestParallelVsSerialDifferential proves the parallel hot path is
// observationally identical to serial execution — same rows, same order —
// on a database big enough to trip the fan-out thresholds.
func TestParallelVsSerialDifferential(t *testing.T) {
	cfg := dataset.DefaultGenConfig()
	cfg.Movies = 600
	db, err := dataset.GenerateMovieDB(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Force the parallel paths: the generated tables are in the thousands,
	// so a threshold of 64 guarantees both the env fan-out and the tuple
	// fan-out run even on the smaller steps.
	oldThreshold := parallelThreshold
	parallelThreshold = 64
	defer func() { parallelThreshold = oldThreshold }()

	eng := New(db)
	for _, q := range parallelCorpus {
		sel, err := sqlparser.ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %s: %v", q, err)
		}
		eng.SetParallelism(1)
		serial, err := eng.Select(sel)
		if err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		serial = cloneResult(serial)
		for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
			eng.SetParallelism(workers)
			par, err := eng.Select(sel)
			if err != nil {
				t.Fatalf("parallel(%d) %s: %v", workers, q, err)
			}
			sameResult(t, q, serial, par)
		}
	}
}

// TestParallelPaperCorpus runs every movie paper query through serial and
// parallel engines on the curated database with the threshold forced low,
// so even the paper's own workload exercises the fan-out code.
func TestParallelPaperCorpus(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	oldThreshold := parallelThreshold
	parallelThreshold = 1
	defer func() { parallelThreshold = oldThreshold }()

	eng := New(db)
	for label, q := range sqlparser.PaperQueries {
		if label == "Q0" { // EMP/DEPT schema
			continue
		}
		sel, err := sqlparser.ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %s: %v", label, err)
		}
		eng.SetParallelism(1)
		serial, err := eng.Select(sel)
		if err != nil {
			t.Fatalf("serial %s: %v", label, err)
		}
		serial = cloneResult(serial)
		eng.SetParallelism(0)
		par, err := eng.Select(sel)
		if err != nil {
			t.Fatalf("parallel %s: %v", label, err)
		}
		sameResult(t, label, serial, par)
	}
}

// TestParallelErrorPropagation checks a worker error surfaces instead of
// being swallowed by the fan-out.
func TestParallelErrorPropagation(t *testing.T) {
	cfg := dataset.DefaultGenConfig()
	cfg.Movies = 500
	db, err := dataset.GenerateMovieDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oldThreshold := parallelThreshold
	parallelThreshold = 16
	defer func() { parallelThreshold = oldThreshold }()

	eng := New(db)
	// Division by zero only fails at evaluation time, inside workers.
	_, err = eng.Query(`select m.title from MOVIES m where m.year / (m.year - m.year) > 1`)
	if err == nil {
		t.Fatal("expected evaluation error from parallel scan")
	}
}

// TestResultRowsExactlySized pins late materialization: the projection
// writes straight into a result sized to the rows it holds, serial or fanned
// out, so no result grows past its rows. The first query's filter does not
// vectorize and runs on each kept row as a generic self-filter; the second
// adds a LIMIT the projection stops at; the third joins.
func TestResultRowsExactlySized(t *testing.T) {
	db := cancelTestDB(t)
	oldThreshold := parallelThreshold
	parallelThreshold = 64
	defer func() { parallelThreshold = oldThreshold }()

	eng := New(db)
	for _, q := range []string{
		`select m.title from MOVIES m where m.year + 0 > 1990`,
		`select m.title from MOVIES m where m.year + 0 > 1990 limit 2`,
		`select m.title, g.genre from MOVIES m, GENRE g where m.id = g.mid`,
	} {
		sel, err := sqlparser.ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %s: %v", q, err)
		}
		for _, workers := range []int{1, 4} {
			eng.SetParallelism(workers)
			res, err := eng.Select(sel)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", q, workers, err)
			}
			if len(res.Rows) < 2 {
				t.Fatalf("%s at %d workers: %d rows, want several", q, workers, len(res.Rows))
			}
			if cap(res.Rows) != len(res.Rows) {
				t.Errorf("%s at %d workers: cap(Rows) = %d, len = %d", q, workers, cap(res.Rows), len(res.Rows))
			}
		}
	}
}

// TestJoinStepRecordsWorkers checks that a join step records how many
// workers its rows so far were split over: one when serial, four when four
// may run and the rows pass the lowered threshold.
func TestJoinStepRecordsWorkers(t *testing.T) {
	db := cancelTestDB(t)
	oldThreshold := parallelThreshold
	parallelThreshold = 64
	defer func() { parallelThreshold = oldThreshold }()

	eng := New(db)
	sel := mustParse(t, `select m.title, g.genre from MOVIES m, GENRE g where m.id = g.mid`)
	for _, workers := range []int{1, 4} {
		eng.SetParallelism(workers)
		_, plan, err := eng.SelectExplained(sel)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.Steps[1].Workers; got != workers {
			t.Errorf("at %d workers: the join step records %d (plan %s)", workers, got, plan.Fingerprint())
		}
	}
}

// TestMarkSurvivors holds markSurvivors to setting one bit per kept
// position, over sparse selections and contiguous runs that start and end
// at every offset within a word.
func TestMarkSurvivors(t *testing.T) {
	const first, n = 128, 600
	for lo := first; lo < first+130; lo += 7 {
		for _, hi := range []int{lo + 1, lo + 63, lo + 64, lo + 65, lo + 200, first + n} {
			for _, step := range []int{1, 3} {
				var kept []int32
				for p := lo; p < hi; p += step {
					kept = append(kept, int32(p))
				}
				bits := make([]uint64, n/64+1)
				markSurvivors(bits, first, kept)
				for p := first; p < first+n; p++ {
					i := p - first
					set := bits[i>>6]&(1<<(i&63)) != 0
					if want := slices.Contains(kept, int32(p)); set != want {
						t.Fatalf("kept %d..%d step %d: bit of %d is %v", lo, hi, step, p, set)
					}
				}
			}
		}
	}
}
