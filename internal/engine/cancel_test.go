package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/leakcheck"
	"repro/internal/simtest"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// budgetAfter binds ex to a budget that cancels after n polls and returns
// both. after = 1<<62 never trips and is used to count a query's polls.
func budgetAfter(ex *Engine, n int64) (*Engine, *simtest.PollCancel) {
	ctx := simtest.NewPollCancel(n)
	return ex.WithBudget(budget.New(ctx, 0, 0)), ctx
}

// cancelTestDB is a generated movie DB big enough to trip the parallel and
// vectorized paths once thresholds are lowered.
func cancelTestDB(t testing.TB) *storage.Database {
	t.Helper()
	cfg := dataset.DefaultGenConfig()
	cfg.Movies = 600
	db, err := dataset.GenerateMovieDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCancelDifferentialRandomPoints is the randomized cancel-point
// differential: for every corpus query, cancelling at any poll either
// returns the exact uncancelled answer (the trip came after the last poll)
// or a *CancelError — never a wrong answer, a partial row set, or a hang.
// Run with -race this also proves parallel workers racing a mid-morsel trip
// stay sound.
func TestCancelDifferentialRandomPoints(t *testing.T) {
	defer leakcheck.Check(t)()
	db := cancelTestDB(t)

	oldThreshold := parallelThreshold
	parallelThreshold = 64
	defer func() { parallelThreshold = oldThreshold }()

	// Four workers split every join, aggregation and generic-filter scan past
	// the threshold into four ranges, each polled before it runs, so trips
	// land mid-step on tables of one zone.
	eng := New(db)
	eng.SetParallelism(4)
	rng := rand.New(rand.NewSource(42))
	for _, q := range parallelCorpus {
		sel, err := sqlparser.ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %s: %v", q, err)
		}
		baseline, err := eng.Select(sel)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		baseline = cloneResult(baseline)

		// Count the query's polls with a budget that never trips; also a
		// differential in itself — an untripped budget must not change rows.
		counted, ctr := budgetAfter(eng, 1<<62)
		res, err := counted.Select(sel)
		if err != nil {
			t.Fatalf("%s with inert budget: %v", q, err)
		}
		sameResult(t, q, baseline, res)
		polls := ctr.Polls()
		if polls == 0 {
			t.Fatalf("%s: execution never polled its budget", q)
		}

		// Random cancel points, plus the edges: first poll and last poll.
		points := []int64{0, polls - 1}
		for i := 0; i < 12; i++ {
			points = append(points, rng.Int63n(polls))
		}
		for _, p := range points {
			bex, _ := budgetAfter(eng, p)
			res, err := bex.Select(sel)
			switch {
			case err == nil:
				sameResult(t, q, baseline, res)
			case !IsCancel(err):
				t.Fatalf("%s cancelled at poll %d/%d: non-cancel error %v", q, p, polls, err)
			}
		}
	}
}

// TestCancelDMLLossFree is the DML half of the differential: a cancelled
// INSERT/UPDATE/DELETE must leave the table byte-identical to never having
// run, and a completed one must be byte-identical to the uncancelled run.
// Never half of each.
func TestCancelDMLLossFree(t *testing.T) {
	defer leakcheck.Check(t)()
	stmts := []struct {
		name, sql, rel string
		naive          bool // on the interpreter: its pre-scan resolves the WHERE
	}{
		{name: "insert-select", sql: `insert into GENRE (mid, genre) select distinct c.mid, 'cancelled' from CAST c where c.aid < 40`, rel: "GENRE"},
		{name: "insert-values", sql: `insert into DIRECTOR (id, name) values (9001, 'A'), (9002, 'B'), (9003, 'C')`, rel: "DIRECTOR"},
		{name: "update", sql: `update MOVIES m set year = year + 1 where m.year > 1980`, rel: "MOVIES"},
		{name: "delete", sql: `delete from GENRE g where g.genre = 'drama'`, rel: "GENRE"},
		// One statement per way a WHERE resolves to positions.
		{name: "update-pk-probe", sql: `update MOVIES set year = 1999 where id = 42`, rel: "MOVIES"},
		{name: "delete-pk-probe", sql: `delete from MOVIES where id = 42`, rel: "MOVIES"},
		{name: "delete-non-key-equality", sql: `delete from CAST where aid = 7`, rel: "CAST"},
		{name: "update-vectorized-range", sql: `update MOVIES set year = year + 100 where year between 1960 and 1975`, rel: "MOVIES"},
		{name: "delete-subquery-residual", sql: `delete from DIRECTED where did in (select d.id from DIRECTOR d where d.id < 20)`, rel: "DIRECTED"},
		{name: "update-interpreter-fallback", sql: `update MOVIES m set year = year + 1 where m.year > 1980`, rel: "MOVIES", naive: true},
		{name: "delete-interpreter-fallback", sql: `delete from DIRECTED where did in (select d.id from DIRECTOR d where d.id < 20)`, rel: "DIRECTED", naive: true},
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range stmts {
		t.Run(tc.name, func(t *testing.T) {
			newEngine := func(db *storage.Database) *Engine {
				ex := New(db)
				ex.useOracle(tc.naive)
				return ex
			}
			stmt, err := sqlparser.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			// The uncancelled outcome, on its own database.
			wantDB := cancelTestDB(t)
			wantEng := newEngine(wantDB)
			_, wantN, err := wantEng.ExecStatement(stmt)
			if err != nil {
				t.Fatal(err)
			}
			if wantN == 0 {
				t.Fatalf("%s: statement affects no rows; test is vacuous", tc.name)
			}
			wantAfter := dumpTable(t, wantDB, tc.rel)

			// Poll count for this statement on a fresh database.
			countDB := cancelTestDB(t)
			countEng, ctr := budgetAfter(newEngine(countDB), 1<<62)
			if _, _, err := countEng.ExecStatement(stmt); err != nil {
				t.Fatal(err)
			}
			polls := ctr.Polls()
			if polls == 0 {
				t.Fatalf("%s: DML never polled its budget", tc.name)
			}
			if got := dumpTable(t, countDB, tc.rel); got != wantAfter {
				t.Fatalf("%s: inert budget changed the outcome", tc.name)
			}

			// Every poll point when there are few (a probe polls a handful of
			// times), the edges plus a random sample otherwise.
			var points []int64
			if polls <= 12 {
				for p := int64(0); p < polls; p++ {
					points = append(points, p)
				}
			} else {
				points = []int64{0, polls - 1}
				for i := 0; i < 8; i++ {
					points = append(points, rng.Int63n(polls))
				}
			}
			for _, p := range points {
				db := cancelTestDB(t)
				before := dumpTable(t, db, tc.rel)
				bex, _ := budgetAfter(newEngine(db), p)
				_, n, err := bex.ExecStatement(stmt)
				after := dumpTable(t, db, tc.rel)
				switch {
				case err == nil:
					if n != wantN {
						t.Fatalf("%s at poll %d: affected %d rows, want %d", tc.name, p, n, wantN)
					}
					if after != wantAfter {
						t.Fatalf("%s at poll %d: completed run diverged from uncancelled outcome", tc.name, p)
					}
				case IsCancel(err):
					if after != before {
						t.Fatalf("%s cancelled at poll %d/%d: table changed — cancellation left a trace", tc.name, p, polls)
					}
				default:
					t.Fatalf("%s at poll %d: non-cancel error %v", tc.name, p, err)
				}
			}
		})
	}
}

func dumpTable(t *testing.T, db *storage.Database, rel string) string {
	t.Helper()
	tbl := db.Table(rel)
	if tbl == nil {
		t.Fatalf("no table %s", rel)
	}
	return fmt.Sprint(tbl.Tuples())
}

// TestCancelErrorNarratesProgress pins the error surface: a deadline trip
// reports cause, elapsed time, and the examined/total row counters the
// narration layer renders. MOVIES spans three storage zones, and the scan
// polls once per zone, so the query needs more polls than its budget of two
// allows at any worker count.
func TestCancelErrorNarratesProgress(t *testing.T) {
	eng, _ := budgetAfter(New(bigDB(t)), 2)
	sel, err := sqlparser.ParseSelect(`select m.title from MOVIES m where m.year > 1900`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Select(sel)
	if err == nil {
		t.Fatal("query with a 2-poll budget completed")
	}
	ce, ok := err.(*CancelError)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if ce.Cause != CauseCancelled {
		t.Fatalf("cause %q, want %q", ce.Cause, CauseCancelled)
	}
	if ce.TotalRows == 0 {
		t.Fatal("cancel error lost the planned total-rows counter")
	}
}

// TestCancelDuringHashBuild pins the hash build as a cancellation point. One
// row of S joins a column of 800k rows — the scale at which hashing that
// column whole takes well over 100 ms, as every hash join did before the
// smaller side was the one hashed, with no poll until it was done.
//
// A 2 ms deadline must end the query within 100 ms of expiring, whether it
// expired in the build or the query got in first. A cancellation scripted to
// land in the middle of each build routine — the outer side's scan of B.k, and
// the table side's hashing of it when B joins itself — must stop the query
// there, and the refusal must count the build's rows as examined.
func TestCancelDuringHashBuild(t *testing.T) {
	defer leakcheck.Check(t)()
	const rows = 800_000
	schema := catalog.NewSchema("build")
	if err := schema.AddRelation(&catalog.Relation{
		Name:       "S",
		Attributes: []*catalog.Attribute{{Name: "id", Type: catalog.Int, NotNull: true}, {Name: "k", Type: catalog.Int}},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := schema.AddRelation(&catalog.Relation{
		Name:       "B",
		Attributes: []*catalog.Attribute{{Name: "k", Type: catalog.Int}},
	}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.NewDatabase(schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("S", storage.Tuple{value.NewInt(1), value.NewInt(rows / 2)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := db.Insert("B", storage.Tuple{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	eng := New(db)
	oneRow, err := sqlparser.ParseSelect(`select b.k from S s, B b where s.k = b.k and s.id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	selfJoin, err := sqlparser.ParseSelect(`select b1.k from B b1, B b2 where b1.k = b2.k`)
	if err != nil {
		t.Fatal(err)
	}

	const deadline, slack = 2 * time.Millisecond, 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res, err := eng.WithBudget(budget.New(ctx, 0, 0)).Select(oneRow)
	if took := time.Since(start); took > deadline+slack {
		t.Fatalf("query under a %s deadline returned after %s", deadline, took)
	}
	if err == nil && len(res.Rows) != 1 {
		t.Fatalf("query beat its deadline with %d rows, want 1", len(res.Rows))
	}
	if err != nil && !IsCancel(err) {
		t.Fatalf("non-cancel error %v", err)
	}

	for _, tc := range []struct {
		name      string
		sel       *sqlparser.SelectStmt
		buildFrom int64 // polls before the build's first
		before    int64 // rows examined before the build
	}{
		// Select's own poll, then one before the first outer key is hashed.
		{"outer side hashed", oneRow, 2, 0},
		// Select's own poll and b1's scan, a zone at a time.
		{"table side hashed", selfJoin, 1 + (rows+storage.ZoneRows-1)/storage.ZoneRows, rows},
	} {
		const zonesIn = 50
		bex, _ := budgetAfter(eng, tc.buildFrom+zonesIn)
		_, err := bex.Select(tc.sel)
		ce, ok := err.(*CancelError)
		if !ok {
			t.Fatalf("%s: cancelled %d zones into the build, got error %v", tc.name, zonesIn, err)
		}
		if want := tc.before + (zonesIn+1)*storage.ZoneRows; ce.Rows > want || ce.Rows <= tc.before {
			t.Errorf("%s: refusal counts %d rows examined, want the %d before the build plus at most %d zones of it",
				tc.name, ce.Rows, tc.before, zonesIn+1)
		}
		if want := tc.before + rows; ce.TotalRows != want {
			t.Errorf("%s: refusal counts %d rows to visit, want %d with the build's", tc.name, ce.TotalRows, want)
		}
	}
}

// TestRowQuotaTrips pins the quota half of the budget: no context at all,
// just a rows-examined ceiling.
func TestRowQuotaTrips(t *testing.T) {
	db := cancelTestDB(t)
	eng := New(db).WithBudget(budget.New(context.Background(), 10, 0))
	sel, err := sqlparser.ParseSelect(`select m.title from MOVIES m where m.year > 1900`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Select(sel)
	ce, ok := err.(*CancelError)
	if !ok {
		t.Fatalf("error %v (%T), want row-quota CancelError", err, err)
	}
	if ce.Cause != CauseRowQuota || ce.Limit != 10 {
		t.Fatalf("cause %q limit %d, want %q limit 10", ce.Cause, ce.Limit, CauseRowQuota)
	}
}

// rawWriteCancel is a cancellation source that, at its first poll, makes a
// raw-API insert into ACTOR — a writer outside the engine — and from then
// on reports the request cancelled.
type rawWriteCancel struct {
	db   *storage.Database
	once sync.Once
	err  error // the raw insert's outcome
	done chan struct{}
}

func (c *rawWriteCancel) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *rawWriteCancel) Done() <-chan struct{}       { return c.done }
func (c *rawWriteCancel) Value(any) any               { return nil }
func (c *rawWriteCancel) Err() error {
	c.once.Do(func() {
		c.err = c.db.Insert("ACTOR", storage.Tuple{value.NewInt(777), value.NewText("Raw Writer")})
	})
	return context.Canceled
}

// TestCancelledInsertKeepsConcurrentRawWrite pins that a cancelled INSERT
// cannot take another writer's acknowledged statement down with it: a raw
// insert made while the INSERT runs is in the log when the INSERT is
// cancelled, so recovery restores exactly the tables memory holds.
func TestCancelledInsertKeepsConcurrentRawWrite(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	fs := wal.NewMemFS()
	if _, err := db.EnableDurability(fs, storage.DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx := &rawWriteCancel{db: db, done: make(chan struct{})}
	ex := New(db).WithBudget(budget.New(ctx, 0, 0))
	stmt, err := sqlparser.Parse(`insert into DIRECTOR (id, name) values (9001, 'A'), (9002, 'B')`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ex.ExecStatement(stmt); !IsCancel(err) {
		t.Fatalf("INSERT under a cancelling budget returned %v", err)
	}
	if ctx.err != nil {
		t.Fatalf("raw insert: %v", ctx.err)
	}
	if got := db.Table("ACTOR").Len(); got != 14 {
		t.Fatalf("ACTOR holds %d rows, want the 13 curated plus the raw one", got)
	}
	recovered, err := storage.NewDatabase(dataset.MovieSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.EnableDurability(fs.Clone(), storage.DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, rel := range db.TableNames() {
		if got, want := dumpTable(t, recovered, rel), dumpTable(t, db, rel); got != want {
			t.Errorf("%s recovers as\n%s\nmemory holds\n%s", rel, got, want)
		}
	}
}

// TestInsertPublishesOneVersion pins that a multi-row INSERT is one
// statement to readers: on an in-memory database it publishes one version,
// and a reader pinning snapshots while it runs sees none of its rows or all
// of them.
func TestInsertPublishesOneVersion(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	base := db.Table("DIRECTOR").Len()
	stop, seen := make(chan struct{}), make(chan map[int]bool)
	go func() {
		counts := map[int]bool{}
		for {
			counts[db.Snapshot().Table("DIRECTOR").Len()-base] = true
			select {
			case <-stop:
				seen <- counts
				return
			default:
			}
		}
	}()
	before := db.Published()
	_, n, err := New(db).Exec(`insert into DIRECTOR (id, name) values (9001, 'A'), (9002, 'B'), (9003, 'C'), (9004, 'D')`)
	close(stop)
	counts := <-seen
	if err != nil || n != 4 {
		t.Fatalf("INSERT: n=%d err=%v", n, err)
	}
	if got := db.Published() - before; got != 1 {
		t.Errorf("the INSERT published %d versions, want 1", got)
	}
	for c := range counts {
		if c != 0 && c != 4 {
			t.Errorf("a reader saw %d of the statement's 4 rows", c)
		}
	}
}

// TestCancelledInsertSubqueryLeavesNoTrace cancels a VALUES INSERT at every
// poll, including the polls of a subquery in its second row: a trip there
// is a cancellation like any other, so the first row must not be applied.
func TestCancelledInsertSubqueryLeavesNoTrace(t *testing.T) {
	stmt, err := sqlparser.Parse(`insert into DIRECTOR (id, name) values (9001, 'A'), ((select max(d.id) from DIRECTOR d where d.id < 9000) + 9000, 'B')`)
	if err != nil {
		t.Fatal(err)
	}
	countEng, ctr := budgetAfter(New(cancelTestDB(t)), 1<<62)
	if _, n, err := countEng.ExecStatement(stmt); err != nil || n != 2 {
		t.Fatalf("uncancelled INSERT: n=%d err=%v", n, err)
	}
	polls := ctr.Polls()
	if polls < 3 {
		t.Fatalf("the INSERT polled %d times; want the subquery's polls too", polls)
	}
	for p := int64(0); p < polls; p++ {
		db := cancelTestDB(t)
		before := dumpTable(t, db, "DIRECTOR")
		bex, _ := budgetAfter(New(db), p)
		_, n, err := bex.ExecStatement(stmt)
		switch {
		case err == nil && n == 2:
		case IsCancel(err):
			if after := dumpTable(t, db, "DIRECTOR"); after != before {
				t.Fatalf("cancelled at poll %d/%d: DIRECTOR changed — cancellation left a trace", p, polls)
			}
		default:
			t.Fatalf("at poll %d: n=%d err=%v", p, n, err)
		}
	}
}
