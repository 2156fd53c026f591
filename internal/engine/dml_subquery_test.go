package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/storage"
)

// execWithin runs sql on ex and fails the test if it has not returned within
// a few seconds — a statement that deadlocks must fail, not hang the suite.
func execWithin(t *testing.T, ex *Engine, sql string) (int, error) {
	t.Helper()
	type outcome struct {
		n   int
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, n, err := ex.Exec(sql)
		done <- outcome{n, err}
	}()
	select {
	case o := <-done:
		return o.n, o.err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", sql)
		return 0, nil
	}
}

// TestUpdateSetSubqueryReadsPreStatement: a subquery in UPDATE's SET reads
// the database as it stood before the statement — it neither deadlocks on
// the write lock the apply holds nor sees the rows the statement has already
// replaced — and the interpreter agrees.
func TestUpdateSetSubqueryReadsPreStatement(t *testing.T) {
	year := func(t *testing.T, ex *Engine, id int) int64 {
		t.Helper()
		res, err := ex.Query(fmt.Sprintf("select m.year from MOVIES m where m.id = %d", id))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("reading movie %d: %v %v", id, res, err)
		}
		return res.Rows[0][0].Int()
	}
	stmts := []string{
		"update MOVIES set year = (select max(m2.year) from MOVIES m2) where id = 100",
		// Every updated row sees the pre-statement maximum, not one the
		// statement itself raised.
		"update MOVIES set year = (select max(m2.year) from MOVIES m2) + 1 where year < 2000",
		// Correlated with the row being updated, over the column being updated.
		"update MOVIES m set year = (select count(*) from MOVIES m2 where m2.year <= m.year) where m.id > 100",
	}
	run := func(oracle bool) (*Engine, []int) {
		db, err := dataset.CuratedMovieDB()
		if err != nil {
			t.Fatal(err)
		}
		ex := New(db)
		ex.useOracle(oracle)
		var affected []int
		for i, sql := range stmts {
			n, err := execWithin(t, ex, sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			affected = append(affected, n)
			switch i {
			case 0:
				if got := year(t, ex, 100); got != 2008 {
					t.Fatalf("oracle=%v: movie 100's year = %d, want 2008", oracle, got)
				}
			case 1:
				res, err := ex.Query("select count(*) from MOVIES m where m.year = 2009")
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Rows[0][0].Int(); got != int64(n) || n < 2 {
					t.Fatalf("oracle=%v: %d rows raised to 2009, want all %d the statement updated", oracle, got, n)
				}
			}
		}
		return ex, affected
	}
	planned, nP := run(false)
	naive, nN := run(true)
	if fmt.Sprint(nP) != fmt.Sprint(nN) {
		t.Fatalf("affected rows: planned %v, interpreter %v", nP, nN)
	}
	if got, want := dumpTable(t, planned.Database(), "MOVIES"), dumpTable(t, naive.Database(), "MOVIES"); got != want {
		t.Fatalf("MOVIES differs between planned and interpreted SET:\n%s\nvs\n%s", got, want)
	}
}

// TestInsertValuesSubqueryReadsPreStatement pins INSERT's statement-level
// reads: every VALUES row is evaluated before any row applies, so a subquery
// over the target table sees it as it stood before the statement. Both rows
// here compute id 1006 from the six curated directors; the second is refused
// as a duplicate and the first, applied before it, stays. (When one row could
// see the one before it, the ids were 1006 and 1007.) The interpreter agrees.
func TestInsertValuesSubqueryReadsPreStatement(t *testing.T) {
	const sql = "insert into DIRECTOR (id, name) values " +
		"((select count(*) from DIRECTOR) + 1000, 'a'), ((select count(*) from DIRECTOR) + 1000, 'b')"
	for _, oracle := range []bool{false, true} {
		db, err := dataset.CuratedMovieDB()
		if err != nil {
			t.Fatal(err)
		}
		ex := New(db)
		ex.useOracle(oracle)
		n, err := execWithin(t, ex, sql)
		if err == nil || !strings.Contains(err.Error(), "duplicate primary key 1006") {
			t.Fatalf("oracle=%v: %d rows, error %v; want the second row refused as a duplicate of 1006", oracle, n, err)
		}
		if n != 1 {
			t.Fatalf("oracle=%v: %d rows applied, want the first", oracle, n)
		}
		res, err := ex.Query("select d.id, d.name from DIRECTOR d where d.id >= 1000")
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(res.Rows); got != "[(1006, a)]" {
			t.Fatalf("oracle=%v: inserted directors %s, want [(1006, a)]", oracle, got)
		}
	}
}

// TestUpdateErrorOrder pins which error an UPDATE reports when one row's SET
// fails to evaluate and another row is refused by a constraint: the
// evaluation error when its row comes no later than the refused one (the
// statement reached it), the refusal when the failing row comes after it. A
// row whose SET fails stays as it was. The interpreter agrees.
func TestUpdateErrorOrder(t *testing.T) {
	for _, tc := range []struct {
		sql     string
		n       int
		err     string
		ageOfE1 int64
	}{
		// Row eid 1 fails to evaluate and stays; row eid 2's new key 5
		// belongs to row eid 5.
		{"update EMP e set eid = 5, age = 1 / (e.eid - 1)", 1, "engine: division by zero", 52},
		// Row eid 1's new key is refused before row eid 4 fails.
		{"update EMP e set eid = 5, age = 1 / (e.eid - 4)", 0, "storage: duplicate primary key 5 in EMP", 52},
		// No refusal: every row but eid 1 updates.
		{"update EMP e set age = 1 / (e.eid - 1)", 6, "engine: division by zero", 52},
	} {
		for _, oracle := range []bool{false, true} {
			db, err := dataset.CuratedEmpDept()
			if err != nil {
				t.Fatal(err)
			}
			ex := New(db)
			ex.useOracle(oracle)
			n, err := execWithin(t, ex, tc.sql)
			if n != tc.n || fmt.Sprint(err) != tc.err {
				t.Errorf("oracle=%v %s: %d, %v; want %d, %s", oracle, tc.sql, n, err, tc.n, tc.err)
			}
			res, qerr := ex.Query("select e.age from EMP e where e.eid = 1")
			if qerr != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != tc.ageOfE1 {
				t.Errorf("oracle=%v %s: row eid 1 reads %v (%v), want age %d", oracle, tc.sql, res, qerr, tc.ageOfE1)
			}
			// A follower refuses the statement before its first row: the
			// refusal, not the evaluation error, is reported.
			db.SetReadOnly(true)
			if n, err := execWithin(t, ex, tc.sql); n != 0 || !errors.Is(err, storage.ErrReadOnlyReplica) {
				t.Errorf("oracle=%v %s on a follower: %d, %v", oracle, tc.sql, n, err)
			}
		}
	}
}
