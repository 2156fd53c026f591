package engine

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sqlparser"
)

// bothPipelines runs fn once with the planner on and once forced naive.
func bothPipelines(t *testing.T, ex *Engine, fn func(t *testing.T)) {
	t.Helper()
	ex.useOracle(false)
	t.Run("planned", fn)
	ex.useOracle(true)
	t.Run("naive", fn)
	ex.useOracle(false)
}

// TestOrderByOrdinal pins the ordinal ORDER BY bugfix: `ORDER BY 2 DESC`
// must sort by the second select-list column. Before the fix the integer
// literal evaluated to a constant key and the stable sort silently left the
// rows in FROM order.
func TestOrderByOrdinal(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	bothPipelines(t, ex, func(t *testing.T) {
		res, err := ex.Query("select m.title, m.year from MOVIES m order by 2 desc, 1 asc")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) < 3 {
			t.Fatalf("want the full table, got %d rows", len(res.Rows))
		}
		for i := 1; i < len(res.Rows); i++ {
			prev, cur := res.Rows[i-1], res.Rows[i]
			if prev[1].Int() < cur[1].Int() {
				t.Fatalf("row %d: year %d before %d — ordinal ORDER BY 2 DESC did not sort", i, prev[1].Int(), cur[1].Int())
			}
			if prev[1].Int() == cur[1].Int() && prev[0].Text() > cur[0].Text() {
				t.Fatalf("row %d: title tiebreak not ascending", i)
			}
		}
		// The sort must actually have moved something: the max year leads.
		first := res.Rows[0][1].Int()
		for _, r := range res.Rows {
			if r[1].Int() > first {
				t.Fatalf("first row year %d is not the maximum %d", first, r[1].Int())
			}
		}
	})
}

// TestOrderByOrdinalOutOfRange: out-of-range and non-positive ordinals are
// errors, identically on both pipelines.
func TestOrderByOrdinalOutOfRange(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	for _, sql := range []string{
		"select m.title, m.year from MOVIES m order by 3",
		"select m.title from MOVIES m order by 0",
		"select m.title from MOVIES m order by -1 desc",
	} {
		comparePlannedNaive(t, ex, sql)
		if _, err := ex.Query(sql); err == nil || !strings.Contains(err.Error(), "not in the select list") {
			t.Errorf("%s: want out-of-range ordinal error, got %v", sql, err)
		}
	}
	// A non-integer literal stays a constant key: no error, original order.
	comparePlannedNaive(t, ex, "select m.title from MOVIES m order by 'a' desc")
}

// TestOrderByAggregateGrouped pins the second bugfix: ORDER BY over an
// aggregate that is not in the select list is standard SQL and must order
// the groups, on both pipelines.
func TestOrderByAggregateGrouped(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	for _, sql := range []string{
		"select g.genre from GENRE g group by g.genre order by count(*) desc, g.genre",
		"select g.genre, count(*) from GENRE g group by g.genre order by count(*) desc",
		"select g.genre from GENRE g group by g.genre order by sum(g.mid) desc limit 3",
		"select m.year from MOVIES m group by m.year order by count(*) desc, min(m.title)",
	} {
		comparePlannedNaive(t, ex, sql)
	}
	bothPipelines(t, ex, func(t *testing.T) {
		res, err := ex.Query("select g.genre from GENRE g group by g.genre order by count(*) desc, g.genre")
		if err != nil {
			t.Fatalf("ORDER BY <aggregate> rejected: %v", err)
		}
		if len(res.Rows) == 0 || res.Rows[0][0].Text() != "drama" {
			t.Fatalf("drama (5 movies) should sort first, got %v", res.Rows)
		}
	})
}

// TestGroupedColumnRule pins the third bugfix: a select item or HAVING term
// referencing a column that is neither grouped nor aggregated is an error,
// not a silent first-row lookup.
func TestGroupedColumnRule(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	bad := []string{
		"select m.title, count(*) from MOVIES m group by m.year",
		"select m.year, count(*) from MOVIES m group by m.year having m.title = 'x'",
		"select m.title from MOVIES m group by m.year order by m.title",
		"select m.title, count(*) from MOVIES m",
	}
	for _, sql := range bad {
		comparePlannedNaive(t, ex, sql)
		if _, err := ex.Query(sql); err == nil || !strings.Contains(err.Error(), "must appear in GROUP BY or an aggregate") {
			t.Errorf("%s: want grouping-rule error, got %v", sql, err)
		}
	}
	good := []string{
		// Unqualified select item matching a qualified GROUP BY column.
		"select year, count(*) from MOVIES m group by m.year",
		// Grouping expression reused verbatim.
		"select m.year + 1, count(*) from MOVIES m group by m.year + 1",
		// Correlated subquery in HAVING referencing a grouped column (Q7).
		sqlparser.PaperQueries["Q7"],
		// Grouping key only in HAVING and ORDER BY.
		"select count(*) from MOVIES m group by m.year having m.year > 1990 order by m.year",
	}
	for _, sql := range good {
		comparePlannedNaive(t, ex, sql)
		if _, err := ex.Query(sql); err != nil {
			t.Errorf("%s: legal grouped query rejected: %v", sql, err)
		}
	}
}

// TestGroupedStreamingCompiles is a white-box check that grouped queries,
// subquery-bearing ones included, compile to the row feeder's program — the
// subquery compiled at its node — and answer as the interpreter does.
func TestGroupedStreamingCompiles(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	for _, sql := range []string{
		"select g.genre, count(*) from GENRE g group by g.genre",
		"select g.genre, count(distinct g.mid), sum(g.mid), avg(g.mid), min(g.mid), max(g.mid) from GENRE g group by g.genre having count(*) > 1 order by count(*) desc",
		"select m.year, count(*) from MOVIES m, GENRE g where m.id = g.mid group by m.year order by 2 desc",
		sqlparser.PaperQueries["Q7"], // scalar subquery in HAVING
		"select count(*) from MOVIES m group by m.year having exists (select * from GENRE g where g.mid = m.id)",
	} {
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := ex.flattenFrom(sel.From)
		if err != nil {
			t.Fatal(err)
		}
		pq := ex.compilePlan(ex.planFor(sel, entries, false), nil)
		items, _, err := expandItems(sel, entries)
		if err != nil {
			t.Fatal(err)
		}
		va := pq.compileRowAgg(sel, newGrouping(sel, entries), items)
		if len(va.gbEvals) != len(sel.GroupBy) || len(va.items) != len(items) || (sel.Having != nil) != (va.having != nil) || len(va.sortKeys) != len(sel.OrderBy) {
			t.Errorf("%s: row-fed program incomplete: %d/%d keys, %d/%d items, having %v, %d/%d sort keys",
				sql, len(va.gbEvals), len(sel.GroupBy), len(va.items), len(items), va.having != nil, len(va.sortKeys), len(sel.OrderBy))
		}
		comparePlannedNaive(t, ex, sql)
	}
}

// TestDistinctOrderLimitDifferential covers DISTINCT interacting with ORDER
// BY and LIMIT: row/env (and group) alignment is dropped after dedup, so
// expression order keys must work through the select list or fail
// identically on both pipelines.
func TestDistinctOrderLimitDifferential(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	reordered := 0
	for _, sql := range []string{
		"select distinct m.year from MOVIES m order by m.year desc",
		"select distinct m.year from MOVIES m order by 1 desc limit 4",
		"select distinct m.year from MOVIES m order by m.year desc limit 0",
		"select distinct c.role from CAST c order by c.role limit 5",
		// Expression key resolvable through the select list.
		"select distinct m.year + 1 from MOVIES m order by m.year + 1 limit 3",
		// Expression key NOT in the select list: must error identically.
		"select distinct m.title from MOVIES m order by m.year desc limit 5",
		// Grouped + DISTINCT + aggregate key not in the select list: ditto.
		"select distinct g.genre from GENRE g group by g.genre order by count(*)",
		// Grouped + DISTINCT with a select-list aggregate key.
		"select distinct count(*) from GENRE g group by g.genre order by count(*) desc limit 2",
		"select distinct a.name from CAST c, ACTOR a where c.aid = a.id order by a.name limit 7",
	} {
		if comparePlannedNaive(t, ex, sql) {
			reordered++
		}
	}
	requireReordered(t, reordered)
}

// TestTopKMatchesFullSort pins heap/stable-sort equivalence on tie-heavy
// data: top-K with LIMIT must return exactly the stable-sorted prefix.
func TestTopKMatchesFullSort(t *testing.T) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 33, Movies: 400, Actors: 60, Directors: 7, CastPerMovie: 2, GenresPerMovie: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	for _, q := range []struct{ sql, unlimited string }{
		// genre has massive ties; nothing else breaks them — stability decides.
		{"select g.genre, m.title from MOVIES m, GENRE g where m.id = g.mid order by g.genre limit 25",
			"select g.genre, m.title from MOVIES m, GENRE g where m.id = g.mid order by g.genre"},
		{"select m.year, m.title from MOVIES m order by m.year desc limit 10",
			"select m.year, m.title from MOVIES m order by m.year desc"},
		{"select m.year from MOVIES m order by m.year limit 1",
			"select m.year from MOVIES m order by m.year"},
		{"select m.year, count(*) from MOVIES m group by m.year order by count(*) desc, m.year limit 5",
			"select m.year, count(*) from MOVIES m group by m.year order by count(*) desc, m.year"},
	} {
		comparePlannedNaive(t, ex, q.sql)
		limited, err := ex.Query(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		full, err := ex.Query(q.unlimited)
		if err != nil {
			t.Fatal(err)
		}
		if len(limited.Rows) > len(full.Rows) {
			t.Fatalf("%s: more rows than the unlimited sort", q.sql)
		}
		for i := range limited.Rows {
			for j := range limited.Rows[i] {
				a, b := limited.Rows[i][j], full.Rows[i][j]
				if a.IsNull() != b.IsNull() || (!a.IsNull() && !a.Equal(b)) {
					t.Fatalf("%s: top-K row %d differs from the stable-sorted prefix", q.sql, i)
				}
			}
		}
	}
}

// TestLimitPushdownErrorParity pins a review finding: LIMIT pushdown must
// not swallow a projection error the interpreter raises on a row past
// the bound — pushdown is legal only when no projection expression can
// error.
func TestLimitPushdownErrorParity(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	for _, sql := range []string{
		// The scalar subquery is multi-row for later movies only.
		"select (select g.genre from GENRE g where g.mid = m.id) from MOVIES m limit 1",
		// Unknown column must error even under LIMIT 0.
		"select t.missing from MOVIES t limit 0",
		// Erroring arithmetic past the bound.
		"select m.year / (m.id - 100) from MOVIES m limit 1",
		// Pure projections still push the limit down and agree.
		"select m.title, m.year from MOVIES m limit 2",
	} {
		comparePlannedNaive(t, ex, sql)
	}
}

// compareAggPaths is comparePlannedNaive over sql and, when sql is grouped,
// over its row-fed twin, so a grouped query the fused pipeline takes is held
// to the interpreter on both of the aggregator's feeds.
func compareAggPaths(t *testing.T, ex *Engine, sql string) {
	t.Helper()
	comparePlannedNaive(t, ex, sql)
	if twin, ok := rowFedTwin(t, sql); ok {
		requireRowFed(t, ex, twin)
		comparePlannedNaive(t, ex, twin)
	}
}

// TestGroupedSubqueryDifferential holds grouped queries with subqueries — in
// HAVING, select items, ORDER BY keys and aggregate arguments, correlated to
// grouping columns or to an enclosing query — to the interpreter. The row
// feeder compiles each subquery at its node with the group's
// representative row as its outer scope; the no-rows group binds nothing, as
// in the interpreter.
func TestGroupedSubqueryDifferential(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	for _, sql := range []string{
		sqlparser.PaperQueries["Q7"],
		// EXISTS, IN and quantified comparisons in HAVING; the subject of IN
		// and ALL compiles to the group's aggregate.
		"select m.id, count(*) from MOVIES m, CAST c where m.id = c.mid group by m.id having exists (select * from GENRE g where g.mid = m.id and g.genre = 'drama')",
		"select m.year, count(*) from MOVIES m group by m.year having m.year in (select m2.year from MOVIES m2 where m2.id < 106) order by 1",
		"select m.year from MOVIES m group by m.year having count(*) in (select count(*) from GENRE g group by g.genre)",
		"select m.year from MOVIES m group by m.year having count(*) not in (select g.mid from GENRE g)",
		"select m.year, count(*) from MOVIES m group by m.year having count(*) >= all (select count(*) from GENRE g where g.mid = m.id)",
		// A scalar subquery in a select item and in an ORDER BY key.
		"select g.genre, (select max(m.year) from MOVIES m, GENRE g2 where g2.mid = m.id and g2.genre = g.genre), count(*) from GENRE g group by g.genre",
		"select g.genre, count(*) from GENRE g group by g.genre order by (select count(*) from CAST c, GENRE g2 where c.mid = g2.mid and g2.genre = g.genre) desc, g.genre",
		"select g.genre from GENRE g group by g.genre order by (select count(*) from GENRE g2) + count(*) desc, 1 limit 3",
		// A subquery inside an aggregate argument, per joined row.
		"select m.year, sum((select count(*) from GENRE g where g.mid = m.id)) from MOVIES m group by m.year order by 1",
		"select count(distinct (select min(g.genre) from GENRE g where g.mid = m.id)) from MOVIES m",
		// An aggregate inside a subquery is outside its grouped context.
		"select m.year, (select count(*) from GENRE g where g.mid = min(m.id)) from MOVIES m group by m.year",
		// The no-rows group, without GROUP BY (one group, no bindings) and
		// with it (no group at all).
		"select count(*) from MOVIES m where m.id < 0 having exists (select * from GENRE g where g.mid = m.id)",
		"select count(*), (select count(*) from GENRE g) from MOVIES m where m.id < 0",
		"select count(*) from MOVIES m where m.id < 0 having not exists (select * from GENRE g where g.genre = 'western')",
		"select m.year, count(*) from MOVIES m where m.id < 0 group by m.year having exists (select * from GENRE g where g.mid = m.id)",
		// DISTINCT with ORDER BY over a grouped subquery item.
		"select distinct count(*), (select count(*) from GENRE g where g.mid = m.id) from MOVIES m, CAST c where m.id = c.mid group by m.id order by 2 desc, 1",
		"select distinct (select count(*) from GENRE g where g.mid = m.id) as n from MOVIES m group by m.id order by n desc",
		"select distinct (select count(*) from GENRE g where g.mid = m.id) from MOVIES m group by m.id order by m.id",
		// A grouped subquery inside a correlated outer query.
		"select m.title from MOVIES m where exists (select g.genre from GENRE g where g.mid = m.id group by g.genre having count(*) >= (select count(*) from CAST c where c.mid = m.id) - 1)",
		"select m.title, (select count(*) from GENRE g where g.mid = m.id having exists (select * from CAST c where c.mid = m.id)) from MOVIES m",
		"select m.title from MOVIES m where 0 < (select count(*) from GENRE g where g.mid = m.id and 1 = 0 having exists (select * from CAST c where c.mid = m.id))",
		"select m.title from MOVIES m where exists (select g.genre from GENRE g where g.mid = m.id group by g.genre having m.year > 1990)",
	} {
		compareAggPaths(t, ex, sql)
	}
	// HAVING over an empty table without GROUP BY: the one group has no
	// rows, so a correlated reference binds nothing and fails, but only if
	// the subquery reaches it.
	if _, _, err := ex.Exec("delete from GENRE"); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"select count(*) from GENRE g having exists (select * from CAST c where c.mid = g.mid)",
		"select count(*), max(g.genre) from GENRE g having 0 = (select count(*) from CAST c where c.role = 'nobody' and c.mid = g.mid)",
		"select count(*) from GENRE g having not exists (select * from MOVIES m where m.id = g.mid) or count(*) = 0",
	} {
		compareAggPaths(t, ex, sql)
	}
}

// TestGroupedAggregateErrorsOnlyWhenRead pins a row-feed fix: an
// aggregate's accumulation error surfaces only if the query reads the
// aggregate, as in the interpreter — not because HAVING or an item mentions
// it under a branch that is never taken.
func TestGroupedAggregateErrorsOnlyWhenRead(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	for _, q := range []struct {
		sql  string
		rows int
	}{
		{"select m.year from MOVIES m group by m.year having 1 = 0 and sum(m.title) > 0", 0},
		{"select m.year, case when 1 = 0 then sum(m.title) else 1 end from MOVIES m group by m.year", 10},
	} {
		compareAggPaths(t, ex, q.sql)
		twin, _ := rowFedTwin(t, q.sql)
		for _, sql := range []string{q.sql, twin} {
			res, err := ex.Query(sql)
			if err != nil {
				t.Errorf("%s: %v, want %d rows", sql, err, q.rows)
			} else if len(res.Rows) != q.rows {
				t.Errorf("%s: %d rows, want %d", sql, len(res.Rows), q.rows)
			}
		}
	}
}

// TestCompiledErrorOrderDifferential pins two places where the compiled
// pipeline answered where the interpreter raised an error: an IN list
// evaluates every item even after a match or against a NULL subject, and an
// aggregate argument's evaluation error outranks a value the aggregate
// cannot take on an earlier row.
func TestCompiledErrorOrderDifferential(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	for _, sql := range []string{
		"select m.title from MOVIES m where m.year in (m.year, m.title + 1)",
		"select m.title from MOVIES m where null in (m.year, m.title + 1)",
		"select m.title, m.year in (m.year, m.title + 1) from MOVIES m",
		"select m.title from MOVIES m where m.year in (m.year, 1)",
		"select sum(case when m.id = 100 then m.title else m.id / 0 end) from MOVIES m",
		"select max(case when m.id = 100 then m.title else m.id end) from MOVIES m",
		"select max(case when m.id = 100 then m.title when m.id = 101 then m.id else m.id / 0 end) from MOVIES m",
	} {
		compareAggPaths(t, ex, sql)
	}
}
