package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file holds the planned pipeline to the interpreter (the oracle) on
// what SQL fixes of an answer. Rows of a query without a total ORDER BY come
// out in pipeline order: FROM-major, the interpreter's nested-loop order,
// only where the plan keeps FROM order. Where the planner reordered the joins
// the comparison loosens to what SQL promises (see oracleAgrees), and every
// suite over joins requires at least one such comparison, so the looser rule
// is exercised wherever it applies.

// reorders reports whether plan runs its steps in another order than FROM.
func reorders(plan *planner.Plan) bool {
	for i, st := range plan.Steps {
		if st.FromPos != i {
			return true
		}
	}
	return false
}

// requireReordered fails a differential suite none of whose n comparisons
// ran a reordered plan.
func requireReordered(t *testing.T, n int) {
	t.Helper()
	if n == 0 {
		t.Fatal("no comparison ran a reordered plan: the multiset rule went untested")
	}
}

// comparePlannedNaive runs one query through the planned pipeline and through
// the oracle and requires the same columns and the rows oracleAgrees asks
// for. Both failing with the same error text counts as agreement. It reports
// whether the executed plan reordered the joins.
func comparePlannedNaive(t *testing.T, ex *Engine, sql string) (reordered bool) {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %s: %v", sql, err)
	}
	ex.useOracle(false)
	planned, plan, errP := ex.SelectExplained(sel)
	ex.useOracle(true)
	naive, errN := ex.Select(sel)
	ex.useOracle(false)

	if (errP != nil) != (errN != nil) {
		t.Fatalf("%s\nplanned err = %v, naive err = %v", sql, errP, errN)
	}
	if errP != nil {
		if errP.Error() != errN.Error() {
			t.Fatalf("%s\nerror text differs: planned %q, naive %q", sql, errP, errN)
		}
		return false
	}
	oracleAgrees(t, ex, sel, plan, planned, naive)
	return reorders(plan)
}

// oracleAgrees holds a planned answer to the oracle's. Where the executed
// plan kept FROM order the two are identical, row order included. Where it
// reordered the joins only a total ORDER BY would fix the order, so the rows
// compare as multisets; and under a LIMIT, which rows survive depends on that
// order too, so the planned rows must be as many as the oracle's and each
// appear in the oracle's answer without the LIMIT. Floats of a reordered
// answer agree within a relative 1e-12: the two executors add them in
// different orders.
func oracleAgrees(t *testing.T, ex *Engine, sel *sqlparser.SelectStmt, plan *planner.Plan, planned, naive *Result) {
	t.Helper()
	sql := sel.SQL()
	if fmt.Sprint(planned.Columns) != fmt.Sprint(naive.Columns) {
		t.Fatalf("%s\ncolumns: planned %v, naive %v", sql, planned.Columns, naive.Columns)
	}
	if len(planned.Rows) != len(naive.Rows) {
		t.Fatalf("%s\nplanned %d rows, naive %d rows", sql, len(planned.Rows), len(naive.Rows))
	}
	if !reorders(plan) {
		for i := range planned.Rows {
			if len(planned.Rows[i]) != len(naive.Rows[i]) {
				t.Fatalf("%s\nrow %d arity differs", sql, i)
			}
			for j := range planned.Rows[i] {
				if p, n := planned.Rows[i][j], naive.Rows[i][j]; !p.Equal(n) || p.Kind() != n.Kind() {
					t.Fatalf("%s\nrow %d col %d: planned %s, naive %s", sql, i, j, p, n)
				}
			}
		}
		return
	}
	want := naive.Rows
	if sel.Limit >= 0 {
		unlimited := *sel
		unlimited.Limit = -1
		ex.useOracle(true)
		all, err := ex.Select(&unlimited)
		ex.useOracle(false)
		if err != nil {
			t.Fatalf("%s\nthe oracle fails without the LIMIT: %v", sql, err)
		}
		want = all.Rows
	}
	if missing, ok := subMultiset(planned.Rows, want); !ok {
		t.Fatalf("%s\nplanned row %v is not in the oracle's answer %v", sql, missing, want)
	}
}

// subMultiset reports whether every row of got appears in want at least as
// often, floats matching within a relative 1e-12; else it returns a row that
// does not. With len(got) == len(want) it is multiset equality.
func subMultiset(got, want []storage.Tuple) (storage.Tuple, bool) {
	got, want = sortedRows(got), sortedRows(want)
	j := 0
	for _, r := range got {
		for j < len(want) && compareRows(want[j], r) < 0 {
			j++
		}
		if j == len(want) || compareRows(want[j], r) != 0 {
			return r, false
		}
		j++
	}
	return nil, true
}

func sortedRows(rows []storage.Tuple) []storage.Tuple {
	out := slices.Clone(rows)
	slices.SortStableFunc(out, compareRows)
	return out
}

// compareRows orders rows column by column by kind and then by value.Key,
// treating two floats within a relative 1e-12 of each other as equal. The
// kind comes first because value.Key gives INT 1 and FLOAT 1.0 one key.
func compareRows(a, b storage.Tuple) int {
	for j := range min(len(a), len(b)) {
		x, y := a[j], b[j]
		if c := cmp.Compare(x.Kind(), y.Kind()); c != 0 {
			return c
		}
		if x.Kind() == value.Float {
			f, g := x.Float(), y.Float()
			if f == g || math.Abs(f-g) <= 1e-12*math.Max(math.Abs(f), math.Abs(g)) {
				continue
			}
		}
		if c := strings.Compare(x.Key(), y.Key()); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// TestCompareRowsTellsKinds pins the multiset comparison reordered plans
// are held to: INT 1 and FLOAT 1.0 differ, two floats a relative 1e-13 apart
// match.
func TestCompareRowsTellsKinds(t *testing.T) {
	one, oneF := storage.Tuple{value.NewInt(1)}, storage.Tuple{value.NewFloat(1)}
	if compareRows(one, oneF) == 0 || compareRows(oneF, one) == 0 {
		t.Error("INT 1 and FLOAT 1.0 compare equal")
	}
	if _, ok := subMultiset([]storage.Tuple{one}, []storage.Tuple{oneF}); ok {
		t.Error("INT 1 found in an answer holding FLOAT 1.0")
	}
	if compareRows(oneF, storage.Tuple{value.NewFloat(1 + 1e-13)}) != 0 {
		t.Error("floats within the tolerance compare unequal")
	}
}

// TestPlannerDifferentialPaperCorpus proves planned/interpreter row equality
// on every query the paper quotes, over the curated databases.
func TestPlannerDifferentialPaperCorpus(t *testing.T) {
	movieDB, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	empDB, err := dataset.CuratedEmpDept()
	if err != nil {
		t.Fatal(err)
	}
	movies, emp := New(movieDB), New(empDB)
	reordered := 0
	for _, label := range sqlparser.PaperQueryOrder {
		sql := sqlparser.PaperQueries[label]
		ex := movies
		if label == "Q0" {
			ex = emp
		}
		t.Run(label, func(t *testing.T) {
			if comparePlannedNaive(t, ex, sql) {
				reordered++
			}
		})
	}
	requireReordered(t, reordered)
}

// TestPlannerDifferentialRandomized sweeps randomized filters, orders,
// grouping, and join shapes over a generated database.
func TestPlannerDifferentialRandomized(t *testing.T) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 91, Movies: 120, Actors: 45, Directors: 8, CastPerMovie: 3, GenresPerMovie: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	rng := rand.New(rand.NewSource(402))
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	templates := []func() string{
		func() string {
			return fmt.Sprintf("select m.title, g.genre from MOVIES m, GENRE g where m.id = g.mid and m.year %s %d",
				ops[rng.Intn(len(ops))], 1950+rng.Intn(60))
		},
		func() string {
			return fmt.Sprintf("select m.title, a.name from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id and a.id %s %d",
				ops[rng.Intn(len(ops))], 1+rng.Intn(45))
		},
		func() string {
			return fmt.Sprintf("select g.genre, count(*) from MOVIES m, GENRE g where m.id = g.mid and m.year > %d group by g.genre",
				1950+rng.Intn(60))
		},
		func() string {
			return fmt.Sprintf("select distinct a.name from CAST c, ACTOR a where c.aid = a.id and c.mid < %d order by a.name",
				1+rng.Intn(120))
		},
		func() string {
			// Explicit INNER JOIN syntax.
			return fmt.Sprintf("select m.title from MOVIES m join CAST c on m.id = c.mid where c.aid = %d",
				1+rng.Intn(45))
		},
		func() string {
			// Cross product with a post filter.
			return fmt.Sprintf("select d.name from DIRECTOR d, DIRECTED r where d.id = r.did and d.id != %d limit 7",
				1+rng.Intn(8))
		},
		func() string {
			// Grouped aggregate sweep with HAVING, aggregate ORDER BY, LIMIT.
			return fmt.Sprintf("select g.genre, count(*), sum(m.year), avg(m.year), min(m.title), max(m.year) from MOVIES m, GENRE g where m.id = g.mid group by g.genre having count(*) %s %d order by count(*) desc, g.genre limit %d",
				ops[rng.Intn(len(ops))], 1+rng.Intn(5), 1+rng.Intn(6))
		},
		func() string {
			// Ordinal ORDER BY over a join.
			return fmt.Sprintf("select m.title, m.year from MOVIES m, CAST c where m.id = c.mid and c.aid %s %d order by 2 desc, 1 limit %d",
				ops[rng.Intn(len(ops))], 1+rng.Intn(45), 1+rng.Intn(20))
		},
		func() string {
			// DISTINCT + expression key through the select list + top-K.
			return fmt.Sprintf("select distinct m.year + %d from MOVIES m order by m.year + %[1]d desc limit %d",
				rng.Intn(3), 1+rng.Intn(10))
		},
		func() string {
			// Aggregate ORDER BY key outside the select list.
			return fmt.Sprintf("select m.year from MOVIES m where m.year %s %d group by m.year order by count(*) desc, m.year limit %d",
				ops[rng.Intn(len(ops))], 1950+rng.Intn(60), 1+rng.Intn(8))
		},
		func() string {
			// Grouped with count(distinct) and a grouping key in HAVING.
			return fmt.Sprintf("select c.aid, count(distinct c.role) from CAST c group by c.aid having c.aid %s %d order by 1",
				ops[rng.Intn(len(ops))], 1+rng.Intn(45))
		},
	}
	reordered := 0
	for trial := 0; trial < 120; trial++ {
		sql := templates[trial%len(templates)]()
		if comparePlannedNaive(t, ex, sql) {
			reordered++
		}
	}
	requireReordered(t, reordered)
}

// TestPlannerDifferentialNulls builds a schema with nullable join and filter
// columns, loads NULL-riddled rows, and proves the planner's hash and
// primary-key probes agree with the interpreter's three-valued evaluation.
func TestPlannerDifferentialNulls(t *testing.T) {
	schema := catalog.NewSchema("nulls")
	if err := schema.AddRelation(&catalog.Relation{
		Name: "L",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "k", Type: catalog.Int},
			{Name: "tag", Type: catalog.Text},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := schema.AddRelation(&catalog.Relation{
		Name: "R",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "k", Type: catalog.Int},
			{Name: "val", Type: catalog.Text},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.NewDatabase(schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	maybeInt := func() value.Value {
		if rng.Intn(3) == 0 {
			return value.NewNull()
		}
		return value.NewInt(int64(rng.Intn(6)))
	}
	maybeText := func(p string) value.Value {
		if rng.Intn(4) == 0 {
			return value.NewNull()
		}
		return value.NewText(fmt.Sprintf("%s%d", p, rng.Intn(4)))
	}
	for i := 0; i < 40; i++ {
		if err := db.Insert("L", storage.Tuple{value.NewInt(int64(i)), maybeInt(), maybeText("t")}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("R", storage.Tuple{value.NewInt(int64(i)), maybeInt(), maybeText("v")}); err != nil {
			t.Fatal(err)
		}
	}
	ex := New(db)
	reordered := 0
	for _, sql := range []string{
		"select l.id, r.id from L l, R r where l.k = r.k",
		"select l.id, r.val from L l, R r where l.k = r.k and r.val = 'v1'",
		"select l.id from L l, R r where l.id = r.id and l.tag = r.val",
		"select l.id, l.k from L l where l.k = 3",
		"select l.id from L l where l.k is null",
		"select l.id, r.id from L l, R r where l.k = r.k and l.tag is not null",
		"select count(*) from L l, R r where l.k = r.k",
		// Grouping on a NULL-riddled key: NULLs form one group; aggregates
		// skip NULL inputs; ORDER BY places NULL keys per direction.
		"select l.k, count(*), count(l.tag), sum(l.id), avg(l.k), min(l.tag), max(l.id) from L l group by l.k order by l.k",
		"select l.k, count(*) from L l group by l.k order by l.k desc",
		"select l.k, count(distinct r.val) from L l, R r where l.id = r.id group by l.k order by count(distinct r.val) desc, l.k limit 3",
		"select r.k, sum(l.k) from L l, R r where l.id = r.id group by r.k having sum(l.k) > 2 order by 2 desc",
		"select distinct l.k from L l order by l.k limit 4",
		"select l.tag, avg(l.id) from L l group by l.tag order by avg(l.id) desc limit 2",
		// Sorting on a NULL-bearing expression key outside the select list.
		"select l.id from L l order by l.k desc, l.id limit 6",
		"select l.id from L l order by l.k, l.id",
		// Aggregates over an empty group set.
		"select count(l.k), sum(l.k), min(l.k), max(l.k), avg(l.k) from L l where l.id < 0",
	} {
		if comparePlannedNaive(t, ex, sql) {
			reordered++
		}
	}
	requireReordered(t, reordered)
}

// hashSidesOf runs sql on the planned pipeline and returns which side each
// hash-join step hashed ("" for a step the pipeline never reached), or nil
// when the query fails.
func hashSidesOf(t *testing.T, ex *Engine, sql string) []string {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %s: %v", sql, err)
	}
	_, plan, err := ex.SelectExplained(sel)
	if err != nil {
		return nil
	}
	var sides []string
	for _, st := range plan.Steps {
		if st.Access == planner.JoinHash {
			sides = append(sides, st.HashSide)
		}
	}
	if len(sides) == 0 {
		t.Fatalf("%s: no hash join in %s", sql, plan.Fingerprint())
	}
	return sides
}

// TestPlannerDifferentialHashBuildSides drives the hash join's two build
// routines — hashing the outer batch's keys and scanning the build column for
// them, or hashing the whole table — over the key shapes where they could
// part ways, and holds each to the interpreter. Every case runs once with a
// handful of outer rows (the outer side is hashed) and once with the filter
// dropped, so the outer side is as large as the table (the table is hashed).
func TestPlannerDifferentialHashBuildSides(t *testing.T) {
	schema := catalog.NewSchema("sides")
	for _, name := range []string{"L", "R"} {
		if err := schema.AddRelation(&catalog.Relation{
			Name: name,
			Attributes: []*catalog.Attribute{
				{Name: "id", Type: catalog.Int, NotNull: true},
				{Name: "k", Type: catalog.Int},
				{Name: "f", Type: catalog.Float},
				{Name: "t", Type: catalog.Text},
				{Name: "d", Type: catalog.Date},
			},
			PrimaryKey: []string{"id"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	db, err := storage.NewDatabase(schema)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 40
	// NULLs in every key column on both sides, duplicate keys among the first
	// rows, fractions beside whole floats, strings only one side holds, and at
	// the end ints past 2^53, where neighbours share a float64 image: the
	// interpreter compares numerics as floats, so 2^53 and 2^53+1 join.
	orNull := func(null bool, v value.Value) value.Value {
		if null {
			return value.NewNull()
		}
		return v
	}
	for i := 0; i < rows; i++ {
		for _, side := range []struct {
			rel  string
			big  [2]int64 // k of the last two rows
			frac float64
			word string
		}{{"L", [2]int64{1<<53 + 1, 1 << 53}, 0.5, "left"}, {"R", [2]int64{1 << 53, 1<<53 + 1}, 0, "right"}} {
			k := value.NewInt(int64(i % 7))
			if i >= rows-2 {
				k = value.NewInt(side.big[i-(rows-2)])
			}
			f := float64(i % 7)
			if i%2 == 1 {
				f += side.frac
			}
			text := fmt.Sprintf("t%d", i%5)
			if i%10 == 3 {
				text = side.word
			}
			if err := db.Insert(side.rel, storage.Tuple{
				value.NewInt(int64(i)),
				orNull(i%5 == 0, k),
				orNull(i%6 == 0, value.NewFloat(f)),
				orNull(i%4 == 0, value.NewText(text)),
				orNull(i%9 == 0, value.NewDateDays(int64(10000+i%6))),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ex := New(db)
	reordered := 0
	for _, tc := range []struct {
		name  string
		join  string // the join conjuncts, shared by both runs
		few   string // the filter that leaves a handful of outer rows
		never bool   // the handful is empty: the join step never runs
		fails bool   // the planned run must raise the filter's error
	}{
		{name: "null and duplicate int keys", join: "l.k = r.k", few: "l.id < 8"},
		{name: "int keys past 2^53", join: "l.k = r.k", few: "l.id >= 36"},
		{name: "int keys into a float column", join: "l.k = r.f", few: "l.id < 8"},
		{name: "float keys into an int column", join: "l.f = r.k", few: "l.id < 8"},
		{name: "text keys", join: "l.t = r.t", few: "l.id < 8"},
		{name: "date keys", join: "l.d = r.d", few: "l.id < 8"},
		{name: "text keys into an int column", join: "l.t = r.k", few: "l.id < 8"},
		{name: "empty outer batch", join: "l.k = r.k", few: "l.id < 0", never: true},
		// R's own filter is not vectorizable. Both executors run it over
		// every row of R before joining, whichever side the planned pipeline
		// then hashes, so both fail on R row 22 (k = 1, as in L row 1) and on
		// R row 20, whose k is NULL and matches no key.
		{name: "self filter", join: "1 / (r.id + 100) >= 0 and l.k = r.k", few: "l.id < 8"},
		{name: "self filter failing on a row that joins", join: "1 / (r.id - 22) >= 0 and l.k = r.k", few: "l.id < 8", fails: true},
		{name: "self filter failing on a row no key matches", join: "1 / (r.id - 20) >= 0 and l.k = r.k", few: "l.id < 8", fails: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, run := range []struct{ sql, side string }{
				{"select l.id, r.id from L l, R r where " + tc.join + " and " + tc.few, planner.HashOuter},
				{"select l.id, r.id from L l, R r where " + tc.join, planner.HashTable},
			} {
				if comparePlannedNaive(t, ex, run.sql) {
					reordered++
				}
				sides := hashSidesOf(t, ex, run.sql)
				switch {
				case tc.fails:
					if sides != nil {
						t.Fatalf("%s\nwant the self-filter's error, got a result", run.sql)
					}
				case tc.never && run.side == planner.HashOuter:
					if len(sides) != 1 || sides[0] != "" {
						t.Fatalf("%s\nhashed %q with no outer row to join", run.sql, sides)
					}
				case len(sides) != 1 || sides[0] != run.side:
					t.Fatalf("%s\nhashed %q, want the %s side", run.sql, sides, run.side)
				}
			}
		})
	}
	requireReordered(t, reordered)
}

// TestPlannerDifferentialFuzzSeeds replays the parser fuzz seed corpus
// (every statement the lexer/parser round-trip suite feeds) through both
// pipelines; each seed must either fail identically or agree row-for-row.
func TestPlannerDifferentialFuzzSeeds(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	seeds := []string{
		sqlparser.PaperQ6Verbatim,
		"select * from MOVIES",
		"select m.title from MOVIES m where m.year between 1970 and 1990",
		"select m.title from MOVIES m where m.title like 'The %'",
		"select m.title from MOVIES m where m.year in (1977, 1999, 2005)",
		"select a.name from ACTOR a where not a.id > 3",
		"select m.title, case when m.year > 2000 then 'new' else 'old' end from MOVIES m",
		"select m.title from MOVIES m where m.year > all (select m2.year from MOVIES m2 where m2.id != m.id)",
		"select m.title from MOVIES m left join CAST c on m.id = c.mid where c.aid is null",
		"select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title",
		"select 1 = 1, m.title from MOVIES m limit 3",
		"select m.* from MOVIES m order by 'a' desc",
		"select t.missing from MOVIES t",
		"select m.title from NOPE m",
		"select m.title, m.year from MOVIES m order by 2 desc, 1 limit 5",
		"select m.title from MOVIES m order by 7",
		"select g.genre from GENRE g group by g.genre order by count(*) desc",
		"select m.title, count(*) from MOVIES m group by m.year",
		"select distinct m.title from MOVIES m order by m.year desc limit 5",
		"select count(*) from MOVIES m where m.year > 3000",
		"select m.year, count(*) from MOVIES m group by m.year having count(*) >= 2 order by count(*) desc, m.year limit 3",
		"select case when m.year > 2000 then 'new' else 'old' end, count(*) from MOVIES m group by case when m.year > 2000 then 'new' else 'old' end order by 2 desc",
		// Doubly nested correlation: the innermost subquery reads the
		// outermost FROM, past a scope that does not bind the name; the
		// nearest scope wins when both do.
		"select m.title from MOVIES m where exists (select * from CAST c where c.mid = m.id and c.aid in (select a.id from ACTOR a where a.id % 2 = m.id % 2))",
		"select m.title, (select count(*) from CAST c where c.mid = m.id and exists (select * from GENRE g where g.mid = m.id and g.genre != c.role)) from MOVIES m",
		"select m.title from MOVIES m where exists (select * from CAST c where exists (select * from GENRE g where g.mid = c.mid and year > 2000))",
		"select m.title from MOVIES m where exists (select * from CAST m where m.mid = 101 and exists (select * from GENRE g where g.mid = m.mid))",
		// Outer references that fail: unknown, ambiguous, a matched relation
		// without the attribute. The error fires on the first row that
		// reaches the reference, and not at all when none does.
		"select m.title from MOVIES m where exists (select * from GENRE g where g.mid = x.id)",
		"select m.title from MOVIES m where m.id < 0 and exists (select * from GENRE g where g.mid = x.id)",
		"select m.title from MOVIES m, MOVIES m2 where m.id = m2.id and exists (select * from GENRE g where g.mid = id)",
		"select m.title from MOVIES m where exists (select * from GENRE g, GENRE g2 where mid = m.id)",
		"select m.title from MOVIES m where exists (select * from GENRE g where g.mid = m.id and g.genre = m.nosuch)",
		"select m.title from MOVIES m where m.year > 2005 and exists (select * from GENRE g where g.mid = m.id and g.genre = MOVIES.nosuch)",
		"select m.title, case when m.id = 101 then (select count(*) from GENRE g where g.mid = m.nosuch) else 0 end from MOVIES m",
		"select m.title, case when m.id = -1 then (select count(*) from GENRE g where g.mid = m.nosuch) else 0 end from MOVIES m",
		"select m.title from MOVIES m where exists (select * from CAST c where c.mid = m.id and exists (select * from GENRE g where g.mid = c.nosuch))",
	}
	for _, label := range sqlparser.PaperQueryOrder {
		if label != "Q0" {
			seeds = append(seeds, sqlparser.PaperQueries[label])
		}
	}
	reordered := 0
	for _, sql := range seeds {
		if _, err := sqlparser.ParseSelect(sql); err != nil {
			continue // non-SELECT or unparsable seeds exercise nothing here
		}
		if comparePlannedNaive(t, ex, sql) {
			reordered++
		}
	}
	requireReordered(t, reordered)
}

// TestPlannerDifferentialUnknownColumn pins a review finding: a conjunct
// referencing a nonexistent attribute of a matched relation must error like
// the interpreter does, even when another filter empties the join (the
// planner must not swallow the typo by deferring it past a zero-row
// pipeline).
func TestPlannerDifferentialUnknownColumn(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	for _, sql := range []string{
		"select m.title from MOVIES m, CAST c where m.nosuch = 1 and c.role = 'definitely-not-a-role'",
		"select m.title from MOVIES m where m.nosuch = 1",
		"select m.title from MOVIES m where nosuchcolumn = 1",
	} {
		comparePlannedNaive(t, ex, sql)
		if _, err := ex.Query(sql); err == nil {
			t.Errorf("%s: unknown column silently accepted", sql)
		}
	}
}

// TestPlannerReorderedRowsLeaveInPipelineOrder pins the row-order contract on
// a join the planner reorders: B's selective filter puts B's scan first, and
// B lists its rows in descending a order. The rows leave in pipeline order —
// B's table order, whatever the worker count — not the interpreter's
// FROM-major order; they equal the oracle's as a multiset; and a LIMIT keeps
// the first rows of the pipeline, which oracleAgrees accepts as long as the
// count is right and every row is in the oracle's un-LIMITed answer.
func TestPlannerReorderedRowsLeaveInPipelineOrder(t *testing.T) {
	old := parallelThreshold
	parallelThreshold = 8
	defer func() { parallelThreshold = old }()

	schema := catalog.NewSchema("reorder")
	for _, rel := range []*catalog.Relation{
		{Name: "A", PrimaryKey: []string{"id"}, Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true}}},
		{Name: "B", PrimaryKey: []string{"id"}, Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true}, {Name: "a", Type: catalog.Int}, {Name: "tag", Type: catalog.Int}}},
	} {
		if err := schema.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	db, err := storage.NewDatabase(schema)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := db.Insert("A", storage.Tuple{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
		a := int64(n - 1 - i) // descending, so B's order is not A's
		if err := db.Insert("B", storage.Tuple{value.NewInt(int64(i)), value.NewInt(a), value.NewInt(int64(i % 50))}); err != nil {
			t.Fatal(err)
		}
	}
	ex := New(db)
	const sql = "select a.id, b.id from A a, B b where a.id = b.a and b.tag = 7"
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(res *Result) []int64 {
		var out []int64
		for _, r := range res.Rows {
			out = append(out, r[1].Int())
		}
		return out
	}
	for _, workers := range []int{1, 4} {
		ex.SetParallelism(workers)
		res, plan, err := ex.SelectExplained(sel)
		if err != nil {
			t.Fatal(err)
		}
		if !reorders(plan) {
			t.Fatalf("want B scanned first, got %s", plan.Fingerprint())
		}
		if got, want := fmt.Sprint(ids(res)), "[7 57 107 157]"; got != want {
			t.Fatalf("workers=%d: b.id order %s, want B's table order %s", workers, got, want)
		}
	}
	ex.SetParallelism(0)
	ex.useOracle(true)
	naive, err := ex.Select(sel)
	ex.useOracle(false)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(ids(naive)), "[157 107 57 7]"; got != want {
		t.Fatalf("oracle b.id order %s, want FROM-major %s", got, want)
	}
	if !comparePlannedNaive(t, ex, sql) || !comparePlannedNaive(t, ex, sql+" limit 2") {
		t.Fatal("the comparisons did not run the reordered plan")
	}
	limited, err := ex.Query(sql + " limit 2")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(ids(limited)), "[7 57]"; got != want {
		t.Fatalf("LIMIT kept b.id %s, want the pipeline's first rows %s", got, want)
	}

	// The multiset rule itself: a foreign row, or a row more often than the
	// oracle has it, is caught.
	row := func(vs ...int64) storage.Tuple {
		var r storage.Tuple
		for _, v := range vs {
			r = append(r, value.NewInt(v))
		}
		return r
	}
	oracleRows := []storage.Tuple{row(1, 2), row(3, 4), row(1, 2)}
	for _, tc := range []struct {
		got  []storage.Tuple
		want bool
	}{
		{[]storage.Tuple{row(1, 2), row(1, 2), row(3, 4)}, true},
		{[]storage.Tuple{row(3, 4), row(1, 2)}, true},
		{[]storage.Tuple{row(3, 4), row(3, 4)}, false},
		{[]storage.Tuple{row(1, 2), row(5, 6)}, false},
	} {
		if _, ok := subMultiset(tc.got, oracleRows); ok != tc.want {
			t.Errorf("subMultiset(%v, %v) = %v, want %v", tc.got, oracleRows, ok, tc.want)
		}
	}
	if _, ok := subMultiset([]storage.Tuple{{value.NewFloat(0.1 + 0.2)}}, []storage.Tuple{{value.NewFloat(0.3)}}); !ok {
		t.Error("floats a rounding apart must match")
	}
	if _, ok := subMultiset([]storage.Tuple{{value.NewFloat(0.3000001)}}, []storage.Tuple{{value.NewFloat(0.3)}}); ok {
		t.Error("floats 3e-7 apart must not match")
	}
}

// TestDMLPlannedVsInterpreter runs every way an UPDATE or DELETE resolves its
// WHERE — primary-key probe, vectorized range with zone
// skipping, compiled residual filter, subquery residual, unknown column, no
// WHERE at all — once with planned positions and once on the
// interpreter, which pre-scans the table with the same WHERE. Both must
// affect the same number of rows, leave the same table, and fail or succeed
// the same way.
func TestDMLPlannedVsInterpreter(t *testing.T) {
	newEngine := func(planned bool) *Engine {
		// Two zones of MOVIES, so a year range can skip one.
		db, err := dataset.GenerateMovieDB(dataset.GenConfig{
			Seed: 23, Movies: 5000, Actors: 60, Directors: 8, CastPerMovie: 1, GenresPerMovie: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ex := New(db)
		ex.useOracle(!planned)
		return ex
	}
	planned, naive := newEngine(true), newEngine(false)

	rng := rand.New(rand.NewSource(77))
	stmts := []struct{ rel, sql string }{
		{"MOVIES", "update MOVIES set year = 1999 where id = 42"},
		{"MOVIES", "update MOVIES m set id = 900001 where m.id = 43"},
		{"MOVIES", "update MOVIES set id = 44 where id = 45"}, // refused: 44 is taken
		{"MOVIES", "delete from MOVIES where id = 46"},
		{"MOVIES", "delete from MOVIES where id = 46"}, // already gone
		{"CAST", "update CAST set role = 'lead' where aid = 7"},
		{"CAST", "delete from CAST c where c.aid = 9 and c.role != 'lead'"},
		{"MOVIES", "update MOVIES set year = year + 100 where year between 1950 and 1964"},
		{"MOVIES", "update MOVIES set year = year - 100 where year >= 2050"},
		{"MOVIES", "delete from MOVIES where id > 4990"},
		{"MOVIES", "delete from MOVIES where year + 0 = 1970 and title like 'S%'"},
		// Subqueries over the eight directors: the interpreter side re-runs
		// them for every outer row.
		{"DIRECTED", "delete from DIRECTED where did in (select d.id from DIRECTOR d where d.id < 3)"},
		{"GENRE", "update GENRE g set genre = 'old' where exists (select 1 from DIRECTOR d where d.id = g.mid and d.id > 2)"},
		{"MOVIES", "update MOVIES set year = 1 / (year - year) where id = 50"}, // SET error
		{"MOVIES", "update MOVIES m set title = case when m.year > 1990 then 'new' else m.title end, year = m.year + 1 where m.id < 40"},
		{"MOVIES", "update MOVIES set year = nosuch where id = 47"},           // the unknown column's error
		{"MOVIES", "delete from MOVIES where 1 / (id - 60) > 0 and id < 100"}, // WHERE error: no trace
		{"MOVIES", "delete from MOVIES where nosuch = 1"},                     // the unknown column's error
		{"DIRECTED", "delete from DIRECTED"},
		// INSERT VALUES compiles over a FROM-less plan: no name is bound.
		{"MOVIES", "insert into MOVIES (id, title, year) values (900100, 'sub', (select max(m.year) from MOVIES m where m.id < 30))"},
		{"MOVIES", "insert into MOVIES (id, title, year) values (900101, 'ref', year)"},
		{"MOVIES", "insert into MOVIES (id, title, year) values (900102, 'star', m.*)"},
		{"MOVIES", "insert into MOVIES (id, title, year) values (900103, 'multi', (select d.id from DIRECTOR d))"},
		{"MOVIES", "insert into MOVIES (id, title, year) values (900104, 'corr', (select count(*) from GENRE g where g.mid = id))"},
	}
	for i := 0; i < 12; i++ {
		lo := 1950 + rng.Intn(60)
		stmts = append(stmts,
			struct{ rel, sql string }{"MOVIES", fmt.Sprintf("update MOVIES set title = 'r%d' where id = %d", i, 1+rng.Intn(4900))},
			struct{ rel, sql string }{"MOVIES", fmt.Sprintf("delete from MOVIES where year between %d and %d and id %% 7 = %d", lo, lo+3, rng.Intn(7))},
		)
	}
	for _, tc := range stmts {
		_, nP, errP := planned.Exec(tc.sql)
		_, nN, errN := naive.Exec(tc.sql)
		if (errP != nil) != (errN != nil) || errP != nil && errP.Error() != errN.Error() {
			t.Fatalf("%s\nplanned err = %v, interpreter err = %v", tc.sql, errP, errN)
		}
		if nP != nN {
			t.Fatalf("%s\nplanned affected %d rows, interpreter %d", tc.sql, nP, nN)
		}
		if got, want := dumpTable(t, planned.Database(), tc.rel), dumpTable(t, naive.Database(), tc.rel); got != want {
			t.Fatalf("%s\n%s differs between planned positions and the interpreter pre-scan", tc.sql, tc.rel)
		}
	}
}
