package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file holds the planned pipeline to the interpreter on what only the
// interpreter used to run — outer joins, views, FROM-less SELECTs and
// conjuncts the planner cannot resolve — byte for byte, row order and error
// text included.

// render renders a statement's outcome byte for byte: its error, or its
// affected-row count, or its columns and rows as SQL literals.
func render(res *Result, n int, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	if res == nil {
		return fmt.Sprintf("%d rows affected", n)
	}
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, ", "))
	for _, row := range res.Rows {
		b.WriteString("\n")
		for i, v := range row {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.SQL())
		}
	}
	return b.String()
}

// samePlannedAndOracle runs sql on the planned pipeline, requiring a plan
// whose fingerprint contains want, then on the interpreter, and requires the
// same rendering from both. Row order is part of the rendering, which holds
// only for a plan in FROM order (outer joins never reorder); a query the
// planner reorders belongs with comparePlannedNaive.
func samePlannedAndOracle(t *testing.T, ex *Engine, sql, want string) {
	t.Helper()
	ex.useOracle(false)
	res, plan, err := ex.SelectExplained(mustParse(t, sql))
	if err == nil && !strings.Contains(plan.Fingerprint(), want) {
		t.Fatalf("%s\nplan %s, want %q in it", sql, plan.Fingerprint(), want)
	}
	if err == nil && reorders(plan) {
		t.Fatalf("%s\nplan %s reorders the joins", sql, plan.Fingerprint())
	}
	planned := render(res, 0, err)
	ex.useOracle(true)
	res, err = ex.Query(sql)
	ex.useOracle(false)
	if oracle := render(res, 0, err); planned != oracle {
		t.Fatalf("%s\nplanned:\n%s\ninterpreter:\n%s", sql, planned, oracle)
	}
}

// outerJoinDB builds L, R and S with NULLs in every nullable column, plus E,
// empty, of L's shape.
func outerJoinDB(t *testing.T) *storage.Database {
	t.Helper()
	schema := catalog.NewSchema("outer")
	for _, rel := range []struct{ name, text string }{{"L", "tag"}, {"R", "val"}, {"S", "note"}, {"E", "tag"}} {
		if err := schema.AddRelation(&catalog.Relation{
			Name: rel.name,
			Attributes: []*catalog.Attribute{
				{Name: "id", Type: catalog.Int, NotNull: true},
				{Name: "k", Type: catalog.Int},
				{Name: rel.text, Type: catalog.Text},
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
	rng := rand.New(rand.NewSource(21))
	for _, rel := range []struct {
		name, prefix string
		keys         int
	}{{"L", "t", 8}, {"R", "v", 6}, {"S", "n", 10}} {
		for i := 0; i < 30; i++ {
			k, text := value.NewInt(int64(rng.Intn(rel.keys))), value.NewText(fmt.Sprintf("%s%d", rel.prefix, rng.Intn(4)))
			if rng.Intn(4) == 0 {
				k = value.NewNull()
			}
			if rng.Intn(5) == 0 {
				text = value.NewNull()
			}
			if err := db.Insert(rel.name, storage.Tuple{value.NewInt(int64(i)), k, text}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestPlannerDifferentialOuterJoins: LEFT and RIGHT joins over every access
// path, NULL join keys, ON conditions on either side, WHERE on either side,
// empty sides, outer joins between inner ones, views over views, FROM-less
// SELECTs and ON conditions the planner cannot resolve — planned against the
// interpreter, serially and with every step fanned out.
func TestPlannerDifferentialOuterJoins(t *testing.T) {
	ex := New(outerJoinDB(t))
	for _, v := range []string{
		"create view LV as select l.id, l.k from L l where l.k > 1",
		"create view LV2 as select v.k, v.id from LV v where v.id < 20",
	} {
		if _, _, err := ex.Exec(v); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct{ sql, want string }{
		// Every access path, on both outer joins, over NULL join keys.
		{"select l.id, s.id from L l left join S s on l.k = s.k", "s:left hash join"},
		{"select l.id, r.val from L l left join R r on r.id = l.k", "r:left primary-key join"},
		{"select l.id, r.id from L l left join R r on r.k = l.k", "r:left hash join"},
		{"select l.id, s.id from L l left join S s on l.k < s.k", "s:left nested loop"},
		{"select l.id, s.id from L l right join S s on l.k = s.k", "s:right hash join"},
		{"select l.id, r.id from L l right join R r on r.id = l.k", "r:right primary-key join"},
		{"select l.id, r.id from L l right join R r on r.k = l.k", "r:right hash join"},
		{"select l.id, s.id from L l right join S s on l.k > s.k", "s:right nested loop"},
		// ON conditions on the padded and on the kept side; the last two
		// filter the padded side before the join, one without vectorizing.
		{"select l.id, s.id from L l left join S s on l.k = s.k and l.tag = 't1'", "s:left hash join{1}"},
		{"select l.id, s.id from L l left join S s on l.k = s.k and s.note = 'n1'", "s:left hash join{1}"},
		{"select l.id, s.id from L l left join S s on l.k = s.k and s.id + 0 > 12", "s:left hash join{1}"},
		{"select l.id, s.id from L l left join S s on s.id + 0 < 4 where l.id < 10", "s:left nested loop{1}"},
		{"select l.id, s.id from L l right join S s on l.k = s.k and l.tag = 't1'", "s:right hash join{1}"},
		{"select l.id, s.id from L l right join S s on l.k = s.k and s.note = 'n1'", "s:right hash join{1}"},
		{"select l.id, r.id from L l right join R r on r.id = l.k and r.val <> 'v2'", "r:right primary-key join{1}"},
		// WHERE on either side: below a LEFT join only the kept side; nothing
		// below a RIGHT join, which pads every input before it.
		{"select l.id, s.id from L l left join S s on l.k = s.k where l.tag = 't2'", "l:full scan{1}>s:left hash join"},
		{"select l.id, s.id from L l left join S s on l.k = s.k where s.note = 'n2'", "s:left hash join>post{1}"},
		{"select l.id, s.id from L l left join S s on l.k = s.k where s.id is null", "s:left hash join>post{1}"},
		{"select l.id, s.id from L l right join S s on l.k = s.k where l.tag = 't2'", "s:right hash join>post{1}"},
		{"select l.id, s.id from L l right join S s on l.k = s.k where s.note = 'n2'", "s:right hash join>post{1}"},
		{"select l.id, s.id from L l right join S s on l.k = s.k where l.id is null", "s:right hash join>post{1}"},
		{"select l.id, s.id from L l right join S s on l.k = s.k where 1 = 0", "s:right hash join>post{1}"},
		// Empty sides: the table, an ON condition, or an inner join empties it.
		{"select e.id, s.id from E e right join S s on e.k = s.k", "s:right hash join"},
		{"select l.id, e.id from L l left join E e on l.k = e.k", "e:left hash join"},
		{"select e.id, e2.id from E e left join E e2 on e.k = e2.k", "e2:left"},
		{"select e.id, e2.id from E e right join E e2 on e.k = e2.k", "e2:right"},
		{"select l.id, s.id from L l left join S s on l.k = s.k and s.id < 0", "s:left hash join{1}"},
		{"select l.id, r.id, s.id from L l join R r on r.id = l.id and r.id < 0 right join S s on s.k = l.k", "s:right"},
		// Outer joins between inner ones, and a comma join under a RIGHT join.
		{"select l.id, s.id, r.id from L l left join S s on l.k = s.k join R r on r.id = l.id", "s:left hash join>r:"},
		{"select l.id, s.id, r.id from L l right join S s on l.k = s.k join R r on r.k = s.k", "s:right hash join>r:"},
		{"select l.id, s.id, r.id from L l left join S s on l.k = s.k left join R r on r.id = s.id where r.val is not null or s.id is null", "r:left primary-key join>post{1}"},
		{"select l.id, s.id, r.id from L l, S s right join R r on r.k = s.k where l.id = s.id", ">post{1}"},
		// Shaping over outer joins.
		{"select s.id, count(l.id) from L l right join S s on l.k = s.k group by s.id order by s.id", ">agg{1,1}>sort{1}"},
		{"select l.id, s.note from L l left join S s on l.k = s.k order by s.note, l.id", ">sort{2}"},
		{"select distinct s.note from L l left join S s on l.k = s.k", "s:left"},
		{"select l.id, s.id from L l left join S s on l.k = s.k limit 5", ">limit{5}"},
		// Views, a view over a view, and views joined outer.
		{"select v.id, s.id from LV v left join S s on v.k = s.k", "s:left hash join"},
		{"select w.id, l.id from LV2 w right join L l on w.k = l.k", "l:right"},
		{"select w.k, count(*) from LV2 w group by w.k order by w.k", "w:full scan"},
		// FROM-less SELECTs, alone and as subqueries.
		{"select 1 + 1", ""},
		{"select count(*)", "agg{0,1}"},
		{"select 1 where 1 = 0", "post{1}"},
		{"select count(*) where 1 = 0", "post{1}>agg{0,1}"},
		{"select 'a', null, 2.5", ""},
		{"select l.id from L l where exists (select 1 where l.k > 3)", "post{1}"},
		{"select l.id from L l where exists (select 1 from S s right join R r on s.k = r.k where r.id = l.id and s.id is null)", "post{1}"},
		// Conditions the planner cannot resolve, compiled where the interpreter
		// evaluates them: an unqualified or forward ON reference, a subquery in
		// ON, an ambiguous WHERE column.
		{"select l.id, s.id from L l left join S s on s.k = l.k and note = 'n1'", "s:left hash join{1}"},
		{"select l.id, s.id from L l join S s on s.k = l.k and note = 'n1'", "s:hash join{1}"},
		{"select l.id from L l left join S s on s.k = r.k join R r on r.id = l.id", ""},
		{"select l.id, s.id from L l left join S s on s.k = l.k and s.id in (select r.id from R r where r.k = 2)", "s:left hash join{1}"},
		{"select l.id, s.id from L l, S s where k = 2 and s.id < 3", "l:full scan{1}>s:nested loop{1}"},
	}
	run := func(t *testing.T) {
		for _, c := range cases {
			samePlannedAndOracle(t, ex, c.sql, c.want)
		}
	}
	t.Run("serial", run)
	old := parallelThreshold
	parallelThreshold = 2
	defer func() { parallelThreshold = old }()
	ex.SetParallelism(3)
	t.Run("parallel", run)
}

// TestOuterJoinDifferentialGenerated replays the outer joins of the parallel
// corpus on the generated database they were written for.
func TestOuterJoinDifferentialGenerated(t *testing.T) {
	ex := New(cancelTestDB(t))
	for _, q := range parallelCorpus {
		if strings.Contains(q, " join ") {
			samePlannedAndOracle(t, ex, q, "")
		}
	}
}

// TestRightJoinEmptyLeftSide pins a fixed bug: a RIGHT join whose left side is
// empty — an empty table, or a WHERE conjunct pushed below the join that
// emptied it — failed with "unknown column e.name" instead of keeping every
// department, padded.
func TestRightJoinEmptyLeftSide(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		ex := empEngine(t)
		ex.useOracle(oracle)
		if _, _, err := ex.Exec("delete from EMP"); err != nil {
			t.Fatal(err)
		}
		res, err := ex.Query("select e.name, d.dname from EMP e right join DEPT d on e.did = d.did")
		if got, want := render(res, 0, err), "name, dname\nNULL, 'Engineering'\nNULL, 'Sales'"; got != want {
			t.Fatalf("interpreter=%v: empty left side\n%s\nwant\n%s", oracle, got, want)
		}
		ex = empEngine(t)
		ex.useOracle(oracle)
		res, err = ex.Query("select e.name, d.dname from EMP e right join DEPT d on e.did = d.did where e.name is null")
		if got, want := render(res, 0, err), "name, dname"; got != want {
			t.Fatalf("interpreter=%v: WHERE on the padded side\n%s\nwant\n%s", oracle, got, want)
		}
	}
}

// TestWhereAboveOuterJoin pins a fixed bug: a WHERE conjunct on a RIGHT join's
// padded side was applied below the join, so the department it emptied came
// back padded (NULL | Sales) although WHERE rejects a NULL salary. A LEFT
// join was already right and stays so.
func TestWhereAboveOuterJoin(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		ex := empEngine(t)
		ex.useOracle(oracle)
		for sql, want := range map[string]string{
			"select e.name, d.dname from EMP e right join DEPT d on e.did = d.did where e.sal > 100000": "name, dname\n'Grace Chen', 'Engineering'\n'Ada Papadaki', 'Engineering'",
			"select d.dname, e.name from DEPT d left join EMP e on e.did = d.did where e.sal > 100000":  "dname, name\n'Engineering', 'Grace Chen'\n'Engineering', 'Ada Papadaki'",
		} {
			res, err := ex.Query(sql)
			if got := render(res, 0, err); got != want {
				t.Fatalf("interpreter=%v: %s\n%s\nwant\n%s", oracle, sql, got, want)
			}
		}
	}
}

// TestViewColumnMixingKindsRefused pins the one deliberate narrowing of
// planning views: a view is materialized into column vectors, typed from its
// values, and a column whose values mix kinds has no vector to live in —
// refused, naming the view and the column, on both pipelines. A column of one
// kind, or of NULLs only, is fine.
func TestViewColumnMixingKindsRefused(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		ex := empEngine(t)
		ex.useOracle(oracle)
		for _, v := range []string{
			"create view MIXED as select e.eid, case when e.eid < 3 then e.name else e.sal end as what from EMP e",
			"create view SAME as select e.eid, case when e.eid < 3 then e.sal else e.sal + 1 end as what, null as nothing from EMP e",
		} {
			if _, _, err := ex.Exec(v); err != nil {
				t.Fatal(err)
			}
		}
		_, err := ex.Query("select m.what from MIXED m")
		if err == nil || !strings.Contains(err.Error(), "view MIXED: column what mixes TEXT and FLOAT values") {
			t.Fatalf("interpreter=%v: mixed-kind view column: %v", oracle, err)
		}
		res, err := ex.Query("select s.what, s.nothing from SAME s where s.what > 90000 order by s.what")
		if err != nil || len(res.Rows) == 0 || !res.Rows[0][1].IsNull() {
			t.Fatalf("interpreter=%v: one-kind view columns: %v %v", oracle, res, err)
		}
	}
}

// TestFormerFallbacksPinned replays every statement the planner refused at
// the parent of this change in the whole test suite — six outer-join texts,
// three view reads and the unknown-column SELECTs and DELETE — and requires
// the parent's rows in the parent's order, or the parent's error text, on the
// planned pipeline. (The two outer-join bugs it fixed are pinned above.)
func TestFormerFallbacksPinned(t *testing.T) {
	emp := []string{"insert into DEPT (did, dname, mgr) values (30, 'R and D', NULL)"}
	wellPaid := "create view WELL_PAID as select e.eid, e.name, e.sal from EMP e where e.sal > 90000"
	for _, c := range []struct {
		emp   bool
		setup []string
		sql   string
		want  string
	}{
		{false, nil, "select m.title from MOVIES m left join GENRE g on m.id = g.mid where g.genre is null or g.genre = 'comedy'",
			"title\n'Melinda and Melinda'\n'Anything Else'\n'Omnibus'"},
		{false, nil, "select m.title from MOVIES m left join CAST c on m.id = c.mid",
			"title\n'Match Point'\n'Match Point'\n'Melinda and Melinda'\n'Anything Else'\n'Star Raiders'\n'Galaxy at War'\n'Galaxy at War'\n'The Matrix'\n'The Matrix'\n'The Matrix'\n'Anna'\n'Omnibus'\n'King Kong'\n'King Kong'\n'King Kong'\n'Quiet Winter'\n'Silent Autumn'\n'Silent Autumn'"},
		{false, nil, "select m.title from MOVIES m left join GENRE g on g.mid = m.id",
			"title\n'Match Point'\n'Melinda and Melinda'\n'Anything Else'\n'Star Raiders'\n'Galaxy at War'\n'The Matrix'\n'The Matrix'\n'Anna'\n'Omnibus'\n'Omnibus'\n'Omnibus'\n'Omnibus'\n'King Kong'\n'King Kong'\n'King Kong'\n'Quiet Winter'\n'Silent Autumn'"},
		{false, nil, "select m.title from MOVIES m left join CAST c on m.id = c.mid where c.aid is null",
			"title\n'Anything Else'"},
		{true, emp, "select e.name, d.dname from EMP e right join DEPT d on e.did = d.did",
			"name, dname\n'Grace Chen', 'Engineering'\n'Raj Patel', 'Sales'\n'Ada Papadaki', 'Engineering'\n'Omar Haddad', 'Sales'\n'Lena Novak', 'Engineering'\n'Tom Brook', 'Sales'\nNULL, 'R and D'"},
		{true, emp, "select d.dname, e.name from DEPT d left join EMP e on e.did = d.did order by d.dname",
			"dname, name\n'Engineering', 'Grace Chen'\n'Engineering', 'Ada Papadaki'\n'Engineering', 'Lena Novak'\n'R and D', NULL\n'Sales', 'Raj Patel'\n'Sales', 'Omar Haddad'\n'Sales', 'Tom Brook'"},
		{false, []string{"create view RECENT as select m.id, m.title from MOVIES m where m.year >= 2005"},
			"select r.title from RECENT r order by r.title",
			"title\n'King Kong'\n'Match Point'\n'Omnibus'\n'Quiet Winter'\n'Silent Autumn'"},
		{true, []string{wellPaid}, "select w.name from WELL_PAID w",
			"name\n'Grace Chen'\n'Raj Patel'\n'Ada Papadaki'\n'Omar Haddad'"},
		{true, []string{wellPaid, "create view TOP_NAMES as select w.name from WELL_PAID w"},
			"select t.name from TOP_NAMES t order by t.name",
			"name\n'Ada Papadaki'\n'Grace Chen'\n'Omar Haddad'\n'Raj Patel'"},
		{false, nil, "select m.title from MOVIES m where nosuchcolumn = 1", "error: engine: unknown column nosuchcolumn"},
		{false, nil, "select m.title from MOVIES m, CAST c where m.nosuch = 1 and c.role = 'definitely-not-a-role'",
			`error: engine: relation MOVIES has no attribute "nosuch"`},
		{false, nil, "select m.title from MOVIES m where m.nosuch = 1", `error: engine: relation MOVIES has no attribute "nosuch"`},
		{false, nil, "select count(*) from MOVIES x where nosuch = 1", "error: engine: unknown column nosuch"},
		{true, nil, "select count(*) from EMP x where nosuch = 1", "error: engine: unknown column nosuch"},
		{false, nil, "delete from MOVIES where nosuch = 1", "error: engine: unknown column nosuch"},
	} {
		build := dataset.CuratedMovieDB
		if c.emp {
			build = dataset.CuratedEmpDept
		}
		db, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ex := New(db)
		for _, s := range c.setup {
			if _, _, err := ex.Exec(s); err != nil {
				t.Fatal(err)
			}
		}
		res, n, err := ex.Exec(c.sql)
		if got := render(res, n, err); got != c.want {
			t.Errorf("%s\n got:\n%s\nwant:\n%s", c.sql, got, c.want)
		}
	}
}
