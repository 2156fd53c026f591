package explain

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/querytotext"
	"repro/internal/sqlparser"
)

func newExplainer(t *testing.T) *Explainer {
	t.Helper()
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := engine.New(db)
	tr := querytotext.New(db.Schema(), querytotext.MovieVerbs(), querytotext.Options{})
	return New(ex, tr)
}

func parse(t *testing.T, src string) *sqlparser.SelectStmt {
	t.Helper()
	sel, err := sqlparser.ParseSelect(src)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestExplainEmptySingleCulprit(t *testing.T) {
	e := newExplainer(t)
	sel := parse(t, `select m.title from MOVIES m, CAST c, ACTOR a
		where m.id = c.mid and c.aid = a.id and a.name = 'Nobody Unknown'`)
	d, err := e.ExplainEmpty(sel)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty || d.JoinsEmpty {
		t.Fatalf("diag = %+v", d)
	}
	if len(d.Culprits) != 1 || !d.Culprits[0].Alone {
		t.Fatalf("culprits = %+v", d.Culprits)
	}
	if !strings.Contains(d.Culprits[0].Predicates[0], "Nobody Unknown") {
		t.Errorf("culprit = %+v", d.Culprits[0])
	}
	if !strings.Contains(d.Text, "returns nothing because") {
		t.Errorf("text = %q", d.Text)
	}
}

func TestExplainEmptyPairCulprit(t *testing.T) {
	e := newExplainer(t)
	// Each filter is satisfiable alone; together they fail: Brad Pitt (in
	// 1999/2002 movies) and year 2005.
	sel := parse(t, `select m.title from MOVIES m, CAST c, ACTOR a
		where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt' and m.year = 2005`)
	d, err := e.ExplainEmpty(sel)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty {
		t.Fatal("expected empty")
	}
	if len(d.Culprits) == 0 {
		t.Fatalf("no culprits: %+v", d)
	}
	if d.Culprits[0].Alone {
		t.Errorf("expected pair culprit, got %+v", d.Culprits[0])
	}
	if len(d.Culprits[0].Predicates) != 2 {
		t.Errorf("pair = %+v", d.Culprits[0])
	}
	if !strings.Contains(d.Text, "together with") {
		t.Errorf("text = %q", d.Text)
	}
}

func TestExplainEmptyNonEmptyAnswer(t *testing.T) {
	e := newExplainer(t)
	sel := parse(t, sqlparser.PaperQueries["Q1"])
	d, err := e.ExplainEmpty(sel)
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty {
		t.Error("Q1 is not empty")
	}
	if !strings.Contains(d.Text, "nothing to diagnose") {
		t.Errorf("text = %q", d.Text)
	}
}

func TestExplainEmptyJoinsEmpty(t *testing.T) {
	e := newExplainer(t)
	// Delete all CAST rows so the join structure itself is empty.
	if _, _, err := e.ex.Exec("delete from CAST"); err != nil {
		t.Fatal(err)
	}
	sel := parse(t, sqlparser.PaperQueries["Q1"])
	d, err := e.ExplainEmpty(sel)
	if err != nil {
		t.Fatal(err)
	}
	if !d.JoinsEmpty {
		t.Fatalf("diag = %+v", d)
	}
	if !strings.Contains(d.Text, "share no matching rows") {
		t.Errorf("text = %q", d.Text)
	}
}

func TestExplainLarge(t *testing.T) {
	e := newExplainer(t)
	sel := parse(t, "select m.title, c.role from MOVIES m, CAST c where m.id = c.mid")
	d, err := e.ExplainLarge(sel, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Large || d.Rows <= 5 {
		t.Fatalf("diag = %+v", d)
	}
	if len(d.Contributions) != 2 {
		t.Fatalf("contributions = %+v", d.Contributions)
	}
	// Unfiltered relations are called out.
	if !strings.Contains(d.Text, "unrestricted") {
		t.Errorf("text = %q", d.Text)
	}
	if !strings.Contains(d.Text, "Consider adding a more selective condition.") {
		t.Errorf("text = %q", d.Text)
	}
}

func TestExplainLargeWeakFilter(t *testing.T) {
	e := newExplainer(t)
	// year > 1900 keeps everything: a weak filter.
	sel := parse(t, "select m.title, c.role from MOVIES m, CAST c where m.id = c.mid and m.year > 1900")
	d, err := e.ExplainLarge(sel, 5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range d.Contributions {
		if strings.EqualFold(c.Relation, "MOVIES") && c.Filtered > 0.99 {
			found = true
		}
	}
	if !found {
		t.Errorf("weak filter not measured: %+v", d.Contributions)
	}
}

// An OR conjunct keeps its grouping when a box's filters are recounted, so
// the order of the conjuncts does not change the diagnosis.
func TestExplainLargeOrConjunct(t *testing.T) {
	e := newExplainer(t)
	var texts []string
	var kept []float64
	for _, where := range []string{
		"(m.year > 1990 or m.year < 1900) and m.year < 2006",
		"m.year < 2006 and (m.year > 1990 or m.year < 1900)",
	} {
		d, err := e.ExplainLarge(parse(t, "select m.title, c.role from MOVIES m, CAST c where m.id = c.mid and "+where), 2)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Large {
			t.Fatalf("%s: not large: %+v", where, d)
		}
		for _, c := range d.Contributions {
			if strings.EqualFold(c.Relation, "MOVIES") {
				kept = append(kept, c.Filtered)
			}
		}
		texts = append(texts, d.Text)
	}
	if len(kept) != 2 || kept[0] != kept[1] || texts[0] != texts[1] {
		t.Errorf("conjunct order changed the diagnosis: MOVIES kept %v\n%s\n%s", kept, texts[0], texts[1])
	}
}

func TestExplainLargeWithinThreshold(t *testing.T) {
	e := newExplainer(t)
	sel := parse(t, "select m.title from MOVIES m where m.id = 100")
	d, err := e.ExplainLarge(sel, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Large {
		t.Error("single-row answer flagged large")
	}
	if !strings.Contains(d.Text, "within the threshold") {
		t.Errorf("text = %q", d.Text)
	}
}

func BenchmarkExplainEmpty(b *testing.B) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		b.Fatal(err)
	}
	ex := engine.New(db)
	tr := querytotext.New(db.Schema(), querytotext.MovieVerbs(), querytotext.Options{})
	e := New(ex, tr)
	sel, _ := sqlparser.ParseSelect(`select m.title from MOVIES m, CAST c, ACTOR a
		where m.id = c.mid and c.aid = a.id and a.name = 'Nobody Unknown'`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExplainEmpty(sel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExplainLarge(b *testing.B) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{Seed: 9, Movies: 300, Actors: 100, Directors: 10, CastPerMovie: 3, GenresPerMovie: 2})
	if err != nil {
		b.Fatal(err)
	}
	ex := engine.New(db)
	tr := querytotext.New(db.Schema(), querytotext.MovieVerbs(), querytotext.Options{})
	e := New(ex, tr)
	sel, _ := sqlparser.ParseSelect("select m.title, c.role from MOVIES m, CAST c where m.id = c.mid")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExplainLarge(sel, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExplainPlan narrates an executed plan: structured steps with actuals
// filled in and English text, and no tip for a selective filter on a larger
// database — the primary key is the only index, so none is suggested.
func TestExplainPlan(t *testing.T) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 3, Movies: 2000, Actors: 500, Directors: 21, CastPerMovie: 2, GenresPerMovie: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := engine.New(db)
	tr := querytotext.New(db.Schema(), querytotext.MovieVerbs(), querytotext.Options{})
	e := New(ex, tr)

	diag, err := e.ExplainPlan(parse(t,
		"select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = 'Role 7-19'"))
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Plan.Steps) != 2 {
		t.Fatalf("steps = %d", len(diag.Plan.Steps))
	}
	if diag.Plan.Steps[0].Relation != "CAST" {
		t.Errorf("first step = %s, want the filtered CAST scan", diag.Plan.Steps[0].Relation)
	}
	for _, st := range diag.Plan.Steps {
		if st.ActualRows < 0 {
			t.Errorf("step %s has no actual row count", st.Relation)
		}
	}
	if !strings.Contains(diag.Text, "Step 1") || !strings.Contains(diag.Text, "scans all of CAST") {
		t.Errorf("narration = %q", diag.Text)
	}
	if len(diag.Tips) != 0 {
		t.Errorf("tips = %v, want none", diag.Tips)
	}
}

// TestExplainPlanFallback: an outer join, which the planner once refused,
// explains a real plan — every step with its actual rows, and the side the
// join keeps.
func TestExplainPlanFallback(t *testing.T) {
	e := newExplainer(t)
	diag, err := e.ExplainPlan(parse(t,
		"select m.title from MOVIES m left join CAST c on m.id = c.mid"))
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Plan.Steps) != 2 || diag.Plan.Steps[1].Join != "left" {
		t.Fatalf("steps = %+v, want a scan of MOVIES and a left join onto CAST", diag.Plan.Steps)
	}
	for _, st := range diag.Plan.Steps {
		if st.ActualRows < 0 {
			t.Errorf("step %s has no actual row count", st.Relation)
		}
	}
	if !strings.Contains(diag.Text, "keeping every row so far and padding c with NULLs where nothing matches") {
		t.Errorf("narration = %q", diag.Text)
	}
}

// A size reason names each relation by the plural of its catalog concept,
// not by a pluralized relation name ("movieses", "casts").
func TestExplainLargeNamesConcepts(t *testing.T) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 3, Movies: 300, Actors: 50, Directors: 9, CastPerMovie: 2, GenresPerMovie: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := New(engine.New(db), querytotext.New(db.Schema(), querytotext.MovieVerbs(), querytotext.Options{}))
	for sql, want := range map[string]string{
		"select m.title from MOVIES m where 1 = 1 and m.year is not null":                "movies contribute all of their 300 rows unrestricted",
		"select m.title, c.role from MOVIES m, CAST c where m.id = c.mid":                "cast entries contribute all of their 575 rows unrestricted",
		"select m.title, c.role from MOVIES m, CAST c where m.id = c.mid and c.mid > 30": "the filter on cast entries keeps",
	} {
		d, err := e.ExplainLarge(parse(t, sql), 10)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(d.Text, want) {
			t.Errorf("%s:\n%s\nwant it to say %q", sql, d.Text, want)
		}
	}
}

// TestExplainAnswerReuse holds the feedback a caller gets for the answer it
// already has to the feedback that answers the query itself: a one-step
// plan's scan count stands in for the recount of its relation's filters — a
// LIMIT, an aggregate, a primary-key probe and a subquery conjunct (which the
// box's filters leave out, so the recount runs) included — and the empty
// diagnosis reads the answer it is given.
func TestExplainAnswerReuse(t *testing.T) {
	e := newExplainer(t)
	for _, sql := range []string{
		"select m.title from MOVIES m where m.year > 1990",
		"select m.title from MOVIES m where m.year > 1990 and m.title <> 'Anna' limit 3",
		"select m.year, count(*) from MOVIES m where m.year < 2005 group by m.year",
		"select m.title from MOVIES m where m.id = 100 and m.year > 1900",
		"select m.title from MOVIES m where m.year > 1900 and m.id in (select c.mid from CAST c)",
		"select m.title, c.role from MOVIES m, CAST c where m.id = c.mid and m.year > 1900",
	} {
		sel := parse(t, sql)
		res, plan, err := e.ex.SelectExplained(sel)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.ExplainLargeAnswer(sel, res, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.ExplainLargeAnswer(sel, res, plan, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Text != want.Text || len(got.Contributions) != len(want.Contributions) {
			t.Errorf("%s:\nfrom the plan: %s\nrecounted:     %s", sql, got.Text, want.Text)
			continue
		}
		for i := range got.Contributions {
			if got.Contributions[i] != want.Contributions[i] {
				t.Errorf("%s: contribution %d from the plan %+v, recounted %+v", sql, i, got.Contributions[i], want.Contributions[i])
			}
		}
	}
	sel := parse(t, "select m.title from MOVIES m where m.year > 3000 and m.title = 'Anna'")
	res, err := e.ex.Select(sel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.ExplainEmptyAnswer(sel, res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.ExplainEmpty(sel)
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != want.Text || !got.Empty {
		t.Errorf("empty answer: given %q, answered itself %q", got.Text, want.Text)
	}
}
