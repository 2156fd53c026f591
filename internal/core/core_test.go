package core

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/queryclassify"
	"repro/internal/speech"
	"repro/internal/sqlparser"
	"repro/internal/value"
)

func movieSystem(t *testing.T) *System {
	t.Helper()
	s, err := NewMovieSystem()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDescribeQueryVerification(t *testing.T) {
	s := movieSystem(t)
	tr, err := s.DescribeQuery(sqlparser.PaperQueries["Q1"])
	if err != nil {
		t.Fatal(err)
	}
	if tr.Text != "Find movies where Brad Pitt plays." {
		t.Errorf("verification = %q", tr.Text)
	}
	if tr.Class.Category != queryclassify.Path {
		t.Errorf("class = %s", tr.Class.Category)
	}
}

func TestAskFullLoop(t *testing.T) {
	s := movieSystem(t)
	resp, err := s.Ask(sqlparser.PaperQueries["Q1"])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verification == nil || resp.Result == nil {
		t.Fatal("incomplete response")
	}
	if len(resp.Result.Rows) != 2 {
		t.Errorf("rows = %d", len(resp.Result.Rows))
	}
	if !strings.Contains(resp.Answer, "Star Raiders") || !strings.Contains(resp.Answer, "Galaxy at War") {
		t.Errorf("answer = %q", resp.Answer)
	}
	if resp.Feedback != "" {
		t.Errorf("unexpected feedback: %q", resp.Feedback)
	}
}

func TestAskEmptyAnswerFeedback(t *testing.T) {
	s := movieSystem(t)
	resp, err := s.Ask(`select m.title from MOVIES m, CAST c, ACTOR a
		where m.id = c.mid and c.aid = a.id and a.name = 'Nobody Unknown'`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Answer != "There are no results." {
		t.Errorf("answer = %q", resp.Answer)
	}
	if !strings.Contains(resp.Feedback, "Nobody Unknown") {
		t.Errorf("feedback = %q", resp.Feedback)
	}
}

func TestAskLargeAnswerFeedback(t *testing.T) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{Seed: 4, Movies: 150, Actors: 50, Directors: 8, CastPerMovie: 3, GenresPerMovie: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, func() Config { c := MovieConfig(); c.LargeThreshold = 50; return c }())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Ask("select m.title, c.role from MOVIES m, CAST c where m.id = c.mid")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Feedback, "threshold") {
		t.Errorf("feedback = %q", resp.Feedback)
	}
	if !strings.Contains(resp.Answer, "omitted") {
		t.Errorf("answer not truncated: %q", resp.Answer)
	}
}

func TestAskDML(t *testing.T) {
	s := movieSystem(t)
	resp, err := s.Ask("delete from GENRE g where g.genre = 'adventure'")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Affected != 3 {
		t.Errorf("affected = %d", resp.Affected)
	}
	if !strings.Contains(resp.Answer, "three rows affected") {
		t.Errorf("answer = %q", resp.Answer)
	}
	if !strings.Contains(resp.Verification.Text, "Delete the genres") {
		t.Errorf("verification = %q", resp.Verification.Text)
	}
}

// TestAskUpdateRefusesDuplicateKey is the Ask-level regression test for
// UPDATE forging a duplicate primary key: the statement is refused in
// INSERT's words, and afterwards the key probe and a scan still agree that
// exactly one movie holds id 100.
func TestAskUpdateRefusesDuplicateKey(t *testing.T) {
	s := movieSystem(t)
	_, err := s.Ask("update MOVIES set id = 100 where id = 101")
	if err == nil || !strings.Contains(err.Error(), "duplicate primary key 100 in MOVIES") {
		t.Fatalf("update onto a taken key: %v", err)
	}
	for sql, want := range map[string]int64{
		"select count(*) from MOVIES m where m.id = 100":     1, // primary-key probe
		"select count(*) from MOVIES m where m.id + 0 = 100": 1, // scan
		"select count(*) from MOVIES m where m.id = 101":     1,
	} {
		resp, err := s.Ask(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Result.Rows[0][0].Int(); got != want {
			t.Errorf("%s = %d, want %d", sql, got, want)
		}
	}
}

// TestAskLexErrorSameColdAndWarm: a text the lexer or parser rejects gets the
// same error whether or not the clean text it resembles is cached — the cache
// key folds only what the lexer skips and the one terminator the parser takes.
func TestAskLexErrorSameColdAndWarm(t *testing.T) {
	s := movieSystem(t)
	const clean = "select m.title from MOVIES m where m.id = 100"
	for _, dirty := range []string{
		"select m.title from MOVIES\u00a0m where m.id = 100", // no-break space
		"select m.title from MOVIES\fm where m.id = 100",
		"select m.title from MOVIES m where m.id = 100\u2003",
		"select m.title from MOVIES m where m.id = 100 LIMIT 1\u212a", // Kelvin sign
		"select m.title from MOVIES m where m.id = 100;;",
		"select m.title from MOVIES m where m.id = 100; ;",
	} {
		_, cold := s.Ask(dirty)
		if cold == nil {
			t.Fatalf("%q was accepted cold", dirty)
		}
		for _, warmer := range []string{clean, clean + " limit 1k"} {
			_, _ = s.Ask(warmer)
		}
		_, warm := s.Ask(dirty)
		if warm == nil || warm.Error() != cold.Error() {
			t.Fatalf("%q: cold error %q, warm %v", dirty, cold, warm)
		}
		if _, err := s.DescribeQuery(dirty); err == nil || err.Error() != cold.Error() {
			t.Fatalf("%q: DescribeQuery warm = %v, cold Ask error %q", dirty, err, cold)
		}
	}
}

// TestAskInvalidBytesInLiteralStayDistinct: two statements whose literals
// differ in a byte that is not valid UTF-8 are different questions — the
// lexer reads literals byte by byte — so neither may be served the other's
// cached answer.
func TestAskInvalidBytesInLiteralStayDistinct(t *testing.T) {
	s := movieSystem(t)
	if _, err := s.Ask("insert into MOVIES (id, title, year) values (990, 'x\xff', 2000)"); err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "warm"} {
		for _, q := range []struct {
			sql  string
			rows int
		}{
			{"select m.id from MOVIES m where m.title = 'x\xff'", 1},
			{"select m.id from MOVIES m where m.title = 'x\xfe'", 0},
		} {
			resp, err := s.Ask(q.sql)
			if err != nil {
				t.Fatalf("%s %q: %v", pass, q.sql, err)
			}
			if got := len(resp.Result.Rows); got != q.rows {
				t.Errorf("%s %q: %d rows, want %d", pass, q.sql, got, q.rows)
			}
		}
	}
}

func TestNarrateSingleValue(t *testing.T) {
	s := movieSystem(t)
	resp, err := s.Ask("select count(*) from MOVIES m")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Answer != "The answer is 13." {
		t.Errorf("answer = %q", resp.Answer)
	}
}

func TestNarrateMultiColumn(t *testing.T) {
	s := movieSystem(t)
	resp, err := s.Ask("select m.title, m.year from MOVIES m where m.id = 100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Answer, "title Match Point") || !strings.Contains(resp.Answer, "year 2005") {
		t.Errorf("answer = %q", resp.Answer)
	}
}

func TestDescribeEntityThroughFacade(t *testing.T) {
	s := movieSystem(t)
	got, err := s.DescribeEntity("DIRECTOR", "name", value.NewText("Woody Allen"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "Match Point (2005)") {
		t.Errorf("narrative = %q", got)
	}
}

func TestDescribeDatabaseThroughFacade(t *testing.T) {
	s := movieSystem(t)
	got, err := s.DescribeDatabase("MOVIES")
	if err != nil {
		t.Fatal(err)
	}
	if got == "" {
		t.Error("empty database narrative")
	}
}

func TestDescribeSchema(t *testing.T) {
	s := movieSystem(t)
	got := s.DescribeSchema()
	for _, want := range []string{
		"Each movie has identifier, title, and year",
		"relates to",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("schema narrative missing %q:\n%s", want, got)
		}
	}
	// Bridges are looked through, not narrated.
	if strings.Contains(got, "cast entry has") {
		t.Errorf("bridge narrated: %s", got)
	}
}

func TestQueryGraphExport(t *testing.T) {
	s := movieSystem(t)
	g, err := s.QueryGraph(sqlparser.PaperQueries["Q7"])
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nested) != 1 {
		t.Errorf("nested = %d", len(g.Nested))
	}
	if !strings.Contains(g.DOT(), "digraph query") {
		t.Error("DOT export")
	}
	if _, err := s.QueryGraph("not sql"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestVoiceSession(t *testing.T) {
	s := movieSystem(t)
	v := s.NewVoiceSession(speech.MovieGrammar())
	turn, err := v.Ask("which movies does Brad Pitt play in")
	if err != nil {
		t.Fatal(err)
	}
	if turn.Verification != "Find movies where Brad Pitt plays." {
		t.Errorf("verification = %q", turn.Verification)
	}
	if !strings.Contains(turn.Answer, "Star Raiders") {
		t.Errorf("answer = %q", turn.Answer)
	}
	if len(turn.Events) == 0 || speech.DurationMs(turn.Events) <= 0 {
		t.Error("no speech events")
	}
	if _, err := v.Ask("meaningless gibberish"); err == nil {
		t.Error("gibberish recognized")
	}
}

func TestVoiceSessionEmptyAnswerSpeaksFeedback(t *testing.T) {
	s := movieSystem(t)
	v := s.NewVoiceSession(speech.MovieGrammar())
	turn, err := v.Ask("which movies does Zz Topp play in")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(turn.Answer, "There are no results.") {
		t.Errorf("answer = %q", turn.Answer)
	}
	if !strings.Contains(turn.Answer, "returns nothing because") {
		t.Errorf("feedback not spoken: %q", turn.Answer)
	}
}

func TestProfiles(t *testing.T) {
	s := movieSystem(t)
	p := catalog.NewProfile("year-fan")
	p.HeadingOverride["MOVIES"] = "year"
	if err := s.RegisterProfile(p); err != nil {
		t.Fatal(err)
	}
	if err := s.Profile("year-fan"); err != nil {
		t.Fatal(err)
	}
	if err := s.Profile("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestEmpSystem(t *testing.T) {
	s, err := NewEmpSystem()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Ask(sqlparser.PaperQueries["Q0"])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verification.Text != "Find the names of employees who make more than their managers." {
		t.Errorf("verification = %q", resp.Verification.Text)
	}
	if len(resp.Result.Rows) != 2 {
		t.Errorf("rows = %d", len(resp.Result.Rows))
	}
}

func TestNewValidatesRelationships(t *testing.T) {
	db, err := dataset.CuratedEmpDept()
	if err != nil {
		t.Fatal(err)
	}
	cfg := MovieConfig() // movie relationships are invalid for EMP schema
	if _, err := New(db, cfg); err == nil {
		t.Error("mismatched relationships accepted")
	}
}

func BenchmarkAskQ1(b *testing.B) {
	s, err := NewMovieSystem()
	if err != nil {
		b.Fatal(err)
	}
	src := sqlparser.PaperQueries["Q1"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ask(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVoiceLoop(b *testing.B) {
	s, err := NewMovieSystem()
	if err != nil {
		b.Fatal(err)
	}
	v := s.NewVoiceSession(speech.MovieGrammar())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Ask("which movies does Brad Pitt play in"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDescribeStatistics(t *testing.T) {
	s := movieSystem(t)
	got := s.DescribeStatistics()
	for _, want := range []string{
		"The database holds", "movies", "actors", "directors",
		"distinct title values", // King Kong ×3 collapses 13 titles to 11
	} {
		if !strings.Contains(got, want) {
			t.Errorf("statistics narrative missing %q:\n%s", want, got)
		}
	}
}

// TestAskRecordsPlan: every SELECT Response carries the plan that produced
// it, and a cache hit returns the recorded plan rather than re-planning.
func TestAskRecordsPlan(t *testing.T) {
	s := movieSystem(t)
	sql := sqlparser.PaperQueries["Q1"]
	first, err := s.Ask(sql)
	if err != nil {
		t.Fatal(err)
	}
	if first.Plan == nil || first.Plan.Fingerprint == "" {
		t.Fatal("SELECT response has no plan")
	}
	second, err := s.Ask(sql)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("expected a cache hit (same Response pointer)")
	}
	if second.Plan.Fingerprint != first.Plan.Fingerprint {
		t.Fatal("cached response lost its plan")
	}

	// DML bumps the generation: the next Ask re-plans and re-records.
	if _, err := s.Ask("insert into GENRE (mid, genre) values (100, 'noir')"); err != nil {
		t.Fatal(err)
	}
	third, err := s.Ask(sql)
	if err != nil {
		t.Fatal(err)
	}
	if third == first {
		t.Fatal("stale cached response served after DML")
	}
	if third.Plan == nil {
		t.Fatal("re-executed response has no plan")
	}
}

// TestAskExplainPlan: EXPLAIN PLAN through the full talk-back loop narrates
// the plan in English instead of the rows.
func TestAskExplainPlan(t *testing.T) {
	s := movieSystem(t)
	resp, err := s.Ask("explain plan " + sqlparser.PaperQueries["Q1"])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Plan == nil || len(resp.Plan.Steps) == 0 {
		t.Fatal("EXPLAIN response has no structured plan")
	}
	if !strings.Contains(resp.Answer, "Step 1") {
		t.Errorf("answer = %q, want a step-by-step narration", resp.Answer)
	}
	if resp.Verification == nil || !strings.Contains(resp.Verification.Text, "Explain how the system answers") {
		t.Errorf("verification = %+v", resp.Verification)
	}
	if resp.Result != nil {
		t.Error("EXPLAIN must not return the query's rows")
	}
}

// TestExplainPlanEndpointBackbone: System.ExplainPlan accepts bare SELECTs
// and EXPLAIN statements, and rejects DML.
func TestExplainPlanEndpointBackbone(t *testing.T) {
	s := movieSystem(t)
	for _, sql := range []string{
		sqlparser.PaperQueries["Q1"],
		"explain plan " + sqlparser.PaperQueries["Q1"],
	} {
		diag, err := s.ExplainPlan(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if diag.Plan == nil || diag.Text == "" {
			t.Fatalf("%s: empty diagnosis", sql)
		}
		if diag.Plan.ActualRows < 0 {
			t.Fatalf("%s: plan not executed", sql)
		}
	}
	if _, err := s.ExplainPlan("delete from GENRE"); err == nil {
		t.Fatal("EXPLAIN of DML accepted")
	}
}
