package datatotext

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/nlg"
	"repro/internal/schemagraph"
	"repro/internal/storage"
	"repro/internal/templates"
	"repro/internal/value"
)

func movieTranslator(t *testing.T, opts Options) *Translator {
	t.Helper()
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewMovieTranslator(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestWoodyAllenCompactNarrative reproduces the paper's §2.2 compact
// narrative verbatim:
//
//	"Woody Allen was born in Brooklyn, New York, USA on December 1, 1935.
//	 As a director, Woody Allen's work includes Match Point (2005),
//	 Melinda and Melinda (2004), and Anything Else (2003)."
func TestWoodyAllenCompactNarrative(t *testing.T) {
	tr := movieTranslator(t, Options{Style: nlg.Compact})
	got, err := tr.DescribeEntity("DIRECTOR", "name", value.NewText("Woody Allen"))
	if err != nil {
		t.Fatal(err)
	}
	want := "Woody Allen was born in Brooklyn, New York, USA on December 1, 1935. " +
		"As a director, Woody Allen's work includes Match Point (2005), " +
		"Melinda and Melinda (2004), and Anything Else (2003)."
	if got != want {
		t.Errorf("compact narrative:\n got: %q\nwant: %q", got, want)
	}
}

// TestWoodyAllenProceduralNarrative reproduces the paper's procedural
// variant: the list without years, followed by one release sentence per
// movie.
func TestWoodyAllenProceduralNarrative(t *testing.T) {
	tr := movieTranslator(t, Options{Style: nlg.Procedural})
	got, err := tr.DescribeEntity("DIRECTOR", "name", value.NewText("Woody Allen"))
	if err != nil {
		t.Fatal(err)
	}
	want := "Woody Allen was born in Brooklyn, New York, USA. " +
		"They was born on December 1, 1935. " +
		"As a director, Woody Allen's work includes Match Point, Melinda and Melinda, Anything Else. " +
		"Match Point was released in 2005. " +
		"Melinda and Melinda was released in 2004. " +
		"Anything Else was released in 2003."
	if got != want {
		t.Errorf("procedural narrative:\n got: %q\nwant: %q", got, want)
	}
}

func TestAutoRealizationPicksCompactForDirector(t *testing.T) {
	tr := movieTranslator(t, Options{Auto: true})
	got, err := tr.DescribeEntity("DIRECTOR", "name", value.NewText("Woody Allen"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "Match Point (2005)") {
		t.Errorf("auto mode should choose compact here: %q", got)
	}
}

func TestActorRelationship(t *testing.T) {
	tr := movieTranslator(t, Options{Style: nlg.Compact})
	got, err := tr.DescribeEntity("ACTOR", "name", value.NewText("Brad Pitt"))
	if err != nil {
		t.Fatal(err)
	}
	want := "As an actor, Brad Pitt plays in Galaxy at War (2002), and Star Raiders (1999)."
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestMovieGenreRelationship(t *testing.T) {
	tr := movieTranslator(t, Options{Style: nlg.Compact})
	got, err := tr.DescribeEntity("MOVIES", "title", value.NewText("The Matrix"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "The Matrix was released in 1999.") {
		t.Errorf("missing year clause: %q", got)
	}
	if !strings.Contains(got, "action/sci-fi movie The Matrix") {
		t.Errorf("missing genre list: %q", got)
	}
}

func TestDescribeEntityErrors(t *testing.T) {
	tr := movieTranslator(t, Options{})
	if _, err := tr.DescribeEntity("NOPE", "x", value.NewInt(1)); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := tr.DescribeEntity("MOVIES", "nope", value.NewInt(1)); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := tr.DescribeEntity("MOVIES", "id", value.NewInt(999999)); err == nil {
		t.Error("missing entity accepted")
	}
}

func TestMaxListItems(t *testing.T) {
	tr := movieTranslator(t, Options{Style: nlg.Compact, MaxListItems: 2})
	got, err := tr.DescribeEntity("DIRECTOR", "name", value.NewText("Woody Allen"))
	if err != nil {
		t.Fatal(err)
	}
	// Ranked by year desc, the two most recent movies survive the cut.
	if !strings.Contains(got, "Match Point (2005)") || !strings.Contains(got, "Melinda and Melinda (2004)") {
		t.Errorf("top-2 missing: %q", got)
	}
	if strings.Contains(got, "Anything Else") {
		t.Errorf("list not truncated: %q", got)
	}
}

func TestDescribeRelation(t *testing.T) {
	tr := movieTranslator(t, Options{Style: nlg.Procedural, MaxTuplesPerRelation: 2})
	got, err := tr.DescribeRelation("DIRECTOR", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Two director sentences.
	if n := strings.Count(got, "is a director"); n != 2 {
		t.Errorf("expected 2 director clauses, got %d: %q", n, got)
	}
	if _, err := tr.DescribeRelation("NOPE", 1); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestDescribeDatabaseBudget(t *testing.T) {
	tr := movieTranslator(t, Options{Style: nlg.Procedural, MaxSentences: 4, MaxTuplesPerRelation: 2})
	got, err := tr.DescribeDatabase("MOVIES")
	if err != nil {
		t.Fatal(err)
	}
	if got == "" {
		t.Error("empty narrative")
	}
	// Unbudgeted narrative is strictly longer.
	tr2 := movieTranslator(t, Options{Style: nlg.Procedural, MaxTuplesPerRelation: 5})
	full, err := tr2.DescribeDatabase("MOVIES")
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= len(got) {
		t.Errorf("budget had no effect: %d vs %d", len(full), len(got))
	}
}

func TestDescribeDatabaseSkipsBridges(t *testing.T) {
	tr := movieTranslator(t, Options{Style: nlg.Procedural})
	got, err := tr.DescribeDatabase("DIRECTOR")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got, "DIRECTED") || strings.Contains(got, "is a role in the movie") {
		t.Errorf("bridge relation content leaked: %q", got)
	}
}

func TestMinWeightPruning(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	// GENRE has default weight 1; set floor above it but below MOVIES (3).
	tr, err := NewMovieTranslator(db, Options{Style: nlg.Procedural, MinWeight: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.DescribeDatabase("MOVIES")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got, "movie belongs to the collection") {
		t.Errorf("pruned relation narrated: %q", got)
	}
}

func TestPersonalizationProfile(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	p := catalog.NewProfile("year-first")
	p.HeadingOverride["MOVIES"] = "year"
	if err := db.Schema().AddProfile(p); err != nil {
		t.Fatal(err)
	}
	tr, err := NewMovieTranslator(db, Options{Style: nlg.Procedural, Profile: p})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.DescribeEntity("DIRECTOR", "name", value.NewText("Woody Allen"))
	if err != nil {
		t.Fatal(err)
	}
	// Procedural listing enumerates heading values — years, not titles.
	if !strings.Contains(got, "work includes 2005, 2004, 2003") {
		t.Errorf("profile heading override ignored: %q", got)
	}
}

func TestAddRelationshipValidation(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	g, err := schemagraph.Build(db.Schema())
	if err != nil {
		t.Fatal(err)
	}
	tr := New(engine.New(db), g, Options{})
	tpl := templates.MustParse(`"x" + LIST`)
	cases := []Relationship{
		{From: "NOPE", To: "MOVIES", Template: tpl},
		{From: "DIRECTOR", To: "NOPE", Template: tpl},
		{From: "DIRECTOR", To: "MOVIES", Via: "NOPE", Template: tpl},
		{From: "DIRECTOR", To: "GENRE", Via: "CAST", Template: tpl}, // CAST doesn't connect them
		{From: "DIRECTOR", To: "MOVIES", Template: tpl},             // no direct FK
		{From: "DIRECTOR", To: "MOVIES", Via: "DIRECTED"},           // no template
	}
	for i, r := range cases {
		if err := tr.AddRelationship(r); err == nil {
			t.Errorf("case %d accepted: %+v", i, r)
		}
	}
	ok := Relationship{From: "DIRECTOR", To: "MOVIES", Via: "DIRECTED", Template: tpl}
	if err := tr.AddRelationship(ok); err != nil {
		t.Errorf("valid relationship rejected: %v", err)
	}
}

// TestAddRelationshipRefusesNonKeyBridge: a bridge whose foreign key lands on
// a non-key attribute could name several tuples per bridge row; the
// relationship is refused at registration, in either direction.
func TestAddRelationshipRefusesNonKeyBridge(t *testing.T) {
	schema := catalog.NewSchema("nonkey")
	for _, r := range []*catalog.Relation{
		{Name: "A", PrimaryKey: []string{"id"}, Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true}, {Name: "code", Type: catalog.Int}}},
		{Name: "B", PrimaryKey: []string{"id"}, Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true}}},
		{Name: "AB", Bridge: true, Attributes: []*catalog.Attribute{
			{Name: "acode", Type: catalog.Int}, {Name: "bid", Type: catalog.Int}},
			ForeignKey: []catalog.ForeignKey{
				{Attrs: []string{"acode"}, RefRelation: "A", RefAttrs: []string{"code"}},
				{Attrs: []string{"bid"}, RefRelation: "B", RefAttrs: []string{"id"}}}},
	} {
		if err := schema.AddRelation(r); err != nil {
			t.Fatal(err)
		}
	}
	db, err := storage.NewDatabase(schema)
	if err != nil {
		t.Fatal(err)
	}
	g, err := schemagraph.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(engine.New(db), g, Options{})
	tpl := templates.MustParse(`"x" + LIST`)
	for _, r := range []Relationship{
		{From: "B", To: "A", Via: "AB", Template: tpl},
		{From: "A", To: "B", Via: "AB", Template: tpl},
	} {
		if err := tr.AddRelationship(r); err == nil {
			t.Errorf("bridge onto the non-key A.code accepted: %+v", r)
		}
	}
}

func TestRelationshipOrderByValidation(t *testing.T) {
	db, _ := dataset.CuratedMovieDB()
	g, _ := schemagraph.Build(db.Schema())
	_ = AnnotateMovieGraph(g)
	tr := New(engine.New(db), g, Options{Style: nlg.Compact})
	bad := Relationship{
		From: "DIRECTOR", To: "MOVIES", Via: "DIRECTED",
		Template:  templates.MustParse(`NAME + " made " + L`),
		ListField: "L",
		List:      templates.MustParseList(`[i < arityOf(TITLE)] { TITLE[i] }`),
		OrderBy:   "nope",
	}
	if err := tr.AddRelationship(bad); err != nil {
		t.Fatal(err) // OrderBy validated lazily at render time
	}
	if _, err := tr.DescribeEntity("DIRECTOR", "name", value.NewText("Woody Allen")); err == nil {
		t.Error("bad OrderBy attribute accepted at render time")
	}
}

func TestEmptyRelationshipProducesNothing(t *testing.T) {
	db, _ := dataset.CuratedMovieDB()
	tr, err := NewMovieTranslator(db, Options{Style: nlg.Compact})
	if err != nil {
		t.Fatal(err)
	}
	// Sofia Ferrara directs movies; Merian Cooper directs only King Kong
	// 1933. A director with no movies: insert one.
	if err := db.Insert("DIRECTOR", storage.Tuple{
		value.NewInt(99), value.NewText("No Films Yet"), value.NewNull(), value.NewNull(),
	}); err != nil {
		t.Fatal(err)
	}
	got, err := tr.DescribeEntity("DIRECTOR", "name", value.NewText("No Films Yet"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got, "work includes") {
		t.Errorf("empty relationship rendered: %q", got)
	}
}

func TestNullAttributesSkipTemplates(t *testing.T) {
	db, _ := dataset.CuratedMovieDB()
	if err := db.Insert("DIRECTOR", storage.Tuple{
		value.NewInt(98), value.NewText("Partial Person"), value.NewNull(), value.NewText("Somewhere"),
	}); err != nil {
		t.Fatal(err)
	}
	tr, err := NewMovieTranslator(db, Options{Style: nlg.Compact})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.DescribeEntity("DIRECTOR", "name", value.NewText("Partial Person"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "was born in Somewhere") {
		t.Errorf("present attribute lost: %q", got)
	}
	if strings.Contains(got, "on ") && strings.Contains(got, "born in Somewhere on") {
		t.Errorf("NULL bdate rendered: %q", got)
	}
}

func TestRankTuplesDeterminism(t *testing.T) {
	tr := movieTranslator(t, Options{Style: nlg.Procedural, MaxTuplesPerRelation: 3})
	a, err := tr.DescribeRelation("MOVIES", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.DescribeRelation("MOVIES", 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("ranking not deterministic")
	}
}

func TestSetOptions(t *testing.T) {
	tr := movieTranslator(t, Options{Style: nlg.Compact})
	opts := tr.Options()
	opts.Style = nlg.Procedural
	tr.SetOptions(opts)
	if tr.Options().Style != nlg.Procedural {
		t.Error("SetOptions did not apply")
	}
	if tr.Options().MaxTuplesPerRelation == 0 {
		t.Error("default MaxTuplesPerRelation not applied")
	}
}

func BenchmarkWoodyAllenCompact(b *testing.B) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		b.Fatal(err)
	}
	tr, err := NewMovieTranslator(db, Options{Style: nlg.Compact})
	if err != nil {
		b.Fatal(err)
	}
	key := value.NewText("Woody Allen")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.DescribeEntity("DIRECTOR", "name", key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWoodyAllenProcedural(b *testing.B) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		b.Fatal(err)
	}
	tr, err := NewMovieTranslator(db, Options{Style: nlg.Procedural})
	if err != nil {
		b.Fatal(err)
	}
	key := value.NewText("Woody Allen")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.DescribeEntity("DIRECTOR", "name", key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDescribeDatabase(b *testing.B) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{Seed: 5, Movies: 200, Actors: 80, Directors: 10, CastPerMovie: 3, GenresPerMovie: 2})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := NewMovieTranslator(db, Options{Style: nlg.Procedural, MaxSentences: 30})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.DescribeDatabase("MOVIES"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDescribeEntitySplit exercises the §2.2 split pattern on live data:
// a movie introduces its director and an actor, with the director's clauses
// embedded as a relative clause.
func TestDescribeEntitySplit(t *testing.T) {
	tr := movieTranslator(t, Options{Style: nlg.Compact})
	got, err := tr.DescribeEntitySplit("MOVIES", "title", value.NewText("Match Point"),
		[]string{"DIRECTOR", "ACTOR"})
	if err != nil {
		t.Fatal(err)
	}
	want := "The movie Match Point involves the director Woody Allen " +
		"who was born in Brooklyn, New York, USA on December 1, 1935 " +
		"and the actor Scarlett Johansson."
	if got != want {
		t.Errorf("split narrative:\n got: %q\nwant: %q", got, want)
	}
}

func TestDescribeEntitySplitErrors(t *testing.T) {
	tr := movieTranslator(t, Options{Style: nlg.Compact})
	if _, err := tr.DescribeEntitySplit("NOPE", "x", value.NewInt(1), nil); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := tr.DescribeEntitySplit("MOVIES", "title", value.NewText("Match Point"),
		[]string{"NOPE"}); err == nil {
		t.Error("unknown target relation accepted")
	}
	// A movie with no cast or director yields an informative error.
	db, _ := dataset.CuratedMovieDB()
	if err := db.Insert("MOVIES", storage.Tuple{
		value.NewInt(900), value.NewText("Orphan Film"), value.NewInt(2020),
	}); err != nil {
		t.Fatal(err)
	}
	tr2, err := NewMovieTranslator(db, Options{Style: nlg.Compact})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.DescribeEntitySplit("MOVIES", "title", value.NewText("Orphan Film"),
		[]string{"DIRECTOR", "ACTOR"}); err == nil {
		t.Error("entity without related tuples accepted")
	}
}
