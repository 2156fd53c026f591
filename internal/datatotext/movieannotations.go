package datatotext

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/nlg"
	"repro/internal/schemagraph"
	"repro/internal/storage"
	"repro/internal/templates"
)

// AnnotateMovieGraph installs the paper's template labels (§2.2) on a schema
// graph built from the Fig. 1 movie schema. These are the designer-assigned
// labels the paper describes; they reproduce its narratives verbatim:
//
//	DNAME + " was born" + " in " + BLOCATION
//	DNAME + " was born" + " on " + BDATE
//	TITLE + " (" + YEAR + ")"
//	"As a director, " + DNAME + "'s work includes " + MOVIE_LIST
func AnnotateMovieGraph(g *schemagraph.Graph) error {
	steps := []struct {
		kind string
		a, b string
		tpl  string
	}{
		// Relation node labels (used when a relation is rendered alone).
		{"rel", "MOVIES", "", `TITLE + " (" + YEAR + ")"`},
		{"rel", "DIRECTOR", "", `NAME + " is a director"`},
		{"rel", "ACTOR", "", `NAME + " is an actor"`},
		{"rel", "GENRE", "", `GENRE + " is one of the collection's genres"`},
		// Projection-edge labels.
		{"proj", "DIRECTOR", "blocation", `NAME + " was born" + " in " + BLOCATION`},
		{"proj", "DIRECTOR", "bdate", `NAME + " was born" + " on " + BDATE`},
		{"proj", "MOVIES", "year", `TITLE + " was released in " + YEAR`},
		{"proj", "CAST", "role", `ROLE + " is a role in the movie"`},
	}
	for _, s := range steps {
		tpl, err := templates.Parse(s.tpl)
		if err != nil {
			return fmt.Errorf("datatotext: movie annotation %s %s.%s: %v", s.kind, s.a, s.b, err)
		}
		switch s.kind {
		case "rel":
			err = g.AnnotateRelation(s.a, tpl)
		case "proj":
			err = g.AnnotateProjection(s.a, s.b, tpl)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// MovieRelationships returns the relationship annotations of the movie
// schema: director→movies through DIRECTED (the paper's MOVIE_LIST
// example), actor→movies through CAST, and movie→genre.
func MovieRelationships() []Relationship {
	return []Relationship{
		{
			From: "DIRECTOR", To: "MOVIES", Via: "DIRECTED",
			Template: templates.MustParse(
				`"As a director, " + NAME + "'s work includes " + MOVIE_LIST`),
			ListField: "MOVIE_LIST",
			List: templates.MustParseList(
				`[i < arityOf(TITLE)] { TITLE[i] + " (" + YEAR[i] + "), " } ` +
					`[i = arityOf(TITLE)] { "and " + TITLE[i] + " (" + YEAR[i] + ")." }`),
			OrderBy: "year", Desc: true,
			Kind: nlg.Person,
		},
		{
			From: "ACTOR", To: "MOVIES", Via: "CAST",
			Template: templates.MustParse(
				`"As an actor, " + NAME + " plays in " + MOVIE_LIST`),
			ListField: "MOVIE_LIST",
			List: templates.MustParseList(
				`[i < arityOf(TITLE)] { TITLE[i] + " (" + YEAR[i] + "), " } ` +
					`[i = arityOf(TITLE)] { "and " + TITLE[i] + " (" + YEAR[i] + ")." }`),
			OrderBy: "year", Desc: true,
			Kind: nlg.Person,
		},
		{
			From: "MOVIES", To: "GENRE", Via: "",
			Template: templates.MustParse(
				`"The " + GENRE_LIST + " movie " + TITLE + " belongs to the collection"`),
			ListField: "GENRE_LIST",
			List: templates.MustParseList(
				`[i < arityOf(GENRE)] { GENRE[i] + "/" } [i = arityOf(GENRE)] { GENRE[i] }`),
			OrderBy: "genre",
			Kind:    nlg.Thing,
		},
	}
}

// NewMovieTranslator wires a fully annotated translator for a movie-schema
// database: graph annotations plus relationship annotations.
func NewMovieTranslator(db *storage.Database, opts Options) (*Translator, error) {
	g, err := schemagraph.Build(db.Schema())
	if err != nil {
		return nil, err
	}
	if err := AnnotateMovieGraph(g); err != nil {
		return nil, err
	}
	t := New(engine.New(db), g, opts)
	for _, r := range MovieRelationships() {
		if err := t.AddRelationship(r); err != nil {
			return nil, err
		}
	}
	return t, nil
}
