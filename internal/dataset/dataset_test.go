package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/value"
)

func TestMovieSchemaShape(t *testing.T) {
	s := MovieSchema()
	if len(s.Relations()) != 6 {
		t.Fatalf("relations = %d", len(s.Relations()))
	}
	m := s.Relation("MOVIES")
	if m.HeadingAttr != "title" || m.Concept() != "movie" {
		t.Errorf("MOVIES annotations: %+v", m)
	}
	if !s.Relation("CAST").Bridge || !s.Relation("DIRECTED").Bridge {
		t.Error("bridge flags missing")
	}
	if s.Relation("DIRECTOR").Attr("bdate").GlossOrDefault() != "birth date" {
		t.Error("bdate gloss")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCuratedMovieDBInvariants(t *testing.T) {
	db, err := CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	stats := db.Stats()
	want := map[string]int{
		"MOVIES": 13, "ACTOR": 13, "DIRECTOR": 6,
		"CAST": 17, "DIRECTED": 11, "GENRE": 17,
	}
	for rel, n := range want {
		if stats[rel] != n {
			t.Errorf("%s rows = %d, want %d", rel, stats[rel], n)
		}
	}
	// The fixtures behind each paper example exist.
	woody, ok := db.Table("DIRECTOR").LookupPK([]value.Value{value.NewInt(1)})
	if !ok || woody[1].Text() != "Woody Allen" {
		t.Error("Woody Allen fixture missing")
	}
	// Three King Kong versions.
	n, err := db.DistinctCount("MOVIES", "title")
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 { // 13 movies, King Kong ×3 → 11 distinct titles
		t.Errorf("distinct titles = %d", n)
	}
}

func TestCuratedEmpDept(t *testing.T) {
	db, err := CuratedEmpDept()
	if err != nil {
		t.Fatal(err)
	}
	if db.Table("EMP").Len() != 6 || db.Table("DEPT").Len() != 2 {
		t.Errorf("emp/dept rows = %d/%d", db.Table("EMP").Len(), db.Table("DEPT").Len())
	}
	// Managers are wired into their departments after the circular load.
	grace, ok := db.Table("EMP").LookupPK([]value.Value{value.NewInt(1)})
	if !ok || grace[4].IsNull() || grace[4].Int() != 10 {
		t.Errorf("manager did = %v", grace)
	}
}

func TestEmpDeptSchemaCircularFKs(t *testing.T) {
	s := EmpDeptSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Relation("EMP").ForeignKey) != 1 || len(s.Relation("DEPT").ForeignKey) != 1 {
		t.Error("circular FKs not declared")
	}
}

func TestGenerateMovieDBScalesAndDeterminism(t *testing.T) {
	cfg := GenConfig{Seed: 99, Movies: 40, Actors: 20, Directors: 5, CastPerMovie: 2, GenresPerMovie: 2}
	db1, err := GenerateMovieDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := GenerateMovieDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := db1.Stats(), db2.Stats()
	for rel := range s1 {
		if s1[rel] != s2[rel] {
			t.Errorf("%s: %d vs %d (nondeterministic)", rel, s1[rel], s2[rel])
		}
	}
	if s1["MOVIES"] != 40 {
		t.Errorf("movies = %d", s1["MOVIES"])
	}
	if s1["CAST"] == 0 || s1["GENRE"] == 0 || s1["DIRECTED"] != 40 {
		t.Errorf("satellite tables: %v", s1)
	}
	// Different seeds diverge.
	cfg.Seed = 100
	db3, err := GenerateMovieDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db3.Stats()["CAST"] == s1["CAST"] && db3.Stats()["GENRE"] == s1["GENRE"] {
		t.Log("seeds coincidentally equal on counts; acceptable but unlikely")
	}
}

func TestGenerateRespectsForeignKeys(t *testing.T) {
	db, err := GenerateMovieDB(GenConfig{Seed: 7, Movies: 25, Actors: 10, Directors: 3, CastPerMovie: 2, GenresPerMovie: 1})
	if err != nil {
		t.Fatal(err) // Insert enforces FKs, so success implies integrity
	}
	if db.Table("CAST").Len() == 0 {
		t.Error("no cast rows generated")
	}
}

func TestGenerateZeroSatellites(t *testing.T) {
	db, err := GenerateMovieDB(GenConfig{Seed: 1, Movies: 5})
	if err != nil {
		t.Fatal(err)
	}
	if db.Table("MOVIES").Len() != 5 || db.Table("CAST").Len() != 0 {
		t.Errorf("zero-config generation: %v", db.Stats())
	}
}

// TestGenerateMovieDBContents pins every generated row, in every table's
// order, for three configurations — the default one the benchmark and the
// server's -scale boot use, one without directors, actors or genres, and one
// whose movies load in three chunks. The first two hashes were recorded from
// the generator that inserted row by row and the third from the one that
// drew every table before loading it, so any change to the RNG draws, the
// values or the load order shows here.
func TestGenerateMovieDBContents(t *testing.T) {
	for _, tc := range []struct {
		cfg  GenConfig
		want string
	}{
		{DefaultGenConfig(), "7c44f32b0d8796c8e3dbc9f570636ca1b4e46143f4ea2354736ca2bb51595bc6"},
		{GenConfig{Seed: 5, Movies: 30}, "588c4b920cf73eb99a6e2c7e0f58b6720149a66bc09c9e2db8795261ce877518"},
		// Three load chunks of movies, the last one partial.
		{GenConfig{Seed: 3, Movies: 9000, Actors: 300, Directors: 40, CastPerMovie: 2, GenresPerMovie: 2},
			"e4df7d166f4b45aa58e312cb84d01a6e64c441ba1ac74b2a97271ebcb2265f0c"},
	} {
		db, err := GenerateMovieDB(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, name := range db.TableNames() {
			fmt.Fprintf(h, "== %s\n", name)
			for _, tup := range db.Table(name).Tuples() {
				fmt.Fprintln(h, tup.String())
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%+v: contents hash %s, want %s", tc.cfg, got, tc.want)
		}
	}
}
