// Package dataset builds the schemas and data the paper's examples run on:
// the Fig. 1 movie database (with hand-curated tuples reproducing every
// narrative the paper quotes — Woody Allen's filmography, Brad Pitt's cast
// entries, G. Loucas's action movies, repeated-title "versions" for Q9,
// all-genre movies for Q6, and a title-as-role movie for Q4) and the
// EMP/DEPT schema from Section 3.1.
//
// It also provides a deterministic synthetic generator for scale benchmarks.
// The paper's authors demonstrated on real movie data; we substitute
// curated + generated data that exercises exactly the same translation code
// paths (see DESIGN.md §4).
package dataset

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/value"
)

// MovieSchema constructs the Fig. 1 schema with the paper's translation
// annotations: heading attributes (MOVIES→title, ACTOR→name, DIRECTOR→name,
// GENRE→genre), conceptual names, bridge flags on CAST and DIRECTED, and
// glosses for abbreviated attribute names.
func MovieSchema() *catalog.Schema {
	s := catalog.NewSchema("movies")
	mustAdd := func(r *catalog.Relation) {
		if err := s.AddRelation(r); err != nil {
			panic(fmt.Sprintf("dataset: movie schema: %v", err))
		}
	}
	mustAdd(&catalog.Relation{
		Name: "MOVIES",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "title", Type: catalog.Text, NotNull: true, Weight: 3},
			{Name: "year", Type: catalog.Int, Weight: 2},
		},
		PrimaryKey:     []string{"id"},
		HeadingAttr:    "title",
		ConceptualName: "movie",
		Weight:         3,
	})
	mustAdd(&catalog.Relation{
		Name: "ACTOR",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "name", Type: catalog.Text, NotNull: true, Weight: 3},
		},
		PrimaryKey:     []string{"id"},
		HeadingAttr:    "name",
		ConceptualName: "actor",
		Weight:         2,
	})
	mustAdd(&catalog.Relation{
		Name: "CAST",
		Attributes: []*catalog.Attribute{
			{Name: "mid", Type: catalog.Int, NotNull: true},
			{Name: "aid", Type: catalog.Int, NotNull: true},
			{Name: "role", Type: catalog.Text, Gloss: "role"},
		},
		PrimaryKey: []string{"mid", "aid"},
		ForeignKey: []catalog.ForeignKey{
			{Attrs: []string{"mid"}, RefRelation: "MOVIES", RefAttrs: []string{"id"}},
			{Attrs: []string{"aid"}, RefRelation: "ACTOR", RefAttrs: []string{"id"}},
		},
		ConceptualName: "cast entry",
		Bridge:         true,
	})
	mustAdd(&catalog.Relation{
		Name: "DIRECTOR",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "name", Type: catalog.Text, NotNull: true, Weight: 3},
			{Name: "bdate", Type: catalog.Date, Gloss: "birth date"},
			{Name: "blocation", Type: catalog.Text, Gloss: "birth location"},
		},
		PrimaryKey:     []string{"id"},
		HeadingAttr:    "name",
		ConceptualName: "director",
		Weight:         2,
	})
	mustAdd(&catalog.Relation{
		Name: "DIRECTED",
		Attributes: []*catalog.Attribute{
			{Name: "mid", Type: catalog.Int, NotNull: true},
			{Name: "did", Type: catalog.Int, NotNull: true},
		},
		PrimaryKey: []string{"mid", "did"},
		ForeignKey: []catalog.ForeignKey{
			{Attrs: []string{"mid"}, RefRelation: "MOVIES", RefAttrs: []string{"id"}},
			{Attrs: []string{"did"}, RefRelation: "DIRECTOR", RefAttrs: []string{"id"}},
		},
		ConceptualName: "directing credit",
		Bridge:         true,
	})
	mustAdd(&catalog.Relation{
		Name: "GENRE",
		Attributes: []*catalog.Attribute{
			{Name: "mid", Type: catalog.Int, NotNull: true},
			{Name: "genre", Type: catalog.Text, NotNull: true},
		},
		PrimaryKey:  []string{"mid", "genre"},
		HeadingAttr: "genre",
		ForeignKey: []catalog.ForeignKey{
			{Attrs: []string{"mid"}, RefRelation: "MOVIES", RefAttrs: []string{"id"}},
		},
		ConceptualName: "genre",
	})
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("dataset: movie schema: %v", err))
	}
	return s
}

// date builds a DATE value, panicking on bad input (curated data only).
func date(y int, m time.Month, d int) value.Value {
	return value.NewDate(time.Date(y, m, d, 0, 0, 0, 0, time.UTC))
}

func i(n int64) value.Value  { return value.NewInt(n) }
func s(x string) value.Value { return value.NewText(x) }
func null() value.Value      { return value.NewNull() }

// CuratedMovieDB builds the movie database whose contents reproduce every
// example in the paper:
//
//   - Woody Allen (born Brooklyn, New York, USA on December 1, 1935) directed
//     Match Point (2005), Melinda and Melinda (2004), Anything Else (2003)
//     — the §2.2 narrative.
//   - Brad Pitt plays in several movies — Q1/Q5.
//   - G. Loucas directs action movies — Q2.
//   - "The Matrix" casts pairs of actors — Q3.
//   - "Anna" contains a role named "Anna" — Q4.
//   - "Omnibus" carries every genre present in the database — Q6.
//   - Actors 301/302 appear only in movies of a single year — Q8.
//   - "King Kong" exists in three versions (1933, 1976, 2005) — Q9.
func CuratedMovieDB() (*storage.Database, error) {
	db, err := storage.NewDatabase(MovieSchema())
	if err != nil {
		return nil, err
	}
	ins := func(rel string, vals ...value.Value) {
		if err == nil {
			err = db.Insert(rel, storage.Tuple(vals))
		}
	}

	// Directors.
	ins("DIRECTOR", i(1), s("Woody Allen"), date(1935, time.December, 1), s("Brooklyn, New York, USA"))
	ins("DIRECTOR", i(2), s("G. Loucas"), date(1944, time.May, 14), s("Modesto, California, USA"))
	ins("DIRECTOR", i(3), s("Sofia Ferrara"), date(1971, time.May, 14), s("Rome, Italy"))
	ins("DIRECTOR", i(4), s("Peter Jackson"), date(1961, time.October, 31), s("Pukerua Bay, New Zealand"))
	ins("DIRECTOR", i(5), s("Merian Cooper"), date(1893, time.October, 24), s("Jacksonville, Florida, USA"))
	ins("DIRECTOR", i(6), s("John Guillermin"), date(1925, time.November, 11), s("London, England"))

	// Movies. 100-block: Woody Allen; 110-block: G. Loucas action;
	// 120: The Matrix (pairs); 121: Anna (cyclic role=title);
	// 122: Omnibus (all genres); 130-132: King Kong versions;
	// 140-141: single-year movies for Q8.
	ins("MOVIES", i(100), s("Match Point"), i(2005))
	ins("MOVIES", i(101), s("Melinda and Melinda"), i(2004))
	ins("MOVIES", i(102), s("Anything Else"), i(2003))
	ins("MOVIES", i(110), s("Star Raiders"), i(1999))
	ins("MOVIES", i(111), s("Galaxy at War"), i(2002))
	ins("MOVIES", i(120), s("The Matrix"), i(1999))
	ins("MOVIES", i(121), s("Anna"), i(2001))
	ins("MOVIES", i(122), s("Omnibus"), i(2008))
	ins("MOVIES", i(130), s("King Kong"), i(1933))
	ins("MOVIES", i(131), s("King Kong"), i(1976))
	ins("MOVIES", i(132), s("King Kong"), i(2005))
	ins("MOVIES", i(140), s("Quiet Winter"), i(2007))
	ins("MOVIES", i(141), s("Silent Autumn"), i(2007))

	// Actors.
	ins("ACTOR", i(200), s("Brad Pitt"))
	ins("ACTOR", i(201), s("Scarlett Johansson"))
	ins("ACTOR", i(202), s("Jonathan Rhys Meyers"))
	ins("ACTOR", i(203), s("Keanu Reeves"))
	ins("ACTOR", i(204), s("Carrie-Anne Moss"))
	ins("ACTOR", i(205), s("Laurence Fishburne"))
	ins("ACTOR", i(206), s("Anna Kendrick"))
	ins("ACTOR", i(207), s("Naomi Watts"))
	ins("ACTOR", i(208), s("Fay Wray"))
	ins("ACTOR", i(209), s("Jessica Lange"))
	ins("ACTOR", i(210), s("Mark Hamill"))
	ins("ACTOR", i(301), s("Nikos Papadopoulos"))
	ins("ACTOR", i(302), s("Elena Rossi"))

	// Cast. Brad Pitt in 110 and 130 (so Q9 finds him in the earliest King
	// Kong version through 130? No — keep Q9's earliest-version actors
	// distinct: Fay Wray is in the 1933 King Kong).
	ins("CAST", i(110), i(200), s("Commander Vane"))
	ins("CAST", i(111), i(200), s("Pilot Rook"))
	ins("CAST", i(111), i(210), s("Fleet Admiral"))
	ins("CAST", i(100), i(201), s("Nola Rice"))
	ins("CAST", i(100), i(202), s("Chris Wilton"))
	ins("CAST", i(101), i(201), s("Melinda"))
	ins("CAST", i(120), i(203), s("Neo"))
	ins("CAST", i(120), i(204), s("Trinity"))
	ins("CAST", i(120), i(205), s("Morpheus"))
	ins("CAST", i(121), i(206), s("Anna"))
	ins("CAST", i(122), i(201), s("The Narrator"))
	ins("CAST", i(130), i(208), s("Ann Darrow"))
	ins("CAST", i(131), i(209), s("Dwan"))
	ins("CAST", i(132), i(207), s("Ann Darrow"))
	ins("CAST", i(140), i(301), s("The Keeper"))
	ins("CAST", i(141), i(301), s("The Watcher"))
	ins("CAST", i(141), i(302), s("The Listener"))

	// Directing credits.
	ins("DIRECTED", i(100), i(1))
	ins("DIRECTED", i(101), i(1))
	ins("DIRECTED", i(102), i(1))
	ins("DIRECTED", i(110), i(2))
	ins("DIRECTED", i(111), i(2))
	ins("DIRECTED", i(120), i(3))
	ins("DIRECTED", i(121), i(3))
	ins("DIRECTED", i(122), i(3))
	ins("DIRECTED", i(130), i(5))
	ins("DIRECTED", i(131), i(6))
	ins("DIRECTED", i(132), i(4))

	// Genres. The distinct genre set is {action, drama, comedy, sci-fi};
	// Omnibus (122) carries all of them for Q6. The Matrix carries two
	// genres so it satisfies Q7's "more than one genre".
	ins("GENRE", i(100), s("drama"))
	ins("GENRE", i(101), s("comedy"))
	ins("GENRE", i(102), s("comedy"))
	ins("GENRE", i(110), s("action"))
	ins("GENRE", i(111), s("action"))
	ins("GENRE", i(120), s("action"))
	ins("GENRE", i(120), s("sci-fi"))
	ins("GENRE", i(121), s("drama"))
	ins("GENRE", i(122), s("action"))
	ins("GENRE", i(122), s("drama"))
	ins("GENRE", i(122), s("comedy"))
	ins("GENRE", i(122), s("sci-fi"))
	ins("GENRE", i(130), s("adventure"))
	ins("GENRE", i(131), s("adventure"))
	ins("GENRE", i(132), s("adventure"))
	ins("GENRE", i(140), s("drama"))
	ins("GENRE", i(141), s("drama"))

	if err != nil {
		return nil, err
	}
	return db, nil
}

// EmpDeptSchema constructs the §3.1 EMP/DEPT schema. The paper's running
// query projects e1.name, so EMP carries a name attribute alongside the
// listed eid/sal/age/did.
func EmpDeptSchema() *catalog.Schema {
	sch := catalog.NewSchema("company")
	mustAdd := func(r *catalog.Relation) {
		if err := sch.AddRelation(r); err != nil {
			panic(fmt.Sprintf("dataset: emp/dept schema: %v", err))
		}
	}
	mustAdd(&catalog.Relation{
		Name: "EMP",
		Attributes: []*catalog.Attribute{
			{Name: "eid", Type: catalog.Int, NotNull: true},
			{Name: "name", Type: catalog.Text, NotNull: true},
			{Name: "sal", Type: catalog.Float, Gloss: "salary"},
			{Name: "age", Type: catalog.Int},
			{Name: "did", Type: catalog.Int},
		},
		PrimaryKey:     []string{"eid"},
		HeadingAttr:    "name",
		ConceptualName: "employee",
	})
	mustAdd(&catalog.Relation{
		Name: "DEPT",
		Attributes: []*catalog.Attribute{
			{Name: "did", Type: catalog.Int, NotNull: true},
			{Name: "dname", Type: catalog.Text, Gloss: "name"},
			{Name: "mgr", Type: catalog.Int, Gloss: "manager"},
		},
		PrimaryKey:     []string{"did"},
		HeadingAttr:    "dname",
		ConceptualName: "department",
	})
	// EMP.did -> DEPT.did; DEPT.mgr -> EMP.eid. Declared after both
	// relations exist; Validate checks them.
	emp := sch.Relation("EMP")
	emp.ForeignKey = append(emp.ForeignKey, catalog.ForeignKey{
		Attrs: []string{"did"}, RefRelation: "DEPT", RefAttrs: []string{"did"},
	})
	dept := sch.Relation("DEPT")
	dept.ForeignKey = append(dept.ForeignKey, catalog.ForeignKey{
		Attrs: []string{"mgr"}, RefRelation: "EMP", RefAttrs: []string{"eid"},
	})
	if err := sch.Validate(); err != nil {
		panic(fmt.Sprintf("dataset: emp/dept schema: %v", err))
	}
	return sch
}

// CuratedEmpDept builds a small company where two employees out-earn their
// managers, exercising the paper's §3.1 verification example. Because EMP
// and DEPT reference each other, FK checking is circular; tuples are loaded
// managers-first with NULL did, then wired up.
func CuratedEmpDept() (*storage.Database, error) {
	db, err := storage.NewDatabase(EmpDeptSchema())
	if err != nil {
		return nil, err
	}
	var insErr error
	ins := func(rel string, vals ...value.Value) {
		if insErr == nil {
			insErr = db.Insert(rel, storage.Tuple(vals))
		}
	}
	f := func(x float64) value.Value { return value.NewFloat(x) }

	// Managers first (did NULL so the EMP→DEPT FK is not checked yet).
	ins("EMP", i(1), s("Grace Chen"), f(120000), i(52), null())
	ins("EMP", i(2), s("Raj Patel"), f(95000), i(47), null())
	// Departments referencing the managers.
	ins("DEPT", i(10), s("Engineering"), i(1))
	ins("DEPT", i(20), s("Sales"), i(2))
	// Staff; Ada and Omar out-earn their managers.
	ins("EMP", i(3), s("Ada Papadaki"), f(130000), i(33), i(10))
	ins("EMP", i(4), s("Omar Haddad"), f(99000), i(41), i(20))
	ins("EMP", i(5), s("Lena Novak"), f(80000), i(29), i(10))
	ins("EMP", i(6), s("Tom Brook"), f(60000), i(35), i(20))
	if insErr != nil {
		return nil, insErr
	}
	// Wire the managers into their own departments.
	if _, err := db.Update("EMP",
		func(t storage.Tuple) bool { return t[0].Int() == 1 },
		func(t storage.Tuple) storage.Tuple { t[4] = i(10); return t }); err != nil {
		return nil, err
	}
	if _, err := db.Update("EMP",
		func(t storage.Tuple) bool { return t[0].Int() == 2 },
		func(t storage.Tuple) storage.Tuple { t[4] = i(20); return t }); err != nil {
		return nil, err
	}
	return db, nil
}

// GenConfig controls the synthetic movie-database generator.
type GenConfig struct {
	Seed      int64
	Movies    int
	Actors    int
	Directors int
	// CastPerMovie is the average number of cast entries per movie.
	CastPerMovie int
	// GenresPerMovie is the average number of genres per movie.
	GenresPerMovie int
}

// DefaultGenConfig returns a mid-sized configuration.
func DefaultGenConfig() GenConfig {
	return GenConfig{Seed: 42, Movies: 1000, Actors: 400, Directors: 80, CastPerMovie: 4, GenresPerMovie: 2}
}

var genreNames = []string{"action", "drama", "comedy", "sci-fi", "adventure", "thriller", "romance", "documentary"}

var firstNames = []string{
	"Alex", "Maria", "Nikos", "Elena", "James", "Sofia", "Omar", "Lena",
	"Brad", "Naomi", "Keanu", "Grace", "Raj", "Ada", "Tom", "Fay",
}

var lastNames = []string{
	"Papadopoulos", "Rossi", "Smith", "Chen", "Patel", "Novak", "Brook",
	"Haddad", "Ioannidis", "Simitsis", "Koutrika", "Wray", "Lange", "Watts",
}

var titleAdjectives = []string{
	"Silent", "Crimson", "Endless", "Broken", "Golden", "Hidden", "Last",
	"Distant", "Quiet", "Burning", "Frozen", "Electric",
}

var titleNouns = []string{
	"Horizon", "Empire", "Garden", "Winter", "Voyage", "Memory", "Station",
	"Harbor", "Signal", "Mirror", "Canyon", "Orchard",
}

// GenerateMovieDB builds a deterministic synthetic database of the Fig. 1
// schema at the configured scale, loading in foreign-key order: DIRECTOR and
// ACTOR with one storage call each, then the movies in chunks of
// storage.ZoneRows — each chunk's MOVIES, DIRECTED, CAST and GENRE rows drawn
// and loaded with one storage call per table, so only one chunk of drawn
// rows is alive at a time. One statement, and one published version, per
// call.
func GenerateMovieDB(cfg GenConfig) (*storage.Database, error) {
	db, err := storage.NewDatabase(MovieSchema())
	if err != nil {
		return nil, err
	}
	load := func(rel string, rows []storage.Tuple) error {
		_, err := db.InsertRows(context.Background(), rel, rows)
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	name := func() string {
		return firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
	}
	var directors, actors []storage.Tuple
	for d := 0; d < cfg.Directors; d++ {
		bd := time.Date(1920+rng.Intn(70), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC)
		directors = append(directors, storage.Tuple{
			i(int64(d + 1)), s(name()), value.NewDate(bd),
			s(lastNames[rng.Intn(len(lastNames))] + " City"),
		})
	}
	for a := 0; a < cfg.Actors; a++ {
		actors = append(actors, storage.Tuple{i(int64(a + 1)), s(name())})
	}
	if err := load("DIRECTOR", directors); err != nil {
		return nil, err
	}
	if err := load("ACTOR", actors); err != nil {
		return nil, err
	}
	var movies, directed, cast, genres []storage.Tuple
	for lo := 0; lo < cfg.Movies; lo += storage.ZoneRows {
		movies, directed, cast, genres = movies[:0], directed[:0], cast[:0], genres[:0]
		for m := lo; m < min(lo+storage.ZoneRows, cfg.Movies); m++ {
			mid := int64(m + 1)
			title := fmt.Sprintf("%s %s %d",
				titleAdjectives[rng.Intn(len(titleAdjectives))],
				titleNouns[rng.Intn(len(titleNouns))], m)
			year := int64(1950 + rng.Intn(60))
			movies = append(movies, storage.Tuple{i(mid), s(title), i(year)})
			if cfg.Directors > 0 {
				did := int64(1 + rng.Intn(cfg.Directors))
				directed = append(directed, storage.Tuple{i(mid), i(did)})
			}
			if cfg.Actors > 0 && cfg.CastPerMovie > 0 {
				n := 1 + rng.Intn(cfg.CastPerMovie*2-1)
				seen := map[int64]bool{}
				for c := 0; c < n; c++ {
					aid := int64(1 + rng.Intn(cfg.Actors))
					if seen[aid] {
						continue
					}
					seen[aid] = true
					cast = append(cast, storage.Tuple{i(mid), i(aid), s(fmt.Sprintf("Role %d-%d", mid, aid))})
				}
			}
			if cfg.GenresPerMovie > 0 {
				n := 1 + rng.Intn(cfg.GenresPerMovie*2-1)
				seen := map[string]bool{}
				for g := 0; g < n; g++ {
					gn := genreNames[rng.Intn(len(genreNames))]
					if seen[gn] {
						continue
					}
					seen[gn] = true
					genres = append(genres, storage.Tuple{i(mid), s(gn)})
				}
			}
		}
		for _, t := range []struct {
			rel  string
			rows []storage.Tuple
		}{{"MOVIES", movies}, {"DIRECTED", directed}, {"CAST", cast}, {"GENRE", genres}} {
			if err := load(t.rel, t.rows); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}
