package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
)

// naiveSelect is a reference executor for two-relation equi-join queries of
// the form
//
//	select A.x, B.y from A a, B b where a.j = b.k [and filters]
//
// implemented as a full cartesian product with post-hoc filtering. The
// engine's pushdown/hash-join pipeline must agree with it row-for-row
// (order-insensitively).
func naiveSelect(db *storage.Database, relA, relB string, join [2]string, filter func(a, b storage.Tuple) bool, proj func(a, b storage.Tuple) string) []string {
	ta, tb := db.Table(relA), db.Table(relB)
	pa := ta.Relation().AttrIndex(join[0])
	pb := tb.Relation().AttrIndex(join[1])
	var out []string
	for _, a := range ta.Tuples() {
		for _, b := range tb.Tuples() {
			if a[pa].IsNull() || b[pb].IsNull() || !a[pa].Equal(b[pb]) {
				continue
			}
			if filter != nil && !filter(a, b) {
				continue
			}
			out = append(out, proj(a, b))
		}
	}
	sort.Strings(out)
	return out
}

func resultKeys(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestDifferentialJoinFilters runs randomized year-range filters over the
// MOVIES ⋈ GENRE join and compares engine output against the naive
// executor.
func TestDifferentialJoinFilters(t *testing.T) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 31, Movies: 80, Actors: 30, Directors: 6, CastPerMovie: 2, GenresPerMovie: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	rng := rand.New(rand.NewSource(77))
	ops := []struct {
		sql  string
		pred func(y, bound int64) bool
	}{
		{">", func(y, b int64) bool { return y > b }},
		{"<", func(y, b int64) bool { return y < b }},
		{">=", func(y, b int64) bool { return y >= b }},
		{"<=", func(y, b int64) bool { return y <= b }},
		{"=", func(y, b int64) bool { return y == b }},
		{"!=", func(y, b int64) bool { return y != b }},
	}
	yearPos := db.Table("MOVIES").Relation().AttrIndex("year")
	titlePos := db.Table("MOVIES").Relation().AttrIndex("title")
	genrePos := db.Table("GENRE").Relation().AttrIndex("genre")

	for trial := 0; trial < 40; trial++ {
		op := ops[rng.Intn(len(ops))]
		bound := int64(1950 + rng.Intn(60))
		sql := fmt.Sprintf(
			"select m.title, g.genre from MOVIES m, GENRE g where m.id = g.mid and m.year %s %d",
			op.sql, bound)
		res, err := ex.Query(sql)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := resultKeys(res)
		want := naiveSelect(db, "MOVIES", "GENRE", [2]string{"id", "mid"},
			func(m, g storage.Tuple) bool {
				return !m[yearPos].IsNull() && op.pred(m[yearPos].Int(), bound)
			},
			func(m, g storage.Tuple) string {
				return m[titlePos].String() + "|" + g[genrePos].String()
			})
		if len(got) != len(want) {
			t.Fatalf("trial %d (%s): engine %d rows, naive %d rows", trial, sql, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%s): row %d differs: %q vs %q", trial, sql, i, got[i], want[i])
			}
		}
	}
}

// TestDifferentialAggregates compares grouped counts against a hand-rolled
// aggregation over the same data.
func TestDifferentialAggregates(t *testing.T) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 13, Movies: 60, Actors: 25, Directors: 5, CastPerMovie: 3, GenresPerMovie: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	res, err := ex.Query("select g.genre, count(*) from GENRE g group by g.genre order by g.genre")
	if err != nil {
		t.Fatal(err)
	}
	manual := map[string]int64{}
	genrePos := db.Table("GENRE").Relation().AttrIndex("genre")
	for _, tup := range db.Table("GENRE").Tuples() {
		manual[tup[genrePos].Text()]++
	}
	if len(res.Rows) != len(manual) {
		t.Fatalf("groups: engine %d, manual %d", len(res.Rows), len(manual))
	}
	for _, row := range res.Rows {
		if manual[row[0].Text()] != row[1].Int() {
			t.Errorf("genre %s: engine %d, manual %d", row[0].Text(), row[1].Int(), manual[row[0].Text()])
		}
	}
	// Sortedness from ORDER BY.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].Text() > res.Rows[i][0].Text() {
			t.Error("ORDER BY violated")
		}
	}
}

// TestDifferentialCorrelatedSubquery compares EXISTS against the equivalent
// join + DISTINCT.
func TestDifferentialCorrelatedSubquery(t *testing.T) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 17, Movies: 50, Actors: 20, Directors: 5, CastPerMovie: 2, GenresPerMovie: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	viaExists, err := ex.Query(`select m.title from MOVIES m
		where exists (select * from GENRE g where g.mid = m.id and g.genre = 'action')`)
	if err != nil {
		t.Fatal(err)
	}
	viaJoin, err := ex.Query(`select distinct m.title from MOVIES m, GENRE g
		where g.mid = m.id and g.genre = 'action'`)
	if err != nil {
		t.Fatal(err)
	}
	a, b := resultKeys(viaExists), resultKeys(viaJoin)
	if len(a) != len(b) {
		t.Fatalf("EXISTS %d rows vs join %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: %q vs %q", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("trivially empty comparison")
	}
}

// TestDifferentialNotInVsNotExists compares two spellings of anti-join.
func TestDifferentialNotInVsNotExists(t *testing.T) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 23, Movies: 40, Actors: 15, Directors: 4, CastPerMovie: 2, GenresPerMovie: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	notIn, err := ex.Query(`select m.title from MOVIES m
		where m.id not in (select c.mid from CAST c)`)
	if err != nil {
		t.Fatal(err)
	}
	notExists, err := ex.Query(`select m.title from MOVIES m
		where not exists (select * from CAST c where c.mid = m.id)`)
	if err != nil {
		t.Fatal(err)
	}
	a, b := resultKeys(notIn), resultKeys(notExists)
	if len(a) != len(b) {
		t.Fatalf("NOT IN %d vs NOT EXISTS %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

// TestDifferentialQuantifiedVsAggregate compares <= ALL with = MIN.
func TestDifferentialQuantifiedVsAggregate(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	viaAll, err := ex.Query(`select m.title, m.year from MOVIES m
		where m.year <= all (select m2.year from MOVIES m2)`)
	if err != nil {
		t.Fatal(err)
	}
	viaMin, err := ex.Query(`select m.title, m.year from MOVIES m
		where m.year = (select min(m2.year) from MOVIES m2)`)
	if err != nil {
		t.Fatal(err)
	}
	a, b := resultKeys(viaAll), resultKeys(viaMin)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("<=ALL %v vs =MIN %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs", i)
		}
	}
	// The earliest curated movie is the 1933 King Kong.
	if !strings.Contains(a[0], "King Kong") {
		t.Errorf("earliest = %q", a[0])
	}
}
