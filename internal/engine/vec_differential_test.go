package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

func mustParse(t *testing.T, sql string) *sqlparser.SelectStmt {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// This file stresses the vectorized predicate layer and the single-table
// scan, whose kept positions the projection reads straight into the result:
// every template below lands (at least partly) in lowerVecFilter's dialect — column-vs-literal comparisons on every column
// kind, IS NULL, BETWEEN, IN lists with NULLs, LIKE over dictionary text,
// and cross-kind equality — and must agree with the interpreter
// row for row, order included, on NULL-riddled data.

// vecTestDB builds one table exercising every column kind with ~25% NULLs
// in each nullable attribute.
func vecTestDB(t *testing.T, rows int, seed int64) *storage.Database {
	t.Helper()
	return vecTestTable(t, rows, seed, true)
}

// vecTestTable is vecTestDB with the NULLs left out when nulls is false: the
// same rows, a NULL's place holding the value drawn for it.
func vecTestTable(t *testing.T, rows int, seed int64, nulls bool) *storage.Database {
	t.Helper()
	schema := catalog.NewSchema("vec")
	if err := schema.AddRelation(&catalog.Relation{
		Name: "V",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "n", Type: catalog.Int},
			{Name: "f", Type: catalog.Float},
			{Name: "s", Type: catalog.Text},
			{Name: "d", Type: catalog.Date},
			{Name: "b", Type: catalog.Bool},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.NewDatabase(schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	maybe := func(v value.Value) value.Value {
		if rng.Intn(4) == 0 && nulls {
			return value.NewNull()
		}
		return v
	}
	for i := 0; i < rows; i++ {
		tup := storage.Tuple{
			value.NewInt(int64(i)),
			maybe(value.NewInt(int64(rng.Intn(10)))),
			maybe(value.NewFloat(float64(rng.Intn(8)) / 2)),
			maybe(value.NewText(fmt.Sprintf("tag-%d", rng.Intn(6)))),
			maybe(value.NewDateDays(int64(rng.Intn(40) - 20))),
			maybe(value.NewBool(rng.Intn(2) == 0)),
		}
		if err := db.Insert("V", tup); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// vecTemplates is the vectorized predicate dialect as randomized query
// builders over vecTestDB's table.
func vecTemplates(rng *rand.Rand) []func() string {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	op := func() string { return ops[rng.Intn(len(ops))] }
	return []func() string{
		func() string {
			return fmt.Sprintf("select v.id, v.n from V v where v.n %s %d", op(), rng.Intn(10))
		},
		func() string {
			return fmt.Sprintf("select v.id from V v where v.f %s %d.5", op(), rng.Intn(4))
		},
		func() string {
			return fmt.Sprintf("select v.id, v.s from V v where v.s %s 'tag-%d'", op(), rng.Intn(8))
		},
		func() string {
			return fmt.Sprintf("select v.id from V v where v.d %s DATE '1970-01-%02d'", op(), 1+rng.Intn(20))
		},
		func() string {
			return fmt.Sprintf("select v.id from V v where v.b = %v", rng.Intn(2) == 0)
		},
		func() string {
			// Flipped literal-op-column orientation.
			return fmt.Sprintf("select v.id from V v where %d %s v.n", rng.Intn(10), op())
		},
		func() string {
			neg := ""
			if rng.Intn(2) == 0 {
				neg = " not"
			}
			return fmt.Sprintf("select v.id from V v where v.s is%s null", neg)
		},
		func() string {
			lo := rng.Intn(8)
			neg := ""
			if rng.Intn(2) == 0 {
				neg = "not "
			}
			return fmt.Sprintf("select v.id from V v where v.n %sbetween %d and %d", neg, lo, lo+rng.Intn(4))
		},
		func() string {
			neg := ""
			if rng.Intn(2) == 0 {
				neg = "not "
			}
			items := fmt.Sprintf("%d, %d", rng.Intn(10), rng.Intn(10))
			if rng.Intn(3) == 0 {
				items += ", null"
			}
			return fmt.Sprintf("select v.id from V v where v.n %sin (%s)", neg, items)
		},
		func() string {
			return fmt.Sprintf("select v.id from V v where v.s in ('tag-1', 'tag-%d', 'no-such')", rng.Intn(6))
		},
		func() string {
			return fmt.Sprintf("select v.id, v.s from V v where v.s like 'tag-%%%d'", rng.Intn(3))
		},
		func() string {
			// Cross-kind equality: = is false, <> true for non-NULL rows.
			if rng.Intn(2) == 0 {
				return "select v.id from V v where v.s = 5"
			}
			return "select v.id from V v where v.n != 'tag-1'"
		},
		func() string {
			// Conjunction: vec prefix plus more vec filters.
			return fmt.Sprintf("select v.id from V v where v.n %s %d and v.s = 'tag-%d' and v.b = true",
				op(), rng.Intn(10), rng.Intn(6))
		},
		func() string {
			// Vec prefix followed by a generic (arithmetic) conjunct.
			return fmt.Sprintf("select v.id from V v where v.n %s %d and v.n + v.id > %d",
				op(), rng.Intn(10), rng.Intn(60))
		},
		func() string {
			// Generic conjunct first: nothing may be hoisted past it.
			return fmt.Sprintf("select v.id from V v where v.n + 0 = %d and v.s = 'tag-1'", rng.Intn(10))
		},
		func() string {
			// Shaping on top of the vectorized scan.
			return fmt.Sprintf("select v.id, v.n from V v where v.n %s %d order by v.n desc, v.id limit %d",
				op(), rng.Intn(10), 1+rng.Intn(12))
		},
		func() string {
			return fmt.Sprintf("select distinct v.s from V v where v.n %s %d order by v.s", op(), rng.Intn(10))
		},
		func() string {
			// Bare LIMIT pushdown (no ORDER BY) into the projection.
			return fmt.Sprintf("select v.id from V v where v.n %s %d limit %d", op(), rng.Intn(10), rng.Intn(9))
		},
		func() string {
			// Constant select items alongside column reads.
			return fmt.Sprintf("select 7, v.id from V v where v.f %s 1.5", op())
		},
		func() string {
			// Star projection of the scan's positions.
			return fmt.Sprintf("select * from V v where v.d between DATE '1969-12-%02d' and DATE '1970-01-%02d'",
				20+rng.Intn(10), 1+rng.Intn(20))
		},
	}
}

// TestVecDifferentialRandomized sweeps randomized vectorizable predicates on
// a single table through planned and naive execution.
func TestVecDifferentialRandomized(t *testing.T) {
	ex := New(vecTestDB(t, 90, 31))
	templates := vecTemplates(rand.New(rand.NewSource(77)))
	for trial := 0; trial < 200; trial++ {
		sql := templates[trial%len(templates)]()
		comparePlannedNaive(t, ex, sql)
	}
}

// TestVecDifferentialJoins checks that vectorized self-filters applied at
// hash-join build sides, primary-key probes, and loop prefilters agree with naive
// execution on the movie corpus.
func TestVecDifferentialJoins(t *testing.T) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 47, Movies: 150, Actors: 50, Directors: 9, CastPerMovie: 2, GenresPerMovie: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	rng := rand.New(rand.NewSource(53))
	reordered := 0
	for trial := 0; trial < 60; trial++ {
		year := 1950 + rng.Intn(60)
		sqls := []string{
			// Vec filter on the build side of a hash join.
			fmt.Sprintf("select m.title, g.genre from MOVIES m, GENRE g where m.id = g.mid and m.year > %d", year),
			// Vec filter on both sides plus a LIKE on dictionary text.
			fmt.Sprintf("select m.title from MOVIES m, GENRE g where m.id = g.mid and g.genre like 's%%' and m.year <= %d", year),
			// Vec filter on CAST joined by MOVIES' key.
			fmt.Sprintf("select m.title, c.role from MOVIES m, CAST c where m.id = c.mid and c.aid in (%d, %d) and m.year >= %d",
				1+rng.Intn(50), 1+rng.Intn(50), year),
			// Vec prefix + generic residual mixing at one step.
			fmt.Sprintf("select m.id from MOVIES m, GENRE g where m.id = g.mid and m.year between %d and %d and m.year + g.mid > %d",
				year-5, year+5, year),
		}
		if comparePlannedNaive(t, ex, sqls[trial%len(sqls)]) {
			reordered++
		}
	}
	requireReordered(t, reordered)
}

// TestVecScanExplain pins the per-step and plan cardinalities EXPLAIN exposes
// for a vectorized single-table scan: the matched row count, not the
// post-LIMIT count.
func TestVecScanExplain(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	sel := mustParse(t, "select m.title from MOVIES m where m.year > 1990")
	res, plan, err := ex.SelectExplained(sel)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ActualRows != len(res.Rows) {
		t.Fatalf("plan.ActualRows = %d, rows = %d", plan.ActualRows, len(res.Rows))
	}
	if plan.Steps[0].ActualRows != len(res.Rows) {
		t.Fatalf("step ActualRows = %d, rows = %d", plan.Steps[0].ActualRows, len(res.Rows))
	}

	// With a LIMIT the step count still reflects every matched row.
	limited := mustParse(t, "select m.title from MOVIES m where m.year > 1990 limit 2")
	resL, planL, err := ex.SelectExplained(limited)
	if err != nil {
		t.Fatal(err)
	}
	if len(resL.Rows) != 2 {
		t.Fatalf("limit ignored: %d rows", len(resL.Rows))
	}
	if planL.Steps[0].ActualRows != plan.Steps[0].ActualRows {
		t.Fatalf("limited scan ActualRows = %d, want %d (full match count)",
			planL.Steps[0].ActualRows, plan.Steps[0].ActualRows)
	}
}
