package storage

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/value"
)

// This file proves the columnar Table is observably identical to a plain
// row store: a randomized Insert/InsertRows/Delete/Update workload runs
// against the real Database while the test maintains its own []Tuple oracle,
// and after every operation Tuples and LookupPK must agree with the oracle
// exactly. A second test holds the statistics to their
// oracle (checkStats) after the same kind of workload.

func columnarTestSchema() *catalog.Schema {
	s := catalog.NewSchema("colfuzz")
	if err := s.AddRelation(&catalog.Relation{
		Name: "T",
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
		panic(err)
	}
	return s
}

// randVal builds a random value for attribute position pos (NULL-heavy for
// every nullable attribute).
func randVal(rng *rand.Rand, pos int, nextID *int64) value.Value {
	if pos == 0 {
		*nextID++
		return value.NewInt(*nextID)
	}
	if rng.Intn(4) == 0 {
		return value.NewNull()
	}
	switch pos {
	case 1:
		return value.NewInt(int64(rng.Intn(7)))
	case 2:
		return value.NewFloat(float64(rng.Intn(10)) / 4)
	case 3:
		return value.NewText(fmt.Sprintf("w-%d", rng.Intn(5)))
	case 4:
		return value.NewDateDays(int64(rng.Intn(50) - 25))
	default:
		return value.NewBool(rng.Intn(2) == 0)
	}
}

func tuplesEqual(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNull() != b[i].IsNull() {
			return false
		}
		if !a[i].IsNull() && !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// checkAgainstOracle compares every observable table surface with the
// oracle's rows.
func checkAgainstOracle(t *testing.T, db *Database, oracle []Tuple, step string) {
	t.Helper()
	tbl := db.Table("T")
	if tbl.Len() != len(oracle) {
		t.Fatalf("%s: Len = %d, oracle %d", step, tbl.Len(), len(oracle))
	}
	// Row order and contents.
	all := tbl.Tuples()
	if len(all) != len(oracle) {
		t.Fatalf("%s: Tuples holds %d rows, oracle %d", step, len(all), len(oracle))
	}
	for i, tup := range all {
		if !tuplesEqual(tup, oracle[i]) {
			t.Fatalf("%s: row %d = %s, oracle %s", step, i, tup, oracle[i])
		}
	}
	// LookupPK on every oracle row plus a missing key.
	for _, row := range oracle {
		got, ok := tbl.LookupPK(Tuple{row[0]})
		if !ok || !tuplesEqual(got, row) {
			t.Fatalf("%s: LookupPK(%s) = %v (ok=%v), oracle %s", step, row[0], got, ok, row)
		}
	}
	if _, ok := tbl.LookupPK(Tuple{value.NewInt(-999)}); ok {
		t.Fatalf("%s: LookupPK found a phantom row", step)
	}
}

// TestColumnarDifferentialFuzz runs the randomized workload. The oracle
// mirrors only operations the database accepted, so constraint rejections
// (duplicate PKs) are exercised without duplicating validation logic.
func TestColumnarDifferentialFuzz(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			db, err := NewDatabase(columnarTestSchema())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			var oracle []Tuple
			var nextID int64
			width := 6
			for op := 0; op < 120; op++ {
				switch choice := rng.Intn(10); {
				case choice < 5: // insert
					tup := make(Tuple, width)
					for p := 0; p < width; p++ {
						tup[p] = randVal(rng, p, &nextID)
					}
					if rng.Intn(8) == 0 && len(oracle) > 0 {
						// Force a duplicate-PK rejection.
						tup[0] = oracle[rng.Intn(len(oracle))][0]
					}
					before := tup.Clone()
					if err := db.Insert("T", tup); err == nil {
						oracle = append(oracle, tup.Clone())
					} else if len(oracle) == 0 {
						t.Fatalf("insert %s rejected on empty table: %v", before, err)
					}
				case choice < 6: // multi-row insert of partly NULL rows
					rows := 1 + rng.Intn(3)
					var loaded []Tuple
					for r := 0; r < rows; r++ {
						nextID++
						n := rng.Intn(7)
						s := fmt.Sprintf("w-%d", rng.Intn(5))
						loaded = append(loaded, Tuple{
							value.NewInt(nextID), value.NewInt(int64(n)), value.NewNull(),
							value.NewText(s), value.NewNull(), value.NewNull(),
						})
					}
					n, err := db.InsertRows(context.Background(), "T", loaded)
					if err != nil {
						t.Fatalf("InsertRows: %v", err)
					}
					if n != rows {
						t.Fatalf("InsertRows inserted %d rows, want %d", n, rows)
					}
					for _, tup := range loaded {
						oracle = append(oracle, tup.Clone())
					}
				case choice < 8: // delete by predicate
					k := int64(rng.Intn(7))
					pred := func(tup Tuple) bool {
						return !tup[1].IsNull() && tup[1].Equal(value.NewInt(k))
					}
					removed, err := db.Delete("T", pred)
					if err != nil {
						t.Fatalf("Delete: %v", err)
					}
					kept := oracle[:0]
					want := 0
					for _, row := range oracle {
						if pred(row) {
							want++
						} else {
							kept = append(kept, row)
						}
					}
					oracle = kept
					if removed != want {
						t.Fatalf("Delete removed %d, oracle %d", removed, want)
					}
				default: // update a nullable attribute
					k := int64(rng.Intn(7))
					newS := fmt.Sprintf("w-%d", rng.Intn(5))
					pred := func(tup Tuple) bool {
						return !tup[1].IsNull() && tup[1].Equal(value.NewInt(k))
					}
					fn := func(tup Tuple) Tuple {
						tup[3] = value.NewText(newS)
						tup[1] = value.NewInt(k + 1)
						return tup
					}
					updated, err := db.Update("T", pred, fn)
					if err != nil {
						t.Fatalf("Update: %v", err)
					}
					want := 0
					for i, row := range oracle {
						if pred(row) {
							oracle[i] = fn(row.Clone())
							want++
						}
					}
					if updated != want {
						t.Fatalf("Update touched %d, oracle %d", updated, want)
					}
				}
				checkAgainstOracle(t, db, oracle, fmt.Sprintf("op %d", op))
			}
		})
	}
}

// TestPositionalDMLDifferentialFuzz drives UpdateAt, DeleteAt and the
// predicate wrappers over a two-zone table: key-changing updates (some onto a
// taken key, which must be refused with the earlier rows applied), updates
// that NULL an attribute, and deletes at the head, the zone boundaries and the
// tail, with inserts in between so the shared primary-key slots keep growing.
// After every statement the table must agree with the row-store oracle, its
// primary key must find every row at its position, and its zones and
// statistics must agree with a from-scratch derivation. The database is
// in-memory, so every statement publishes and the next one runs the
// copy-on-write paths.
func TestPositionalDMLDifferentialFuzz(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			db, err := NewDatabase(columnarTestSchema())
			if err != nil {
				t.Fatal(err)
			}
			tbl := db.Table("T")
			rng := rand.New(rand.NewSource(seed))
			var oracle []Tuple
			var nextID int64
			const width = 6
			insert := func() {
				tup := make(Tuple, width)
				for p := 0; p < width; p++ {
					tup[p] = randVal(rng, p, &nextID)
				}
				if err := db.Insert("T", tup); err != nil {
					t.Fatalf("insert: %v", err)
				}
				oracle = append(oracle, tup.Clone())
			}
			for len(oracle) < ZoneRows+700 {
				insert()
			}
			// pick returns 1-4 ascending positions around one of the places
			// where an off-by-one would hide.
			pick := func() []int {
				n := len(oracle)
				anchors := []int{0, ZoneRows / 2, ZoneRows - 1, ZoneRows, n - 1, rng.Intn(n)}
				at := anchors[rng.Intn(len(anchors))]
				seen := map[int]bool{}
				var out []int
				for k := 1 + rng.Intn(4); k > 0; k-- {
					p := at + rng.Intn(5) - 2
					if p >= 0 && p < n && !seen[p] {
						seen[p] = true
						out = append(out, p)
					}
				}
				sort.Ints(out)
				return out
			}
			idOwner := func(id value.Value, except int) bool {
				for i, row := range oracle {
					if i != except && row[0].Equal(id) {
						return true
					}
				}
				return false
			}
			for op := 0; op < 30; op++ {
				step := fmt.Sprintf("op %d", op)
				switch choice := rng.Intn(10); {
				case choice < 2:
					insert()
				case choice < 5: // DeleteAt
					positions := pick()
					n, err := db.DeleteAt(context.Background(), "T", positions)
					if err != nil || n != len(positions) {
						t.Fatalf("%s: DeleteAt(%v) = %d, %v", step, positions, n, err)
					}
					for k := len(positions) - 1; k >= 0; k-- {
						oracle = append(oracle[:positions[k]], oracle[positions[k]+1:]...)
					}
				case choice < 9: // UpdateAt
					positions := pick()
					var fn func(Tuple) Tuple
					switch rng.Intn(4) {
					case 0: // no key attribute changes
						f := value.NewFloat(float64(rng.Intn(10)) / 4)
						fn = func(tup Tuple) Tuple { tup[2] = f; return tup }
					case 1: // two non-key attributes change, sometimes to NULL
						nv := randVal(rng, 1, &nextID)
						sv := randVal(rng, 3, &nextID)
						fn = func(tup Tuple) Tuple { tup[1], tup[3] = nv, sv; return tup }
					case 2: // primary key moves to a fresh id
						fn = func(tup Tuple) Tuple { nextID++; tup[0] = value.NewInt(nextID); return tup }
					default: // primary key moves onto a neighbour's: refused
						taken := oracle[rng.Intn(len(oracle))][0]
						fn = func(tup Tuple) Tuple { tup[0] = taken; return tup }
					}
					want := 0
					var wantErr bool
					for _, p := range positions {
						repl := fn(oracle[p].Clone())
						if idOwner(repl[0], p) {
							wantErr = true
							break
						}
						oracle[p] = repl
						want++
					}
					// fn draws fresh ids from nextID: storage gets the
					// replacements the oracle drew, and the rows past a
					// refused one as they are.
					repls := make([]Tuple, len(positions))
					for k, p := range positions {
						repls[k] = oracle[p].Clone()
					}
					if wantErr {
						repls[want] = fn(oracle[positions[want]].Clone())
					}
					attrs, vals := wholeRows(len(db.Table("T").Relation().Attributes), repls)
					n, err := db.UpdateAt(context.Background(), "T", positions, attrs, vals)
					if n != want || (err != nil) != wantErr {
						t.Fatalf("%s: UpdateAt(%v) = %d, %v; oracle %d, refused=%v", step, positions, n, err, want, wantErr)
					}
					if wantErr && !strings.Contains(err.Error(), "duplicate primary key") {
						t.Fatalf("%s: refusal reads %q", step, err)
					}
				default: // the predicate wrappers share the positional apply
					k := value.NewInt(int64(rng.Intn(7)))
					pred := func(tup Tuple) bool { return !tup[1].IsNull() && tup[1].Equal(k) && tup[0].Int()%5 == 0 }
					if rng.Intn(2) == 0 {
						if _, err := db.Delete("T", pred); err != nil {
							t.Fatalf("%s: Delete: %v", step, err)
						}
						kept := oracle[:0]
						for _, row := range oracle {
							if !pred(row) {
								kept = append(kept, row)
							}
						}
						oracle = kept
					} else {
						fn := func(tup Tuple) Tuple { tup[1] = value.NewNull(); return tup }
						if _, err := db.Update("T", pred, fn); err != nil {
							t.Fatalf("%s: Update: %v", step, err)
						}
						for i, row := range oracle {
							if pred(row) {
								oracle[i] = fn(row.Clone())
							}
						}
					}
				}
				checkAgainstOracle(t, db, oracle, step)
				checkPKIndex(t, tbl, step)
				checkZones(t, tbl)
				checkStats(t, tbl)
			}
		})
	}
}

// TestStatsConsistencyAfterDML holds the statistics to the oracle after every
// statement of a random Insert/Delete/Update workload.
func TestStatsConsistencyAfterDML(t *testing.T) {
	db, err := NewDatabase(columnarTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	var nextID int64
	width := 6
	for op := 0; op < 150; op++ {
		switch choice := rng.Intn(10); {
		case choice < 6:
			tup := make(Tuple, width)
			for p := 0; p < width; p++ {
				tup[p] = randVal(rng, p, &nextID)
			}
			if err := db.Insert("T", tup); err != nil {
				t.Fatalf("insert: %v", err)
			}
		case choice < 8:
			k := int64(rng.Intn(7))
			if _, err := db.Delete("T", func(tup Tuple) bool {
				return !tup[1].IsNull() && tup[1].Equal(value.NewInt(k))
			}); err != nil {
				t.Fatalf("delete: %v", err)
			}
		default:
			k := int64(rng.Intn(7))
			nf := value.NewFloat(float64(rng.Intn(12)) / 4)
			if _, err := db.Update("T", func(tup Tuple) bool {
				return !tup[1].IsNull() && tup[1].Equal(value.NewInt(k))
			}, func(tup Tuple) Tuple {
				tup[2] = nf
				if rng.Intn(3) == 0 {
					tup[4] = value.NewNull()
				}
				return tup
			}); err != nil {
				t.Fatalf("update: %v", err)
			}
		}
		checkStats(t, db.Table("T"))
	}
}
