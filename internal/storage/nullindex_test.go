package storage

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/value"
)

// nullableSchema is a one-relation schema with nullable attributes.
func nullableSchema(t *testing.T) *Database {
	t.Helper()
	s := catalog.NewSchema("nulls")
	if err := s.AddRelation(&catalog.Relation{
		Name: "T",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "k", Type: catalog.Int},
			{Name: "s", Type: catalog.Text},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(s)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestLookupPKNullNeverMatches: primary-key probes follow the same rule.
func TestLookupPKNullNeverMatches(t *testing.T) {
	db := nullableSchema(t)
	tbl := db.Table("T")
	if err := db.Insert("T", Tuple{value.NewInt(1), value.NewInt(1), value.NewText("a")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.LookupPK(Tuple{value.NewNull()}); ok {
		t.Fatal("NULL primary-key probe matched")
	}
	if _, ok := tbl.LookupPK(Tuple{value.NewInt(1)}); !ok {
		t.Fatal("valid primary-key probe missed")
	}
}

// TestTupleKeyNoAdjacentCollision pins the satellite fix: composite keys
// built by concatenating per-value strings with a separator collided when a
// text value contained the separator; the length-prefixed encoding cannot.
func TestTupleKeyNoAdjacentCollision(t *testing.T) {
	a := Tuple{value.NewText("a|b"), value.NewText("c")}
	b := Tuple{value.NewText("a"), value.NewText("b|c")}
	pos := []int{0, 1}
	if a.Key(pos) == b.Key(pos) {
		t.Fatalf("adjacent-value collision: %q", a.Key(pos))
	}
	// And the cross-kind invariants of value.Key survive: 1 and 1.0 share a
	// key, "1" does not.
	i := Tuple{value.NewInt(1)}
	f := Tuple{value.NewFloat(1)}
	s := Tuple{value.NewText("1")}
	if i.Key([]int{0}) != f.Key([]int{0}) {
		t.Fatal("1 and 1.0 should share a key")
	}
	if i.Key([]int{0}) == s.Key([]int{0}) {
		t.Fatal(`1 and "1" must not share a key`)
	}
}

// TestCompositeIndexSeparatorCollision: two distinct composite primary keys
// that a separator-joined encoding conflated must stay distinct in the
// primary-key index — both insert, and each probes to its own row.
func TestCompositeIndexSeparatorCollision(t *testing.T) {
	s := catalog.NewSchema("c")
	if err := s.AddRelation(&catalog.Relation{
		Name: "P",
		Attributes: []*catalog.Attribute{
			{Name: "x", Type: catalog.Text, NotNull: true},
			{Name: "y", Type: catalog.Text, NotNull: true},
		},
		PrimaryKey: []string{"x", "y"},
	}); err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(s)
	if err != nil {
		t.Fatal(err)
	}
	keys := []Tuple{
		{value.NewText("t:a"), value.NewText("b")},
		{value.NewText("t"), value.NewText("a|t:b")},
	}
	for _, k := range keys {
		if err := db.Insert("P", k.Clone()); err != nil {
			t.Fatalf("insert %s: %v", k, err)
		}
	}
	for _, k := range keys {
		if got, ok := db.Table("P").LookupPK(k); !ok || !tuplesEqual(got, k) {
			t.Fatalf("LookupPK(%s) = %s, %v; want exactly that row", k, got, ok)
		}
	}
}

// TestStatsIncremental: row counts, distinct counts, and min/max follow
// Insert, and a Delete drops a value from the distinct count and the max.
func TestStatsIncremental(t *testing.T) {
	db := nullableSchema(t)
	tbl := db.Table("T")
	for i, k := range []int64{10, 20, 20, 30} {
		if err := db.Insert("T", Tuple{value.NewInt(int64(i)), value.NewInt(k), value.NewText("s")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("T", Tuple{value.NewInt(9), value.NewNull(), value.NewNull()}); err != nil {
		t.Fatal(err)
	}
	st := tbl.Stats()
	if st.Rows != 5 {
		t.Fatalf("Rows = %d", st.Rows)
	}
	k := st.Attrs[1]
	if k.Distinct != 3 || k.NonNull != 4 {
		t.Fatalf("k stats = %+v", k)
	}
	if k.Min.Int() != 10 || k.Max.Int() != 30 {
		t.Fatalf("k min/max = %s/%s", k.Min, k.Max)
	}
	if d, err := db.DistinctCount("T", "k"); err != nil || d != 3 {
		t.Fatalf("DistinctCount = %d, %v", d, err)
	}

	// Delete the only 30; the rebuild must drop it from distinct and max.
	if _, err := db.Delete("T", func(tup Tuple) bool {
		return !tup[1].IsNull() && tup[1].Int() == 30
	}); err != nil {
		t.Fatal(err)
	}
	st = tbl.Stats()
	if st.Rows != 4 || st.Attrs[1].Distinct != 2 {
		t.Fatalf("after delete: rows %d distinct %d", st.Rows, st.Attrs[1].Distinct)
	}
	if st.Attrs[1].Max.Int() != 20 {
		t.Fatalf("after delete: max = %s", st.Attrs[1].Max)
	}
}
