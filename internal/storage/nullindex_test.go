package storage

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/value"
)

// nullableSchema is a one-relation schema with a nullable indexed attribute.
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

// TestLookupIndexNullSemantics pins SQL equality semantics on hash indexes:
// a NULL probe matches nothing, and tuples with NULL in an indexed
// attribute are invisible to equality probes — exactly what a scan
// evaluating `k = x` keeps under three-valued logic.
func TestLookupIndexNullSemantics(t *testing.T) {
	db := nullableSchema(t)
	tbl := db.Table("T")
	rows := []struct {
		id int64
		k  value.Value
	}{
		{1, value.NewInt(7)},
		{2, value.NewNull()},
		{3, value.NewInt(7)},
		{4, value.NewNull()},
	}
	for _, r := range rows {
		if err := db.Insert("T", Tuple{value.NewInt(r.id), r.k, value.NewText("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("by_k", "k"); err != nil {
		t.Fatal(err)
	}

	// Equality probe: only the two non-NULL sevens.
	got, err := tbl.LookupIndex("by_k", value.NewInt(7))
	if err != nil || len(got) != 2 {
		t.Fatalf("LookupIndex(7) = %d rows, %v; want 2", len(got), err)
	}
	// NULL probe: nothing — NULL = NULL is unknown, not true.
	got, err = tbl.LookupIndex("by_k", value.NewNull())
	if err != nil || len(got) != 0 {
		t.Fatalf("LookupIndex(NULL) = %d rows, %v; want 0", len(got), err)
	}

	// Agreement with the scan-based path for every key incl. NULL.
	for _, probe := range []value.Value{value.NewInt(7), value.NewInt(99), value.NewNull()} {
		viaIndex, err := tbl.LookupIndex("by_k", probe)
		if err != nil {
			t.Fatal(err)
		}
		var viaScan []Tuple
		for _, tup := range tbl.Tuples() {
			// Scan semantics of `k = probe`: NULL on either side rejects.
			if !tup[1].IsNull() && !probe.IsNull() && tup[1].Equal(probe) {
				viaScan = append(viaScan, tup)
			}
		}
		if len(viaIndex) != len(viaScan) {
			t.Fatalf("probe %s: index %d rows, scan %d rows", probe, len(viaIndex), len(viaScan))
		}
	}
}

// TestIndexNullSemanticsSurviveDML: the NULL exclusion must hold for tuples
// inserted after index creation and after the Delete/Update rebuild.
func TestIndexNullSemanticsSurviveDML(t *testing.T) {
	db := nullableSchema(t)
	tbl := db.Table("T")
	if err := tbl.CreateIndex("by_k", "k"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("T", Tuple{value.NewInt(1), value.NewNull(), value.NewText("a")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("T", Tuple{value.NewInt(2), value.NewInt(5), value.NewText("b")}); err != nil {
		t.Fatal(err)
	}
	if got, _ := tbl.LookupIndex("by_k", value.NewNull()); len(got) != 0 {
		t.Fatalf("NULL probe found %d rows after incremental insert", len(got))
	}
	// Update rebuilds indexes; NULLs must stay excluded.
	if _, err := db.Update("T",
		func(tup Tuple) bool { return tup[0].Int() == 2 },
		func(tup Tuple) Tuple { tup[1] = value.NewNull(); return tup }); err != nil {
		t.Fatal(err)
	}
	if got, _ := tbl.LookupIndex("by_k", value.NewInt(5)); len(got) != 0 {
		t.Fatalf("stale index entry for updated-to-NULL key: %d rows", len(got))
	}
	if got, _ := tbl.LookupIndex("by_k", value.NewNull()); len(got) != 0 {
		t.Fatalf("NULL probe found %d rows after rebuild", len(got))
	}
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

// TestCompositeIndexSeparatorCollision: two distinct composite keys that the
// old separator scheme conflated must land in distinct buckets.
func TestCompositeIndexSeparatorCollision(t *testing.T) {
	s := catalog.NewSchema("c")
	if err := s.AddRelation(&catalog.Relation{
		Name: "P",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "x", Type: catalog.Text},
			{Name: "y", Type: catalog.Text},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(s)
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.Table("P")
	if err := tbl.CreateIndex("by_xy", "x", "y"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("P", Tuple{value.NewInt(1), value.NewText("t:a"), value.NewText("b")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("P", Tuple{value.NewInt(2), value.NewText("t"), value.NewText("a|t:b")}); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.LookupIndex("by_xy", value.NewText("t:a"), value.NewText("b"))
	if err != nil || len(got) != 1 {
		t.Fatalf("composite probe = %d rows, %v; want exactly the first tuple", len(got), err)
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
