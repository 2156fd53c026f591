package storage

import (
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/value"
)

// testSchema is a two-relation schema with a foreign key, enough to exercise
// all constraint paths.
func testSchema(t testing.TB) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema("test")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddRelation(&catalog.Relation{
		Name: "DIRECTOR",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "name", Type: catalog.Text, NotNull: true},
			{Name: "bdate", Type: catalog.Date},
		},
		PrimaryKey:  []string{"id"},
		HeadingAttr: "name",
	}))
	must(s.AddRelation(&catalog.Relation{
		Name: "MOVIES",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "title", Type: catalog.Text},
			{Name: "year", Type: catalog.Int},
			{Name: "did", Type: catalog.Int},
		},
		PrimaryKey: []string{"id"},
		ForeignKey: []catalog.ForeignKey{
			{Attrs: []string{"did"}, RefRelation: "DIRECTOR", RefAttrs: []string{"id"}},
		},
	}))
	return s
}

func newDB(t *testing.T) *Database {
	t.Helper()
	db, err := NewDatabase(testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func ins(t *testing.T, db *Database, rel string, vals ...value.Value) {
	t.Helper()
	if err := db.Insert(rel, Tuple(vals)); err != nil {
		t.Fatalf("Insert %s: %v", rel, err)
	}
}

func TestInsertAndScan(t *testing.T) {
	db := newDB(t)
	ins(t, db, "DIRECTOR", value.NewInt(1), value.NewText("Woody Allen"), value.NewNull())
	ins(t, db, "MOVIES", value.NewInt(10), value.NewText("Match Point"), value.NewInt(2005), value.NewInt(1))
	tbl := db.Table("movies")
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	got := tbl.Tuple(0)
	if got[1].Text() != "Match Point" || got[2].Int() != 2005 {
		t.Errorf("tuple = %v", got)
	}
	if count := len(tbl.Tuples()); count != 1 {
		t.Errorf("Tuples holds %d", count)
	}
}

func TestInsertArityAndTypeErrors(t *testing.T) {
	db := newDB(t)
	if err := db.Insert("DIRECTOR", Tuple{value.NewInt(1)}); err == nil {
		t.Error("arity violation accepted")
	}
	if err := db.Insert("NOPE", Tuple{}); err == nil {
		t.Error("unknown relation accepted")
	}
	// Bool cannot coerce to TEXT.
	if err := db.Insert("DIRECTOR", Tuple{value.NewInt(1), value.NewBool(true), value.NewNull()}); err == nil {
		t.Error("type violation accepted")
	}
	// Text "1935-12-01" coerces to DATE.
	if err := db.Insert("DIRECTOR", Tuple{value.NewInt(1), value.NewText("X"), value.NewText("1935-12-01")}); err != nil {
		t.Errorf("date coercion failed: %v", err)
	}
	if d := db.Table("DIRECTOR").Tuple(0)[2]; d.Kind() != value.Date {
		t.Errorf("stored kind = %v", d.Kind())
	}
}

func TestNotNull(t *testing.T) {
	db := newDB(t)
	if err := db.Insert("DIRECTOR", Tuple{value.NewInt(1), value.NewNull(), value.NewNull()}); err == nil {
		t.Error("NOT NULL violation accepted")
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	db := newDB(t)
	ins(t, db, "DIRECTOR", value.NewInt(1), value.NewText("A"), value.NewNull())
	if err := db.Insert("DIRECTOR", Tuple{value.NewInt(1), value.NewText("B"), value.NewNull()}); err == nil {
		t.Error("duplicate PK accepted")
	}
	// And the failed insert must not corrupt the table.
	if db.Table("DIRECTOR").Len() != 1 {
		t.Error("failed insert changed table")
	}
	tup, ok := db.Table("DIRECTOR").LookupPK(Tuple{value.NewInt(1)})
	if !ok || tup[1].Text() != "A" {
		t.Errorf("LookupPK = %v, %v", tup, ok)
	}
	if _, ok := db.Table("DIRECTOR").LookupPK(Tuple{value.NewInt(9)}); ok {
		t.Error("LookupPK found ghost")
	}
}

func TestForeignKey(t *testing.T) {
	db := newDB(t)
	if err := db.Insert("MOVIES", Tuple{value.NewInt(1), value.NewText("T"), value.NewInt(2000), value.NewInt(7)}); err == nil {
		t.Error("FK violation accepted")
	}
	ins(t, db, "DIRECTOR", value.NewInt(7), value.NewText("D"), value.NewNull())
	ins(t, db, "MOVIES", value.NewInt(1), value.NewText("T"), value.NewInt(2000), value.NewInt(7))
	// NULL FK is allowed.
	ins(t, db, "MOVIES", value.NewInt(2), value.NewText("U"), value.NewInt(2001), value.NewNull())
	// A failed FK insert must not leave a phantom PK entry.
	if err := db.Insert("MOVIES", Tuple{value.NewInt(3), value.NewText("V"), value.NewInt(2002), value.NewInt(99)}); err == nil {
		t.Fatal("FK violation accepted")
	}
	if err := db.Insert("MOVIES", Tuple{value.NewInt(3), value.NewText("V"), value.NewInt(2002), value.NewInt(7)}); err != nil {
		t.Errorf("reinsert after failed FK: %v", err)
	}
}

func TestDelete(t *testing.T) {
	db := newDB(t)
	ins(t, db, "DIRECTOR", value.NewInt(1), value.NewText("A"), value.NewNull())
	ins(t, db, "DIRECTOR", value.NewInt(2), value.NewText("B"), value.NewNull())
	n, err := db.Delete("DIRECTOR", func(tup Tuple) bool { return tup[0].Int() == 1 })
	if err != nil || n != 1 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	if db.Table("DIRECTOR").Len() != 1 {
		t.Error("tuple not removed")
	}
	// PK index must be rebuilt: reinserting id=1 succeeds; id=2 still blocked.
	if err := db.Insert("DIRECTOR", Tuple{value.NewInt(1), value.NewText("C"), value.NewNull()}); err != nil {
		t.Errorf("reinsert after delete: %v", err)
	}
	if err := db.Insert("DIRECTOR", Tuple{value.NewInt(2), value.NewText("D"), value.NewNull()}); err == nil {
		t.Error("duplicate PK after rebuild accepted")
	}
	if _, err := db.Delete("NOPE", func(Tuple) bool { return true }); err == nil {
		t.Error("Delete on unknown relation accepted")
	}
}

func TestUpdate(t *testing.T) {
	db := newDB(t)
	ins(t, db, "DIRECTOR", value.NewInt(1), value.NewText("A"), value.NewNull())
	n, err := db.Update("DIRECTOR",
		func(tup Tuple) bool { return tup[0].Int() == 1 },
		func(tup Tuple) Tuple { tup[1] = value.NewText("A2"); return tup })
	if err != nil || n != 1 {
		t.Fatalf("Update = %d, %v", n, err)
	}
	if got := db.Table("DIRECTOR").Tuple(0)[1].Text(); got != "A2" {
		t.Errorf("updated value = %q", got)
	}
	// NOT NULL enforced on update.
	_, err = db.Update("DIRECTOR",
		func(Tuple) bool { return true },
		func(tup Tuple) Tuple { tup[1] = value.NewNull(); return tup })
	if err == nil {
		t.Error("NOT NULL update accepted")
	}
	if _, err := db.Update("NOPE", nil, nil); err == nil {
		t.Error("Update on unknown relation accepted")
	}
}

func TestStatsAndDistinct(t *testing.T) {
	db := newDB(t)
	ins(t, db, "DIRECTOR", value.NewInt(1), value.NewText("A"), value.NewNull())
	ins(t, db, "DIRECTOR", value.NewInt(2), value.NewText("A"), value.NewNull())
	stats := db.Stats()
	if stats["DIRECTOR"] != 2 || stats["MOVIES"] != 0 {
		t.Errorf("Stats = %v", stats)
	}
	n, err := db.DistinctCount("DIRECTOR", "name")
	if err != nil || n != 1 {
		t.Errorf("DistinctCount(name) = %d, %v", n, err)
	}
	n, err = db.DistinctCount("DIRECTOR", "bdate")
	if err != nil || n != 0 {
		t.Errorf("DistinctCount(all-null) = %d, %v", n, err)
	}
	if _, err := db.DistinctCount("DIRECTOR", "nope"); err == nil {
		t.Error("DistinctCount unknown attr accepted")
	}
	if _, err := db.DistinctCount("NOPE", "x"); err == nil {
		t.Error("DistinctCount unknown rel accepted")
	}
}

func TestTupleCloneAndString(t *testing.T) {
	tup := Tuple{value.NewInt(1), value.NewText("x")}
	c := tup.Clone()
	c[0] = value.NewInt(9)
	if tup[0].Int() != 1 {
		t.Error("Clone shares storage")
	}
	if s := tup.String(); s != "(1, x)" {
		t.Errorf("Tuple.String = %q", s)
	}
}

func TestTableNames(t *testing.T) {
	db := newDB(t)
	names := db.TableNames()
	if len(names) != 2 || names[0] != "DIRECTOR" || names[1] != "MOVIES" {
		t.Errorf("TableNames = %v", names)
	}
}

// Property: after inserting n distinct-keyed tuples, Len == n and every key
// is findable via LookupPK.
func TestInsertLookupProperty(t *testing.T) {
	f := func(keys []int16) bool {
		db, err := NewDatabase(func() *catalog.Schema {
			s := catalog.NewSchema("p")
			_ = s.AddRelation(&catalog.Relation{
				Name: "T",
				Attributes: []*catalog.Attribute{
					{Name: "k", Type: catalog.Int, NotNull: true},
					{Name: "v", Type: catalog.Int},
				},
				PrimaryKey: []string{"k"},
			})
			return s
		}())
		if err != nil {
			return false
		}
		seen := map[int16]bool{}
		inserted := 0
		for _, k := range keys {
			err := db.Insert("T", Tuple{value.NewInt(int64(k)), value.NewInt(0)})
			if seen[k] {
				if err == nil {
					return false // duplicate must fail
				}
			} else {
				if err != nil {
					return false
				}
				seen[k] = true
				inserted++
			}
		}
		if db.Table("T").Len() != inserted {
			return false
		}
		for k := range seen {
			if _, ok := db.Table("T").LookupPK(Tuple{value.NewInt(int64(k))}); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	s := catalog.NewSchema("b")
	_ = s.AddRelation(&catalog.Relation{
		Name: "T",
		Attributes: []*catalog.Attribute{
			{Name: "k", Type: catalog.Int, NotNull: true},
			{Name: "v", Type: catalog.Text},
		},
		PrimaryKey: []string{"k"},
	})
	db, _ := NewDatabase(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.Insert("T", Tuple{value.NewInt(int64(i)), value.NewText("v")})
	}
}

func BenchmarkLookupPK(b *testing.B) {
	s := catalog.NewSchema("b")
	_ = s.AddRelation(&catalog.Relation{
		Name: "T",
		Attributes: []*catalog.Attribute{
			{Name: "k", Type: catalog.Int, NotNull: true},
		},
		PrimaryKey: []string{"k"},
	})
	db, _ := NewDatabase(s)
	for i := 0; i < 10000; i++ {
		_ = db.Insert("T", Tuple{value.NewInt(int64(i))})
	}
	tbl := db.Table("T")
	key := Tuple{value.NewInt(5000)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.LookupPK(key)
	}
}

// A relation is found under any letter case, without allocating for an ASCII
// name, and a non-ASCII name folds as strings.ToLower folds it.
func TestTableLookupFoldsCase(t *testing.T) {
	s := testSchema(t)
	if err := s.AddRelation(&catalog.Relation{
		Name:       "Café",
		Attributes: []*catalog.Attribute{{Name: "id", Type: catalog.Int, NotNull: true}},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(s)
	if err != nil {
		t.Fatal(err)
	}
	movies := db.Table("movies")
	for _, name := range []string{"MOVIES", "Movies", "mOvIeS"} {
		if db.Table(name) != movies || movies == nil {
			t.Errorf("Table(%q) is not MOVIES' table", name)
		}
	}
	if db.Table("CAFÉ") == nil || db.Table("CAFÉ") != db.Table("café") {
		t.Error("Table(\"CAFÉ\") does not find Café")
	}
	if db.Table("MOVIE") != nil {
		t.Error("Table(\"MOVIE\") found a table")
	}
	if n := testing.AllocsPerRun(100, func() { db.Table("MOVIES") }); n != 0 {
		t.Errorf("Table(\"MOVIES\") allocates %.0f times", n)
	}
}
