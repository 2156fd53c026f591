package storage

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/value"
)

// These tests hold the two key→position tables a checkpoint load builds in
// bulk — the primary key (rebuildPK) and each TEXT column's dictionary codes
// (buildCodes) — to the tables inserts build one entry at a time, and the
// key image both probe with to value.AppendKey.

// TestColumnKeyImageMatchesAppendKey stores the edge values of every kind —
// integers on both sides of ±2^53, -0.0 and two NaN payloads, empty and
// invalid-UTF-8 text, dates, booleans and NULL — and holds the key image
// read from the typed vectors to value.AppendKey of the value inserted, in
// the live table and in one loaded from its checkpoint.
func TestColumnKeyImageMatchesAppendKey(t *testing.T) {
	ints := []value.Value{
		value.NewInt(1 << 53), value.NewInt(1<<53 + 1), value.NewInt(-(1 << 53)), value.NewInt(-(1 << 53) - 1),
		value.NewInt(0), value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64), value.NewNull(),
	}
	floats := []value.Value{
		value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0), value.NewFloat(math.NaN()),
		value.NewFloat(math.Float64frombits(0x7ff8000000000001)), value.NewFloat(math.Inf(-1)),
		value.NewFloat(1 << 53), value.NewFloat(-1.5), value.NewNull(),
	}
	texts := []value.Value{
		value.NewText(""), value.NewText("\xff\xfe"), value.NewText("é"),
		value.NewText(strings.Repeat("x", 200)), value.NewText("a\x00b"), value.NewNull(),
	}
	dates := []value.Value{value.NewDateDays(-1), value.NewDateDays(0), value.NewDateDays(20000), value.NewNull()}
	bools := []value.Value{value.NewBool(true), value.NewBool(false), value.NewNull()}
	var rows []Tuple
	for i := range 24 {
		rows = append(rows, Tuple{value.NewInt(int64(i)), ints[i%len(ints)], floats[i%len(floats)],
			texts[i%len(texts)], dates[i%len(dates)], bools[i%len(bools)]})
	}
	live, ck := checkpointFile(t, columnarTestSchema(), func(db *Database) {
		if _, err := db.InsertRows(context.Background(), "T", rows); err != nil {
			t.Fatal(err)
		}
	})
	loaded, err := recoverFrom(t, columnarTestSchema(), ck)
	if err != nil {
		t.Fatal(err)
	}
	all := identityPositions(6)
	for name, tbl := range map[string]*Table{"live": live.Table("T"), "loaded": loaded.Table("T")} {
		for i, row := range rows {
			for p, v := range row {
				if got, want := tbl.cols[p].appendKey(nil, i), v.AppendKey(nil); !bytes.Equal(got, want) {
					t.Errorf("%s row %d col %d (%v): key image %x, value.AppendKey %x", name, i, p, v, got, want)
				}
			}
			if got, want := tbl.appendKeyAt(nil, i, all), row.AppendKey(nil, all); !bytes.Equal(got, want) {
				t.Errorf("%s row %d: composite image %x, want %x", name, i, got, want)
			}
		}
	}
}

// keyedTextSchema is one table whose primary key spans an INT and a TEXT
// column, beside a nullable TEXT payload: its probes confirm through both
// dictionaries' strings and the integer vector.
func keyedTextSchema() *catalog.Schema {
	s := catalog.NewSchema("bulkbuild")
	if err := s.AddRelation(&catalog.Relation{
		Name: "K",
		Attributes: []*catalog.Attribute{
			{Name: "a", Type: catalog.Int, NotNull: true},
			{Name: "t", Type: catalog.Text, NotNull: true},
			{Name: "v", Type: catalog.Text},
		},
		PrimaryKey: []string{"a", "t"},
	}); err != nil {
		panic(err)
	}
	return s
}

// probeAnswers renders what tbl answers for every key and string of the
// universe: the position LookupPKPos finds for each (a, t) pair, and the
// code DictCode finds for each string in both TEXT columns.
func probeAnswers(tbl *Table, keys []Tuple, strs []string) string {
	var b strings.Builder
	pk := []int{0, 1}
	for _, k := range keys {
		pos, ok := tbl.LookupPKPos(k.AppendKey(nil, pk))
		fmt.Fprintf(&b, "pk %v: %d %v\n", k, pos, ok)
	}
	for _, s := range strs {
		ct, okT := tbl.Col(1).DictCode(s)
		cv, okV := tbl.Col(2).DictCode(s)
		fmt.Fprintf(&b, "dict %q: t %d %v, v %d %v\n", s, ct, okT, cv, okV)
	}
	return b.String()
}

// TestBulkBuildMatchesOneAtATime loads a checkpoint of a table that inserts
// built one primary-key entry and one dictionary code at a time, then drives
// both databases alike — more inserts behind a pinned snapshot, a delete that
// compacts both dictionaries, inserts after it — and holds every probe of the
// loaded table to the inserted one's: keys and strings present, absent, first
// seen after a frozen view (past its rows or its vocabulary), and looked up
// after compaction.
func TestBulkBuildMatchesOneAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	row := func(a int64, tag string) Tuple {
		v := value.NewText(fmt.Sprintf("v-%s", tag))
		if rng.Intn(5) == 0 {
			v = value.NewNull()
		}
		return Tuple{value.NewInt(a), value.NewText("t-" + tag), v}
	}
	var first, later, after []Tuple
	for i := range 2500 {
		// Spread keys over a wide range so the rows fill every page of the
		// slot table, and repeat each integer under two texts.
		a := rng.Int63n(1<<40) - 1<<39
		first = append(first, row(a, fmt.Sprint(i)), row(a, fmt.Sprint(i, "b")))
	}
	for i := range 300 {
		later = append(later, row(int64(1<<41+i), fmt.Sprint("late-", i)))
		after = append(after, row(int64(1<<42+i), fmt.Sprint("after-", i)))
	}
	var keys []Tuple
	strs := []string{"", "t-", "v-", "never"}
	for _, r := range slices.Concat(first, later, after) {
		keys = append(keys, Tuple{r[0], r[1]}, Tuple{value.NewInt(r[0].Int() + 1), r[1]})
		strs = append(strs, r[1].Text(), "v-"+strings.TrimPrefix(r[1].Text(), "t-"))
	}
	insert := func(db *Database, rows []Tuple) {
		t.Helper()
		if _, err := db.InsertRows(context.Background(), "K", rows); err != nil {
			t.Fatal(err)
		}
	}

	inc, ck := checkpointFile(t, keyedTextSchema(), func(db *Database) {
		for _, r := range first {
			insert(db, []Tuple{r})
		}
	})
	bulk, err := recoverFrom(t, keyedTextSchema(), ck)
	if err != nil {
		t.Fatal(err)
	}
	dbs := []*Database{inc, bulk}
	same := func(step string, answer func(db *Database) string) string {
		t.Helper()
		want := answer(inc)
		if got := answer(bulk); got != want {
			t.Fatalf("%s: the bulk-built table answers\n%s\nthe one-at-a-time table\n%s", step, firstDiff(got, want), firstDiff(want, got))
		}
		return want
	}
	live := func(db *Database) string { return probeAnswers(db.Table("K"), keys, strs) }
	same("loaded", live)
	for _, db := range dbs {
		checkPKIndex(t, db.Table("K"), "loaded")
	}

	pinned := make([]*Snapshot, len(dbs))
	for i, db := range dbs {
		pinned[i] = db.Snapshot()
	}
	view := func(db *Database) string {
		return probeAnswers(pinned[slices.Index(dbs, db)].Table("K"), keys, strs)
	}
	frozen := same("pinned before the inserts", view)
	for _, db := range dbs {
		insert(db, later)
	}
	same("live after the inserts", live)
	if same("pinned after the inserts", view) != frozen {
		t.Fatal("the inserts changed what the pinned snapshot answers")
	}

	// Deleting all but every tenth row leaves both dictionaries mostly dead
	// entries, which the delete's finishing pass compacts.
	var gone []int
	for i := range inc.Table("K").Len() {
		if i%10 != 0 {
			gone = append(gone, i)
		}
	}
	vocab := len(inc.Table("K").cols[1].dict.strs)
	for _, db := range dbs {
		if _, err := db.DeleteAt(context.Background(), "K", gone); err != nil {
			t.Fatal(err)
		}
		if n := len(db.Table("K").cols[1].dict.strs); n*2 > vocab {
			t.Fatalf("the delete left %d of %d dictionary entries: not compacted", n, vocab)
		}
	}
	same("live after compaction", live)
	if same("pinned after compaction", view) != frozen {
		t.Fatal("compaction changed what the pinned snapshot answers")
	}
	for _, db := range dbs {
		insert(db, after)
		checkPKIndex(t, db.Table("K"), "after compaction")
	}
	same("live after inserts into the compacted dictionaries", live)
}

// firstDiff returns a's lines from the first that b lacks, a few of them.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return strings.Join(al[i:min(len(al), i+3)], "\n")
		}
	}
	return ""
}

// TestCheckpointDuplicateRefusalsNameTheFirstRepeat loads CRC-valid
// checkpoints that repeat a primary key or a dictionary string — one value
// three times, and two values twice each — and pins the refusal's text: the
// rows named are the repeated key's first row and the earliest row that
// repeats any key, and the string named is the earliest entry that repeats
// one, however the bulk builds order their work.
func TestCheckpointDuplicateRefusalsNameTheFirstRepeat(t *testing.T) {
	keyless := columnarTestSchema()
	keyless.Relation("T").PrimaryKey = nil
	keyed, err := NewDatabase(columnarTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	tRow := func(id int64, s string) Tuple {
		return Tuple{value.NewInt(id), value.NewNull(), value.NewNull(), value.NewText(s), value.NewNull(), value.NewNull()}
	}
	many := make([]int64, 3000)
	for i := range many {
		many[i] = int64(i)
	}
	many[1200] = 2999 // repeated at row 2999, the later repeat
	many[2500] = 10   // repeated at row 2500, the earliest
	for _, c := range []struct {
		ids  []int64
		want string
	}{
		{[]int64{5, 1, 5, 2, 5}, "rows 0 and 2 share primary key 5"},
		{[]int64{3, 7, 9, 7, 3}, "rows 1 and 3 share primary key 7"},
		{many, "rows 10 and 2500 share primary key 10"},
	} {
		_, ck := checkpointFile(t, keyless, func(db *Database) {
			rows := make([]Tuple, len(c.ids))
			for i, id := range c.ids {
				rows[i] = tRow(id, "a")
			}
			if _, err := db.InsertRows(context.Background(), "T", rows); err != nil {
				t.Fatal(err)
			}
		})
		_, err := recoverFrom(t, columnarTestSchema(), frameCheckpoint(keyed, tableSegments(t, ck)[0]))
		if want := "storage: checkpoint T: " + c.want; err == nil || err.Error() != want {
			t.Errorf("ids %v: refusal %v, want %q", c.ids[:min(len(c.ids), 5)], err, want)
		}
	}

	for _, c := range []struct {
		strs []string
		want string
	}{
		{[]string{"a", "b", "a", "c", "a"}, `dictionary holds "a" twice`},
		{[]string{"x", "y", "z", "y", "x"}, `dictionary holds "y" twice`},
	} {
		db, err := NewDatabase(columnarTestSchema())
		if err != nil {
			t.Fatal(err)
		}
		for i := range 3 {
			if err := db.Insert("T", tRow(int64(i), c.strs[i])); err != nil {
				t.Fatal(err)
			}
		}
		view := db.Table("T").freeze()
		view.cols[3].dict = &dict{strs: c.strs}
		_, err = recoverFrom(t, columnarTestSchema(), frameCheckpoint(keyed, view.appendSegment(nil)))
		if want := "storage: checkpoint T.s: " + c.want; err == nil || err.Error() != want {
			t.Errorf("dictionary %q: refusal %v, want %q", c.strs, err, want)
		}
	}
}

// TestHashCollisionsConfirmAgainstTheValue finds two dictionary strings, and
// two integer keys, whose 32-bit hashes collide — a birthday search over the
// process's seed — and checks that both tables confirm a candidate against
// the value itself: a probe for one never answers with the other, and a bulk
// build holding both refuses nothing and finds each.
func TestHashCollisionsConfirmAgainstTheValue(t *testing.T) {
	collide := func(hash func(i int) uint32) (int, int) {
		seen := make(map[uint32]int)
		for i := 0; ; i++ {
			h := hash(i)
			if j, ok := seen[h]; ok {
				return j, i
			}
			seen[h] = i
		}
	}
	i, j := collide(func(i int) uint32 { return strHash(fmt.Sprint("c", i)) })
	a, b := fmt.Sprint("c", i), fmt.Sprint("c", j)
	d := newDict()
	d.add(a, strHash(a))
	if c, ok := d.find(b, strHash(b)); ok {
		t.Fatalf("%q, absent, found as code %d of %q", b, c, a)
	}
	d.add(b, strHash(b))
	loaded := &dict{strs: []string{a, b}}
	if err := loaded.buildCodes(); err != nil {
		t.Fatalf("a dictionary of %q and %q refused: %v", a, b, err)
	}
	for _, dd := range []*dict{d, loaded} {
		for want, s := range []string{a, b} {
			if c, ok := dd.find(s, strHash(s)); !ok || c != uint32(want) {
				t.Errorf("%q found as %d (%v), want code %d", s, c, ok, want)
			}
		}
	}

	i, j = collide(func(i int) uint32 { return pkHash(value.NewInt(int64(i)).AppendKey(nil)) })
	_, ck := checkpointFile(t, columnarTestSchema(), func(db *Database) {
		for _, id := range []int{i, j} {
			if err := db.Insert("T", Tuple{value.NewInt(int64(id)), value.NewNull(), value.NewNull(), value.NewNull(), value.NewNull(), value.NewNull()}); err != nil {
				t.Fatal(err)
			}
		}
	})
	db, err := recoverFrom(t, columnarTestSchema(), ck)
	if err != nil {
		t.Fatalf("keys %d and %d share a hash and refused: %v", i, j, err)
	}
	checkPKIndex(t, db.Table("T"), "colliding keys")
	if pos, ok := db.Table("T").LookupPKPos(value.NewInt(int64(i + j)).AppendKey(nil)); ok {
		t.Errorf("absent key %d found at %d", i+j, pos)
	}
}
