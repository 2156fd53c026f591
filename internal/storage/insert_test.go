package storage

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/value"
	"repro/internal/wal"
)

// batchSchema is the differential test's schema: NODE references itself
// twice — parent through the primary key (the probe path), alias through the
// non-key name (the scan path) — and EDGE has a composite TEXT-bearing key
// and a foreign key into NODE.
func batchSchema(t testing.TB) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema("batch")
	for _, r := range []*catalog.Relation{{
		Name: "NODE",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "parent", Type: catalog.Int},
			{Name: "alias", Type: catalog.Text},
			{Name: "name", Type: catalog.Text, NotNull: true},
			{Name: "score", Type: catalog.Float},
			{Name: "day", Type: catalog.Date},
			{Name: "ok", Type: catalog.Bool},
			{Name: "lvl", Type: catalog.Int},
		},
		PrimaryKey: []string{"id"},
		ForeignKey: []catalog.ForeignKey{
			{Attrs: []string{"parent"}, RefRelation: "NODE", RefAttrs: []string{"id"}},
			{Attrs: []string{"alias"}, RefRelation: "NODE", RefAttrs: []string{"name"}},
		},
	}, {
		Name: "EDGE",
		Attributes: []*catalog.Attribute{
			{Name: "a", Type: catalog.Int, NotNull: true},
			{Name: "b", Type: catalog.Text, NotNull: true},
			{Name: "w", Type: catalog.Int},
		},
		PrimaryKey: []string{"a", "b"},
		ForeignKey: []catalog.ForeignKey{
			{Attrs: []string{"a"}, RefRelation: "NODE", RefAttrs: []string{"id"}},
		},
	}} {
		if err := s.AddRelation(r); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// nodeRow draws NODE row id: runs of equal values, NULLs, NaN, ±0, values
// that need coercion, a parent and an alias that reference rows with smaller
// ids, when it has them, and in lvl a value falling through each zone within
// a byte's span, so the frame-of-reference encoding stays on and rebases.
func nodeRow(rng *rand.Rand, id int) Tuple {
	tup := Tuple{
		value.NewInt(int64(id)), value.NewNull(), value.NewNull(),
		value.NewText(fmt.Sprintf("n%d", id/3)), // runs of equal names
		value.NewFloat(float64(rng.Intn(40)) / 4),
		value.NewDateDays(int64(18000 + id/50)),
		value.NewBool(rng.Intn(2) == 0),
		value.NewInt(int64(1200 - id%ZoneRows/20)),
	}
	if rng.Intn(10) == 0 {
		tup[7] = value.NewNull()
	}
	if id > 1 && rng.Intn(3) == 0 {
		tup[1] = value.NewInt(int64(1 + rng.Intn(id-1)))
	}
	if id > 3 && rng.Intn(25) == 0 {
		tup[2] = value.NewText(fmt.Sprintf("n%d", rng.Intn(id/3)))
	}
	switch rng.Intn(16) {
	case 0:
		tup[4] = value.NewNull()
	case 1:
		tup[4] = value.NewFloat(math.NaN())
	case 2:
		tup[4] = value.NewFloat(math.Copysign(0, -1))
	case 3:
		tup[4] = value.NewInt(int64(rng.Intn(10))) // coerces to FLOAT
	}
	switch rng.Intn(12) {
	case 0:
		tup[5] = value.NewNull()
	case 1:
		tup[5] = value.NewText("2021-03-04") // coerces to DATE
	case 2:
		tup[5] = value.NewDateDays(int64(17000 + rng.Intn(2000))) // FOR span past a byte
	}
	if rng.Intn(9) == 0 {
		tup[6] = value.NewNull()
	}
	return tup
}

// batchPrint renders everything an insert leaves behind that statistics and
// zones do not already show: each TEXT column's vocabulary, per-code
// references and row codes, each INT/DATE column's frame-of-reference bases
// and the bytes of its non-NULL rows, and a primary-key lookup of every row.
func batchPrint(t *testing.T, db *Database) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range db.TableNames() {
		tbl := db.Table(name)
		n := tbl.Len()
		fmt.Fprintf(&sb, "%s rows=%d zones=%x\n", name, n, zoneView(tbl))
		for p := range tbl.cols {
			c := &tbl.cols[p]
			if c.kind == value.Text {
				fmt.Fprintf(&sb, " %d dict=%q refs=%v live=%d codes=", p, c.dict.strs, c.dict.refs, c.dict.live)
				for i := range n {
					fmt.Fprintf(&sb, "%d,", c.code(i))
				}
				sb.WriteString("\n")
			}
			if base, d8, ok := tbl.Col(p).FORInts(); ok {
				fmt.Fprintf(&sb, " %d for=%v bytes=", p, base)
				for i := range n {
					if !c.nulls.get(i) {
						fmt.Fprintf(&sb, "%d,", d8[i>>ZoneShift][i&ZoneMask])
					}
				}
				sb.WriteString("\n")
			}
		}
		for i := range n {
			key := tbl.Tuple(i).AppendKey(nil, tbl.pkPos)
			if pos, ok := tbl.LookupPKPos(key); !ok || pos != i {
				fmt.Fprintf(&sb, " row %d: key finds %d %v\n", i, pos, ok)
			}
		}
		checkPKIndex(t, tbl, name)
	}
	return sb.String() + statsAll(t, db) + zonesAll(t, db)
}

// recordOps returns a commit record's ops, past its sequence and op count.
func recordOps(t *testing.T, record []byte) []byte {
	t.Helper()
	d := &walDecoder{buf: record}
	d.uvarint()
	d.uvarint()
	if d.err != nil {
		t.Fatal(d.err)
	}
	return record[d.off:]
}

// durableBatchDB returns a durable database of batchSchema on fs and a
// pointer to the records it commits from now on.
func durableBatchDB(t *testing.T, fs *wal.MemFS) (*Database, *[][]byte) {
	t.Helper()
	db, err := NewDatabase(batchSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.EnableDurability(fs, DurableOptions{CheckpointBytes: -1}); err != nil {
		t.Fatal(err)
	}
	records := new([][]byte)
	if err := db.SetCommitSink(func(_ uint64, rec []byte) {
		*records = append(*records, append([]byte(nil), rec...))
	}); err != nil {
		t.Fatal(err)
	}
	return db, records
}

func cloneRows(rows []Tuple) []Tuple {
	out := make([]Tuple, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	return out
}

// TestInsertRowsMatchesOneRowInserts holds a multi-row InsertRows to the same
// rows sent one InsertRows call each: the same count and refusal, the same
// zones, statistics, frame-of-reference bytes, dictionary codes and
// references and primary-key lookups, and the same op bytes in the WAL — one
// record of n ops against n one-op records. Each batch crosses a zone
// boundary and is refused at row k, when it is refused, by each of the
// insert checks: a key already in the table, a key earlier in the batch, a
// foreign-key miss through the key probe and through the scan, NOT NULL, a
// failed coercion, and a same-table reference to a later row of the batch (a
// reference to an earlier one is accepted). The state recovered from the
// batch's disk, replayed from the log and loaded from a checkpoint, equals
// the never-crashed state.
func TestInsertRowsMatchesOneRowInserts(t *testing.T) {
	const pre = ZoneRows - 150
	for _, tc := range []struct {
		name   string
		refuse func(rows []Tuple, k int)
	}{
		{"accepted", nil},
		{"key-in-table", func(rows []Tuple, k int) { rows[k][0] = value.NewInt(17) }},
		{"key-earlier-in-batch", func(rows []Tuple, k int) { rows[k][0] = rows[k/2][0] }},
		{"fk-probe-miss", func(rows []Tuple, k int) { rows[k][1] = value.NewInt(1 << 40) }},
		{"fk-scan-miss", func(rows []Tuple, k int) { rows[k][2] = value.NewText("nobody") }},
		{"not-null", func(rows []Tuple, k int) { rows[k][3] = value.NewNull() }},
		{"coercion", func(rows []Tuple, k int) { rows[k][4] = value.NewText("abc") }},
		{"self-reference-later", func(rows []Tuple, k int) { rows[k][1] = rows[k+1][0] }},
		{"self-reference-earlier", func(rows []Tuple, k int) {
			rows[k][1], rows[k][2] = rows[k-1][0], rows[k-1][3]
		}},
	} {
		for _, k := range []int{0, 1, 149, 150, 237} {
			if tc.refuse == nil && k > 0 || strings.Contains(tc.name, "earlier") && k == 0 {
				continue
			}
			t.Run(fmt.Sprintf("%s/k=%d", tc.name, k), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(k + 1)))
				base := make([]Tuple, pre)
				for i := range base {
					base[i] = nodeRow(rng, i+1)
				}
				batch := make([]Tuple, 300)
				for i := range batch {
					batch[i] = nodeRow(rng, pre+i+1)
				}
				if tc.refuse != nil {
					tc.refuse(batch, k)
				}

				fsA, fsB := wal.NewMemFS(), wal.NewMemFS()
				a, recA := durableBatchDB(t, fsA)
				b, recB := durableBatchDB(t, fsB)
				for _, db := range []*Database{a, b} {
					if _, err := db.InsertRows(context.Background(), "NODE", cloneRows(base)); err != nil {
						t.Fatal(err)
					}
				}
				*recA, *recB = nil, nil

				nA, errA := a.InsertRows(context.Background(), "NODE", cloneRows(batch))
				nB := 0
				var errB error
				for _, row := range cloneRows(batch) {
					if _, errB = b.InsertRows(context.Background(), "NODE", []Tuple{row}); errB != nil {
						break
					}
					nB++
				}
				if nA != nB || fmt.Sprint(errA) != fmt.Sprint(errB) {
					t.Fatalf("batch: %d, %v; one row at a time: %d, %v", nA, errA, nB, errB)
				}
				if tc.refuse != nil && !strings.HasSuffix(tc.name, "earlier") && (nA != k || errA == nil) {
					t.Fatalf("refused at %d (%v), want row %d refused", nA, errA, k)
				}
				if errA == nil && nA != len(batch) {
					t.Fatalf("accepted %d of %d rows", nA, len(batch))
				}

				var opsB []byte
				for _, rec := range *recB {
					opsB = append(opsB, recordOps(t, rec)...)
				}
				switch {
				case nA == 0 && len(*recA) != 0:
					t.Fatalf("a statement that applied nothing committed %d records", len(*recA))
				case nA > 0 && (len(*recA) != 1 || !bytes.Equal(recordOps(t, (*recA)[0]), opsB)):
					t.Fatalf("the batch's record differs from the one-row records' ops")
				}

				want := batchPrint(t, a)
				if got := batchPrint(t, b); got != want {
					t.Fatalf("one row at a time left\n%s\nthe batch left\n%s", got, want)
				}
				for _, tbl := range []string{"NODE", "EDGE"} {
					checkZones(t, a.Table(tbl))
					checkStats(t, a.Table(tbl))
				}
				if _, _, ok := a.Table("NODE").Col(7).FORInts(); !ok {
					t.Fatal("NODE.lvl lost its frame-of-reference encoding")
				}

				replayed, _ := durableBatchDB(t, fsA.Clone())
				if got := batchPrint(t, replayed); got != want {
					t.Fatalf("replayed from the log:\n%s\nnever crashed:\n%s", got, want)
				}
				if err := a.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				loaded, _ := durableBatchDB(t, fsA.Clone())
				if got := batchPrint(t, loaded); got != want {
					t.Fatalf("loaded from a checkpoint:\n%s\nnever crashed:\n%s", got, want)
				}
				for _, db := range []*Database{a, b, replayed, loaded} {
					if err := db.CloseDurability(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestInsertRowsCompositeKeyInBatch refuses a composite key repeated within
// one statement — same INT, same TEXT — after the rows in front of it, and
// accepts keys that share either part alone.
func TestInsertRowsCompositeKeyInBatch(t *testing.T) {
	db, err := NewDatabase(batchSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertRows(context.Background(), "NODE", []Tuple{
		{value.NewInt(1), value.NewNull(), value.NewNull(), value.NewText("a"), value.NewNull(), value.NewNull(), value.NewNull(), value.NewNull()},
		{value.NewInt(2), value.NewNull(), value.NewNull(), value.NewText("b"), value.NewNull(), value.NewNull(), value.NewNull(), value.NewNull()},
	}); err != nil {
		t.Fatal(err)
	}
	edge := func(a int64, b string) Tuple { return Tuple{value.NewInt(a), value.NewText(b), value.NewInt(a)} }
	n, err := db.InsertRows(context.Background(), "EDGE", []Tuple{
		edge(1, "x"), edge(2, "x"), edge(1, "y"), edge(2, "x"), edge(2, "z"),
	})
	if n != 3 || err == nil || err.Error() != "storage: duplicate primary key 2|x in EDGE" {
		t.Fatalf("inserted %d, %v; want 3 and the repeated key 2|x refused", n, err)
	}
	n, err = db.InsertRows(context.Background(), "EDGE", []Tuple{edge(2, "z"), edge(3, "z")})
	if n != 1 || err == nil || !strings.Contains(err.Error(), "foreign key violation") {
		t.Fatalf("inserted %d, %v; want 1 and the missing node 3 refused", n, err)
	}
	checkPKIndex(t, db.Table("EDGE"), "EDGE")
}

// TestInsertRowsWithoutPrimaryKeyKeepsNoKeyTable pins that a batch into a
// table without a primary key builds no table of batch keys — every row's key
// hash would be the same zero, and probing it would cost the square of the
// batch — and that such a batch loads.
func TestInsertRowsWithoutPrimaryKeyKeepsNoKeyTable(t *testing.T) {
	var b batchKeys
	if b.reset(3*ZoneRows, false); len(b.slots) != 0 {
		t.Fatalf("a table without a primary key gets %d batch-key slots", len(b.slots))
	}
	if b.reset(3*ZoneRows, true); len(b.slots) < 3*ZoneRows {
		t.Fatalf("a keyed batch of %d rows gets %d batch-key slots", 3*ZoneRows, len(b.slots))
	}
	db, tbl := newZoneDB(t)
	rows := make([]Tuple, 3*ZoneRows)
	for r := range rows {
		rows[r] = zoneFuzzRow(r)
	}
	if n, err := db.InsertRows(context.Background(), "Z", rows); n != len(rows) || err != nil {
		t.Fatalf("inserted %d of %d rows: %v", n, len(rows), err)
	}
	checkZones(t, tbl)
	checkStats(t, tbl)
}
