package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/value"
	"repro/internal/wal"
)

// checkpointFile runs build against a fresh durable database of schema,
// checkpoints it, and returns the database and its checkpoint file.
func checkpointFile(t testing.TB, schema *catalog.Schema, build func(db *Database)) (*Database, []byte) {
	t.Helper()
	db, err := NewDatabase(schema)
	if err != nil {
		t.Fatal(err)
	}
	fs := wal.NewMemFS()
	if _, err := db.EnableDurability(fs, DurableOptions{CheckpointBytes: -1}); err != nil {
		t.Fatal(err)
	}
	build(db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return db, fs.Bytes(CheckpointFileName)
}

// tableSegments returns the table records of a checkpoint file — everything
// after the header.
func tableSegments(t testing.TB, checkpoint []byte) [][]byte {
	t.Helper()
	records, tail := wal.Scan(checkpoint)
	if tail != nil || len(records) < 2 {
		t.Fatalf("checkpoint of %d records, tail %v", len(records), tail)
	}
	var out [][]byte
	for _, rec := range records[1:] {
		out = append(out, rec.Payload)
	}
	return out
}

// frameCheckpoint puts table segments behind a valid header for db's schema,
// every record CRC-framed, so the bytes reach the segment decoder.
func frameCheckpoint(db *Database, segments ...[]byte) []byte {
	header := append([]byte(segmentMagic), appendUvarint(nil, SchemaFingerprint(db))...)
	header = appendUvarint(header, 0) // WAL floor
	header = appendUvarint(header, uint64(len(segments)))
	out := wal.AppendRecord(nil, header)
	for _, seg := range segments {
		out = wal.AppendRecord(out, seg)
	}
	return out
}

// recoverFrom boots a fresh database of schema from a disk holding only the
// given checkpoint file.
func recoverFrom(t *testing.T, schema *catalog.Schema, checkpoint []byte) (*Database, error) {
	t.Helper()
	fs := wal.NewMemFS()
	f, err := fs.Create(CheckpointFileName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(checkpoint); err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(schema)
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.EnableDurability(fs, DurableOptions{CheckpointBytes: -1})
	return db, err
}

// TestCheckpointOfAllNullTextColumnRecovers checkpoints a table whose TEXT
// column holds only NULLs — from the start, and after deletes emptied its
// dictionary — and recovers it, from disk and as a replicated re-seed. A NULL
// row's code is a placeholder, not a reference into the dictionary.
func TestCheckpointOfAllNullTextColumnRecovers(t *testing.T) {
	row := func(id int64, s value.Value) Tuple {
		return Tuple{value.NewInt(id), value.NewInt(1), value.NewNull(), s, value.NewNull(), value.NewNull()}
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, db *Database)
	}{
		{"never-set", func(t *testing.T, db *Database) {
			for id := int64(1); id <= 2; id++ {
				if err := db.Insert("T", row(id, value.NewNull())); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"emptied-by-deletes", func(t *testing.T, db *Database) {
			for id := int64(1); id <= dictCompactMin+2; id++ {
				s := value.NewText(fmt.Sprintf("s-%d", id))
				if id <= 2 {
					s = value.NewNull()
				}
				if err := db.Insert("T", row(id, s)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.Delete("T", func(tup Tuple) bool { return !tup[3].IsNull() }); err != nil {
				t.Fatal(err)
			}
			if n := db.Table("T").Col(3).DictLen(); n != 0 {
				t.Fatalf("dictionary holds %d entries after the deletes, want 0", n)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live, ck := checkpointFile(t, columnarTestSchema(), func(db *Database) { tc.build(t, db) })
			want := snapDump(live.Snapshot())
			db, err := recoverFrom(t, columnarTestSchema(), ck)
			if err != nil {
				t.Fatalf("recovery refused its own checkpoint: %v", err)
			}
			if got := snapDump(db.Snapshot()); got != want {
				t.Fatalf("recovered\n%s\nwant\n%s", got, want)
			}
			follower, err := NewDatabase(columnarTestSchema())
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := follower.LoadReplicatedCheckpoint(ck); err != nil {
				t.Fatalf("replicated re-seed refused: %v", err)
			}
			if got := snapDump(follower.Snapshot()); got != want {
				t.Fatalf("re-seeded\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestCheckpointWithDuplicatePrimaryKeyRefuses loads a CRC-valid checkpoint
// whose two rows share primary key 1 — a segment written under the same
// relation without its key, framed behind the keyed schema's header. The
// load must refuse and say which table and key, instead of installing a
// table whose key probe finds one row and whose scan finds two.
func TestCheckpointWithDuplicatePrimaryKeyRefuses(t *testing.T) {
	keyless := columnarTestSchema()
	keyless.Relation("T").PrimaryKey = nil
	_, ck := checkpointFile(t, keyless, func(db *Database) {
		for _, n := range []int64{10, 20} {
			if err := db.Insert("T", Tuple{value.NewInt(1), value.NewInt(n), value.NewNull(), value.NewText("a"), value.NewNull(), value.NewNull()}); err != nil {
				t.Fatal(err)
			}
		}
	})
	keyed, err := NewDatabase(columnarTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	_, err = recoverFrom(t, columnarTestSchema(), frameCheckpoint(keyed, tableSegments(t, ck)[0]))
	if err == nil {
		t.Fatal("a checkpoint holding primary key 1 twice loaded")
	}
	if msg := err.Error(); !strings.Contains(msg, "checkpoint T") || !strings.Contains(msg, "primary key 1") {
		t.Fatalf("refusal %q names neither the table nor the key", msg)
	}
}

// TestCheckpointNamingATableTwiceRefuses loads checkpoints whose two
// segments both name T, one empty and one holding rows, in either order. The
// load must refuse both before decoding either, instead of letting the second
// copy replace an empty first one.
func TestCheckpointNamingATableTwiceRefuses(t *testing.T) {
	_, emptyCk := checkpointFile(t, columnarTestSchema(), func(*Database) {})
	_, fullCk := checkpointFile(t, columnarTestSchema(), func(db *Database) {
		for id := int64(1); id <= 3; id++ {
			if err := db.Insert("T", Tuple{value.NewInt(id), value.NewInt(id), value.NewNull(), value.NewText("a"), value.NewNull(), value.NewNull()}); err != nil {
				t.Fatal(err)
			}
		}
	})
	empty, full := tableSegments(t, emptyCk)[0], tableSegments(t, fullCk)[0]
	for _, tc := range []struct {
		name     string
		segments [][]byte
	}{
		{"empty-then-full", [][]byte{empty, full}},
		{"full-then-empty", [][]byte{full, empty}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := NewDatabase(columnarTestSchema())
			if err != nil {
				t.Fatal(err)
			}
			_, err = db.loadCheckpoint(frameCheckpoint(db, tc.segments...))
			if err == nil {
				t.Fatalf("a checkpoint naming T twice loaded %d rows", db.Table("T").Len())
			}
			if want := "storage: checkpoint holds table T twice"; err.Error() != want {
				t.Fatalf("refusal %q, want %q", err, want)
			}
			if n := db.Table("T").Len(); n != 0 {
				t.Fatalf("refused load left %d rows in T", n)
			}
		})
	}
}

// TestCheckpointLoadReportsFirstFailingSegment loads a checkpoint whose
// second and third segments are both corrupt: MOVIES fails only at its last
// bytes, after every column decoded, and RATINGS at its header. The segments
// load concurrently, so RATINGS usually fails first; the refusal must still
// be MOVIES's, the first failing segment in file order, on every load.
func TestCheckpointLoadReportsFirstFailingSegment(t *testing.T) {
	fs := wal.NewMemFS()
	live := newDurDB(t)
	seedVariety(t, live)
	if _, err := live.EnableDurability(fs, DurableOptions{CheckpointBytes: -1}); err != nil {
		t.Fatal(err)
	}
	segs := tableSegments(t, fs.Bytes(CheckpointFileName))
	if len(segs) != 3 {
		t.Fatalf("checkpoint of %d tables, want DIRECTOR, MOVIES, RATINGS", len(segs))
	}
	// MOVIES ends with an older writer's index definition, refused after
	// every column decoded.
	movies := withIndexDefinition(t, segs[1], "movies_did", "did")
	// RATINGS promises one column too many.
	d := walDecoder{buf: segs[2]}
	name, rows, cols := d.string(), d.uvarint(), d.uvarint()
	if d.err != nil {
		t.Fatal(d.err)
	}
	ratings := appendUvarint(appendUvarint(appendString(nil, name), rows), cols+1)
	ratings = append(ratings, segs[2][d.off:]...)

	load := func(segments ...[]byte) error {
		db := newDurDB(t)
		_, err := db.loadCheckpoint(frameCheckpoint(db, segments...))
		if err == nil {
			t.Fatal("a corrupt checkpoint loaded")
		}
		return err
	}
	want := load(segs[0], movies, segs[2]).Error()
	if other := load(segs[0], segs[1], ratings).Error(); other == want {
		t.Fatalf("both corruptions refuse with %q; the test cannot tell them apart", want)
	}
	for i := range 50 {
		if got := load(segs[0], movies, ratings).Error(); got != want {
			t.Fatalf("load %d: refusal %q, want the second segment's %q", i, got, want)
		}
	}
}

// TestReplicatedCheckpointWithSecondaryIndex re-seeds a follower from a
// checkpoint whose T segment defines a secondary index, as older writers
// emitted one. The re-seed must return, refuse with the table and the index
// named, and publish no version.
func TestReplicatedCheckpointWithSecondaryIndex(t *testing.T) {
	follower, err := NewDatabase(columnarTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	snap, published := follower.Snapshot(), follower.Published()
	done := make(chan error, 1)
	go func() {
		_, _, err := follower.LoadReplicatedCheckpoint(legacyIndexCheckpoint(t))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), legacyIndexRefusal) {
			t.Fatalf("re-seed: %v; want %q", err, legacyIndexRefusal)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("re-seed from a checkpoint with a secondary index did not return")
	}
	if follower.Snapshot() != snap || follower.Published() != published {
		t.Fatal("refused re-seed published a version")
	}
}

// fuzzSeedSegments checkpoints a few shapes of the columnar test table: NULL-
// heavy random rows under a sorted dictionary, a table past one zone, and an
// all-NULL text column; then it adds four forged segments.
func fuzzSeedSegments(t testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(5))
	var nextID int64
	random := func(n int) func(db *Database) {
		return func(db *Database) {
			for i := 0; i < n; i++ {
				tup := make(Tuple, 6)
				for p := range tup {
					tup[p] = randVal(rng, p, &nextID)
				}
				if err := db.Insert("T", tup); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var out [][]byte
	for _, build := range []func(db *Database){
		func(db *Database) {
			if err := db.EnableSortedDict("T", "s"); err != nil {
				t.Fatal(err)
			}
			random(40)(db)
		},
		random(ZoneRows + 40),
		func(db *Database) {
			for id := int64(1); id <= 3; id++ {
				if err := db.Insert("T", Tuple{value.NewInt(id), value.NewNull(), value.NewFloat(0.5), value.NewNull(), value.NewDateDays(id), value.NewBool(true)}); err != nil {
					t.Fatal(err)
				}
			}
		},
	} {
		_, ck := checkpointFile(t, columnarTestSchema(), build)
		out = append(out, tableSegments(t, ck)...)
	}
	// Four forgeries this writer never produces, which the loader must
	// refuse: a NULL bit past the last row, a dictionary holding one string
	// twice, a primary key held by two rows (written under the relation
	// without its key), and an older writer's secondary-index definition.
	db, err := NewDatabase(columnarTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 3; id++ {
		if err := db.Insert("T", Tuple{value.NewInt(id), value.NewInt(id), value.NewNull(), value.NewText(fmt.Sprint("s", id%2)), value.NewNull(), value.NewNull()}); err != nil {
			t.Fatal(err)
		}
	}
	view := db.Table("T").freeze()
	view.cols[1].nulls.tail |= 1 << 5
	out = append(out, view.appendSegment(nil))
	view = db.Table("T").freeze()
	view.cols[3].dict = &dict{strs: append(slices.Clone(view.cols[3].dict.strs), "s1")}
	out = append(out, view.appendSegment(nil))
	keyless := columnarTestSchema()
	keyless.Relation("T").PrimaryKey = nil
	_, ck := checkpointFile(t, keyless, func(db *Database) {
		for _, id := range []int64{1, 2, 1} {
			if err := db.Insert("T", Tuple{value.NewInt(id), value.NewInt(id), value.NewNull(), value.NewText("k"), value.NewNull(), value.NewNull()}); err != nil {
				t.Fatal(err)
			}
		}
	})
	out = append(out, tableSegments(t, ck)...)
	return append(out, withIndexDefinition(t, out[0], "by_n", "n"))
}

// fuzzSchema is the columnar test table T beside a second relation U, so a
// fuzzed T segment always loads next to another table's.
func fuzzSchema() *catalog.Schema {
	s := columnarTestSchema()
	if err := s.AddRelation(&catalog.Relation{
		Name: "U",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "name", Type: catalog.Text},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		panic(err)
	}
	return s
}

// uPrint renders U's rows and each row's primary-key probe.
func uPrint(tbl *Table) string {
	var sb strings.Builder
	for i := 0; i < tbl.Len(); i++ {
		row := tbl.Tuple(i)
		got, ok := tbl.LookupPK(Tuple{row[0]})
		fmt.Fprintf(&sb, "%d %s pk=%v %s\n", i, row, ok, got)
	}
	return sb.String()
}

// FuzzLoadCheckpoint feeds table segments of T to the checkpoint loader
// behind a valid header and valid CRCs, followed by a fixed valid segment of
// U, so the two decode concurrently. Whatever the bytes, the load refuses or
// installs a consistent table: no panic, one primary-key entry per row with
// every row's key probing to its own position, no NULL bit past the last
// row, a dictionary whose strings each map back to their own code, and zones
// and statistics equal to a from-scratch derivation. U loads intact beside it.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, seg := range fuzzSeedSegments(f) {
		f.Add(seg)
	}
	live, ck := checkpointFile(f, fuzzSchema(), func(db *Database) {
		for id := int64(1); id <= 40; id++ {
			name := value.NewText(fmt.Sprint("u", id%7))
			if id%5 == 0 {
				name = value.NewNull()
			}
			if err := db.Insert("U", Tuple{value.NewInt(id), name}); err != nil {
				f.Fatal(err)
			}
		}
	})
	uSegment, uWant := tableSegments(f, ck)[1], uPrint(live.Table("U"))
	f.Fuzz(func(t *testing.T, segment []byte) {
		db, err := NewDatabase(fuzzSchema())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.loadCheckpoint(frameCheckpoint(db, segment, uSegment)); err != nil {
			return
		}
		if got := uPrint(db.Table("U")); got != uWant {
			t.Fatalf("U loaded as\n%s\nwant\n%s", got, uWant)
		}
		for _, tbl := range []*Table{db.Table("T"), db.Table("U")} {
			checkPKIndex(t, tbl, "load")
			for p := range tbl.cols {
				c := &tbl.cols[p]
				for i := tbl.Len(); i < len(c.nulls.words)*64; i++ {
					if c.nulls.get(i) {
						t.Fatalf("%s col %d: NULL bit at %d, past the %d rows", tbl.rel.Name, p, i, tbl.Len())
					}
				}
				if c.kind != value.Text {
					continue
				}
				for code, s := range c.dict.strs {
					if got, ok := tbl.Col(p).DictCode(s); !ok || got != uint32(code) {
						t.Fatalf("%s col %d: dictionary string %q maps to code %d, stored at %d", tbl.rel.Name, p, s, got, code)
					}
				}
			}
			checkZones(t, tbl)
			checkStats(t, tbl)
		}
	})
}
