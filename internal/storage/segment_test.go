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

// frameCheckpoint puts one table segment behind a valid header for db's
// schema, both records CRC-framed, so the bytes reach the segment decoder.
func frameCheckpoint(db *Database, segment []byte) []byte {
	header := append([]byte(segmentMagic), appendUvarint(nil, SchemaFingerprint(db))...)
	header = appendUvarint(header, 0) // WAL floor
	header = appendUvarint(header, 1) // one table
	return wal.AppendRecord(wal.AppendRecord(nil, header), segment)
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

// TestReplicatedCheckpointWithSecondaryIndex re-seeds a follower from a
// checkpoint that defines a secondary index. The load holds the database
// lock while it rebuilds the index, so the rebuild must not take it again.
func TestReplicatedCheckpointWithSecondaryIndex(t *testing.T) {
	live, ck := checkpointFile(t, columnarTestSchema(), func(db *Database) {
		if err := db.Table("T").CreateIndex("by_n", "n"); err != nil {
			t.Fatal(err)
		}
		for id := int64(1); id <= 3; id++ {
			if err := db.Insert("T", Tuple{value.NewInt(id), value.NewInt(id % 2), value.NewNull(), value.NewText("a"), value.NewNull(), value.NewNull()}); err != nil {
				t.Fatal(err)
			}
		}
	})
	follower, err := NewDatabase(columnarTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := follower.LoadReplicatedCheckpoint(ck)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("re-seed from a checkpoint with a secondary index did not return")
	}
	if got, want := viewPrint(follower.Snapshot().Table("T")), viewPrint(live.Snapshot().Table("T")); got != want {
		t.Fatalf("re-seeded\n%s\nwant\n%s", got, want)
	}
}

// fuzzSeedSegments checkpoints a few shapes of the columnar test table: NULL-
// heavy random rows under two secondary indexes and a sorted dictionary, a
// table past one zone, and an all-NULL text column; then it adds two forged
// segments.
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
			if err := db.Table("T").CreateIndex("by_n", "n"); err != nil {
				t.Fatal(err)
			}
			if err := db.Table("T").CreateIndex("by_s_n", "s", "n"); err != nil {
				t.Fatal(err)
			}
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
	// Two forgeries no writer produces, which the loader must refuse: a NULL
	// bit past the last row, and a dictionary holding one string twice.
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
	return append(out, view.appendSegment(nil))
}

// FuzzLoadCheckpoint feeds table segments to the checkpoint loader behind a
// valid header and valid CRCs. Whatever the bytes, the load refuses or
// installs a consistent table: no panic, one primary-key entry per row with
// every row's key probing to its own position, no NULL bit past the last
// row, a dictionary whose strings each map back to their own code, and zones
// and statistics equal to a from-scratch derivation.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, seg := range fuzzSeedSegments(f) {
		f.Add(seg)
	}
	f.Fuzz(func(t *testing.T, segment []byte) {
		db, err := NewDatabase(columnarTestSchema())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.loadCheckpoint(frameCheckpoint(db, segment)); err != nil {
			return
		}
		tbl := db.Table("T")
		checkPKIndex(t, tbl, "load")
		for p := range tbl.cols {
			c := &tbl.cols[p]
			for i := tbl.Len(); i < len(c.nulls.words)*64; i++ {
				if c.nulls.get(i) {
					t.Fatalf("col %d: NULL bit at %d, past the %d rows", p, i, tbl.Len())
				}
			}
			if c.kind != value.Text {
				continue
			}
			for code, s := range c.dict.strs {
				if got, ok := tbl.Col(p).DictCode(s); !ok || got != uint32(code) {
					t.Fatalf("col %d: dictionary string %q maps to code %d, stored at %d", p, s, got, code)
				}
			}
		}
		checkZones(t, tbl)
		checkStats(t, tbl)
	})
}
