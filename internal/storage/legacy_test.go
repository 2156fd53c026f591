package storage

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/value"
	"repro/internal/wal"
)

// legacyIndexRecord frames a WAL record body as older writers logged a
// secondary-index definition: the sequence, one op, op 0x04, the relation,
// the index name and its attributes.
func legacyIndexRecord(seq uint64, rel, name string, attrs ...string) []byte {
	rec := appendUvarint(nil, seq)
	rec = appendUvarint(rec, 1)
	rec = append(rec, opIndexDef)
	rec = appendString(rec, rel)
	rec = appendString(rec, name)
	rec = appendUvarint(rec, uint64(len(attrs)))
	for _, a := range attrs {
		rec = appendString(rec, a)
	}
	return rec
}

// withIndexDefinition rewrites a table segment as older writers emitted it
// for a table with one secondary index: the trailing zero index count becomes
// a count of one, the index name and its attributes.
func withIndexDefinition(t testing.TB, segment []byte, name string, attrs ...string) []byte {
	t.Helper()
	if len(segment) == 0 || segment[len(segment)-1] != 0 {
		t.Fatal("segment does not end in a zero index count")
	}
	out := appendUvarint(bytes.Clone(segment[:len(segment)-1]), 1)
	out = appendString(out, name)
	out = appendUvarint(out, uint64(len(attrs)))
	for _, a := range attrs {
		out = appendString(out, a)
	}
	return out
}

// TestWALIndexDefinitionRefused replays a log whose second record defines a
// secondary index, as older versions logged CREATE of one. Recovery must not
// skip the op and go on: it stops at that record, narrates which table and
// index it refused, and publishes only the record before it. A follower
// handed the same record refuses it with the same text and publishes nothing.
func TestWALIndexDefinitionRefused(t *testing.T) {
	const want = `wal record defines index "movies_did" on MOVIES`
	fs := wal.NewMemFS()
	db := newDurDB(t)
	if _, err := db.EnableDurability(fs, DurableOptions{CheckpointBytes: -1}); err != nil {
		t.Fatal(err)
	}
	insDirector(t, db, 1)
	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	log := fs.Bytes(WALFileName)
	log = wal.AppendRecord(log, legacyIndexRecord(2, "MOVIES", "movies_did", "did"))
	f, err := fs.Create(WALFileName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(log); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := newDurDB(t)
	report, err := re.EnableDurability(fs, DurableOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.TailReason, want) || report.LostBatches != 1 || report.LastSeq != 1 {
		t.Fatalf("recovery reported %q, %d lost, last seq %d; want %q, 1 lost, last seq 1",
			report.TailReason, report.LostBatches, report.LastSeq, want)
	}
	if got := re.Snapshot().Seq(); got != 1 {
		t.Fatalf("recovered snapshot at seq %d, want 1", got)
	}

	follower := newDurDB(t)
	follower.SetReadOnly(true)
	snap, published := follower.Snapshot(), follower.Published()
	_, _, err = follower.ApplyReplicatedRecord(legacyIndexRecord(1, "MOVIES", "movies_did", "did"))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("follower apply: %v; want %q", err, want)
	}
	if follower.Snapshot() != snap || follower.Published() != published {
		t.Fatal("refused record published a version")
	}
}

// legacyIndexCheckpoint checkpoints three rows of the columnar test table
// and rewrites T's segment as older writers emitted it under index by_n.
func legacyIndexCheckpoint(t *testing.T) []byte {
	t.Helper()
	_, ck := checkpointFile(t, columnarTestSchema(), func(db *Database) {
		for id := int64(1); id <= 3; id++ {
			if err := db.Insert("T", Tuple{value.NewInt(id), value.NewInt(id % 2), value.NewNull(), value.NewText("a"), value.NewNull(), value.NewNull()}); err != nil {
				t.Fatal(err)
			}
		}
	})
	db, err := NewDatabase(columnarTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	return frameCheckpoint(db, withIndexDefinition(t, tableSegments(t, ck)[0], "by_n", "n"))
}

// legacyIndexRefusal is the text a checkpoint defining by_n on T is refused
// with.
const legacyIndexRefusal = `checkpoint T defines index "by_n"`

// TestCheckpointIndexDefinitionRefused boots from a checkpoint whose T
// segment defines a secondary index, as older writers emitted one. The boot
// refuses, naming the table and the index, rather than loading the rows
// without the definition, and publishes none of them.
func TestCheckpointIndexDefinitionRefused(t *testing.T) {
	booted, err := recoverFrom(t, columnarTestSchema(), legacyIndexCheckpoint(t))
	if err == nil || !strings.Contains(err.Error(), legacyIndexRefusal) {
		t.Fatalf("boot: %v; want %q", err, legacyIndexRefusal)
	}
	if n := booted.Snapshot().Table("T").Len(); n != 0 {
		t.Fatalf("refused boot published %d rows", n)
	}
}
