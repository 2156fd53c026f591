package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/value"
	"repro/internal/wal"
)

// newReplicatedPair builds a durable primary (MemFS) with its commit sink
// collecting frames, plus an empty in-memory follower over the same schema.
func newReplicatedPair(t *testing.T) (primary *Database, follower *Database, frames *[]CommitFrame) {
	t.Helper()
	primary = newDurDB(t)
	if _, err := primary.EnableDurability(wal.NewMemFS(), DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	collected := &[]CommitFrame{}
	if err := primary.SetCommitSink(func(seq uint64, record []byte) {
		*collected = append(*collected, CommitFrame{Seq: seq, Record: append([]byte(nil), record...)})
	}); err != nil {
		t.Fatal(err)
	}
	follower = newDurDB(t)
	follower.SetReadOnly(true)
	return primary, follower, collected
}

func insDirector(t *testing.T, db *Database, id int) {
	t.Helper()
	ins(t, db, "DIRECTOR", value.NewInt(int64(id)), value.NewText(fmt.Sprintf("d-%d", id)), value.NewNull())
}

// TestCommitSinkStreamsRecords pins the sink contract: one call per commit,
// in sequence order, carrying exactly the record payload the WAL framed.
func TestCommitSinkStreamsRecords(t *testing.T) {
	primary, _, frames := newReplicatedPair(t)
	for i := 0; i < 5; i++ {
		insDirector(t, primary, i)
	}
	if len(*frames) != 5 {
		t.Fatalf("sink saw %d commits, want 5", len(*frames))
	}
	for i, fr := range *frames {
		if fr.Seq != uint64(i+1) {
			t.Fatalf("frame %d has seq %d, want %d", i, fr.Seq, i+1)
		}
		seq, ok := RecordSeq(fr.Record)
		if !ok || seq != fr.Seq {
			t.Fatalf("frame %d: payload seq %d (ok=%v), want %d", i, seq, ok, fr.Seq)
		}
	}
	// The sink stream must be byte-identical to the fsynced log.
	_, diskFrames, _, err := primary.ReplicationBacklog(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(diskFrames) != len(*frames) {
		t.Fatalf("disk backlog has %d frames, sink saw %d", len(diskFrames), len(*frames))
	}
	for i := range diskFrames {
		if diskFrames[i].Seq != (*frames)[i].Seq || string(diskFrames[i].Record) != string((*frames)[i].Record) {
			t.Fatalf("frame %d: disk and sink disagree", i)
		}
	}
}

// TestApplyReplicatedRecord pins the follower apply path: shipped records
// replay into an identical database, one published version per record at the
// record's sequence, while local writes stay refused.
func TestApplyReplicatedRecord(t *testing.T) {
	primary, follower, frames := newReplicatedPair(t)
	if err := follower.Insert("DIRECTOR", Tuple{value.NewInt(99), value.NewText("local"), value.NewNull()}); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("local insert on follower: %v, want ErrReadOnlyReplica", err)
	}
	for i := 0; i < 4; i++ {
		insDirector(t, primary, i)
	}
	if _, err := primary.Delete("DIRECTOR", func(tup Tuple) bool { return tup[0].Int() == 2 }); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Update("DIRECTOR", func(tup Tuple) bool { return tup[0].Int() == 1 },
		func(tup Tuple) Tuple {
			out := append(Tuple(nil), tup...)
			out[1] = value.NewText("renamed")
			return out
		}); err != nil {
		t.Fatal(err)
	}
	published := follower.Published()
	for _, fr := range *frames {
		seq, _, err := follower.ApplyReplicatedRecord(fr.Record)
		if err != nil {
			t.Fatalf("apply seq %d: %v", fr.Seq, err)
		}
		if seq != fr.Seq {
			t.Fatalf("apply decoded seq %d, want %d", seq, fr.Seq)
		}
		if got := follower.Snapshot().Seq(); got != fr.Seq {
			t.Fatalf("follower snapshot at seq %d after applying %d", got, fr.Seq)
		}
	}
	if got := follower.Published() - published; got != uint64(len(*frames)) {
		t.Fatalf("follower published %d versions for %d records", got, len(*frames))
	}
	if got, want := snapDump(follower.Snapshot()), snapDump(primary.Snapshot()); got != want {
		t.Fatalf("follower diverged from primary:\n%s\n----\n%s", got, want)
	}
	if err := follower.Insert("DIRECTOR", Tuple{value.NewInt(99), value.NewText("local"), value.NewNull()}); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("local insert after applies: %v, want ErrReadOnlyReplica", err)
	}
}

// TestFollowerRefusesLocalWritesDuringApply pins that a follower refuses
// local DML while a replicated record applies, not only between records: a
// local insert accepted mid-apply would publish with the replicated version
// and leave the follower holding rows the primary's log never had.
func TestFollowerRefusesLocalWritesDuringApply(t *testing.T) {
	primary, follower, frames := newReplicatedPair(t)
	const rows = 20000
	batch := make([]Tuple, rows)
	for id := range batch {
		batch[id] = Tuple{value.NewInt(int64(id + 1)), value.NewText(fmt.Sprintf("d-%d", id+1)), value.NewNull()}
	}
	if n, err := primary.InsertRows(context.Background(), "DIRECTOR", batch); err != nil || n != rows {
		t.Fatalf("InsertRows: n=%d err=%v", n, err)
	}
	if len(*frames) != 1 {
		t.Fatalf("the statement committed as %d records, want 1", len(*frames))
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := follower.ApplyReplicatedRecord((*frames)[0].Record)
		done <- err
	}()
	attempts, accepted := 0, 0
	for id := rows + 1; ; id++ {
		err := follower.Insert("DIRECTOR", Tuple{value.NewInt(int64(id)), value.NewText("local"), value.NewNull()})
		attempts++
		if !errors.Is(err, ErrReadOnlyReplica) {
			accepted++
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			if accepted > 0 {
				t.Fatalf("follower accepted %d of %d local inserts during the apply", accepted, attempts)
			}
			if got, want := follower.Snapshot().Table("DIRECTOR").Len(), primary.Snapshot().Table("DIRECTOR").Len(); got != want {
				t.Fatalf("follower holds %d DIRECTOR rows, primary %d", got, want)
			}
			if got := follower.Table("DIRECTOR").Len(); got != rows {
				t.Fatalf("follower's live table holds %d rows, want %d", got, rows)
			}
			return
		default:
		}
	}
}

// TestApplyReplicatedRecordPartialFailure pins record atomicity on the
// follower: a record that fails midway publishes nothing — readers never see
// half a statement, they see the last fully applied sequence.
func TestApplyReplicatedRecordPartialFailure(t *testing.T) {
	primary, follower, frames := newReplicatedPair(t)
	insDirector(t, primary, 1)
	insDirector(t, primary, 2)
	first, second := (*frames)[0], (*frames)[1]
	if _, _, err := follower.ApplyReplicatedRecord(first.Record); err != nil {
		t.Fatal(err)
	}
	// Craft a record whose first op inserts id 2 (fresh — it applies) and
	// whose second op inserts id 2 again (primary-key violation): the apply
	// fails midway with one row already in the live tables.
	_, n := binary.Uvarint(second.Record)
	_, n2 := binary.Uvarint(second.Record[n:])
	ops := second.Record[n+n2:]
	bad := binary.AppendUvarint(nil, second.Seq)
	bad = binary.AppendUvarint(bad, 2)
	bad = append(bad, ops...)
	bad = append(bad, ops...)
	before := snapDump(follower.Snapshot())
	seq, _, err := follower.ApplyReplicatedRecord(bad)
	if err == nil {
		t.Fatal("duplicate-key record applied cleanly")
	}
	if seq != second.Seq {
		t.Fatalf("decoded seq %d, want %d", seq, second.Seq)
	}
	if got := snapDump(follower.Snapshot()); got != before {
		t.Fatalf("failed record leaked into a published version:\n%s", got)
	}
	if got := follower.Snapshot().Seq(); got != first.Seq {
		t.Fatalf("follower snapshot moved to seq %d after a failed apply", got)
	}
}

// TestReplicationBacklog pins the catch-up read: below the checkpoint floor
// the backlog re-seeds from the segment, above it ships log records, and the
// result always reconstructs the primary byte-for-byte.
func TestReplicationBacklog(t *testing.T) {
	primary, follower, _ := newReplicatedPair(t)
	for i := 0; i < 3; i++ {
		insDirector(t, primary, i)
	}
	// No checkpoint yet beyond the adopting one (floor 0): a follower at 0
	// needs no segment, only records.
	ck, frames, last, err := primary.ReplicationBacklog(0)
	if err != nil {
		t.Fatal(err)
	}
	if ck != nil {
		t.Fatalf("backlog above the floor shipped a checkpoint")
	}
	if len(frames) != 3 || last != 3 {
		t.Fatalf("backlog: %d frames to %d, want 3 to 3", len(frames), last)
	}
	// Rotate the log: records 1..3 now live only in the checkpoint.
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		insDirector(t, primary, i)
	}
	ck, frames, last, err = primary.ReplicationBacklog(0)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("backlog below the floor must ship the checkpoint")
	}
	if len(frames) != 2 || last != 5 {
		t.Fatalf("backlog: %d frames to %d, want 2 to 5", len(frames), last)
	}
	floor, rows, err := follower.LoadReplicatedCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if floor != 3 || rows != 3 {
		t.Fatalf("checkpoint load: floor %d rows %d, want 3 and 3", floor, rows)
	}
	if got := follower.Snapshot().Seq(); got != 3 {
		t.Fatalf("follower snapshot at seq %d after re-seed, want 3", got)
	}
	for _, fr := range frames {
		if _, _, err := follower.ApplyReplicatedRecord(fr.Record); err != nil {
			t.Fatalf("apply seq %d: %v", fr.Seq, err)
		}
	}
	if got, want := snapDump(follower.Snapshot()), snapDump(primary.Snapshot()); got != want {
		t.Fatalf("catch-up diverged:\n%s\n----\n%s", got, want)
	}
	// A caught-up follower asking again gets nothing.
	ck, frames, last, err = primary.ReplicationBacklog(5)
	if err != nil || ck != nil || len(frames) != 0 || last != 5 {
		t.Fatalf("caught-up backlog: ck=%v frames=%d last=%d err=%v", ck != nil, len(frames), last, err)
	}
}

// TestCheckpointFloorChecksMagic offers a checkpoint whose CRC-valid header
// frame carries the wrong segment magic. CheckpointFloor — the follower's
// peek before it wipes anything — must refuse it with the text the loader
// gives, not read a floor out of a segment the loader would refuse.
func TestCheckpointFloorChecksMagic(t *testing.T) {
	_, ck := checkpointFile(t, columnarTestSchema(), func(*Database) {})
	records, _ := wal.Scan(ck)
	header := append([]byte("TBSEG0"), records[0].Payload[len(segmentMagic):]...)
	bad := wal.AppendRecord(nil, header)
	for _, rec := range records[1:] {
		bad = wal.AppendRecord(bad, rec.Payload)
	}
	db, err := NewDatabase(columnarTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	_, loadErr := db.loadCheckpoint(bad)
	if loadErr == nil {
		t.Fatal("loader accepted the wrong magic")
	}
	floor, err := CheckpointFloor(bad)
	if err == nil {
		t.Fatalf("CheckpointFloor read floor %d past the wrong magic", floor)
	}
	if err.Error() != loadErr.Error() {
		t.Fatalf("CheckpointFloor refused with %q, the loader with %q", err, loadErr)
	}
	if _, err := CheckpointFloor(ck); err != nil {
		t.Fatalf("CheckpointFloor refused a good checkpoint: %v", err)
	}
}

// TestRecoveryReportSeqRange pins the recovered sequence range satellite:
// recovery reports the checkpoint floor and the replayed span.
func TestRecoveryReportSeqRange(t *testing.T) {
	fs := wal.NewMemFS()
	db := newDurDB(t)
	if _, err := db.EnableDurability(fs, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		insDirector(t, db, i)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 7; i++ {
		insDirector(t, db, i)
	}
	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	re := newDurDB(t)
	report, err := re.EnableDurability(fs, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.CheckpointSeq != 3 {
		t.Fatalf("CheckpointSeq %d, want 3", report.CheckpointSeq)
	}
	if report.FirstSeq != 4 || report.LastSeq != 7 {
		t.Fatalf("seq range %d..%d, want 4..7", report.FirstSeq, report.LastSeq)
	}
	if got := re.Snapshot().Seq(); got != 7 {
		t.Fatalf("recovered snapshot at %d, want 7", got)
	}
}

// fuzzRecordSeeds runs the crash-matrix workload on a durable primary,
// checkpointing halfway, and returns that checkpoint and every record the
// primary committed.
func fuzzRecordSeeds(t testing.TB) (checkpoint []byte, records [][]byte) {
	fs := wal.NewMemFS()
	primary := newDurDB(t)
	if _, err := primary.EnableDurability(fs, DurableOptions{CheckpointBytes: -1}); err != nil {
		t.Fatal(err)
	}
	if err := primary.SetCommitSink(func(_ uint64, record []byte) {
		records = append(records, append([]byte(nil), record...))
	}); err != nil {
		t.Fatal(err)
	}
	steps := matrixWorkload(rand.New(rand.NewSource(42)))
	for i, step := range steps {
		if i == len(steps)/2 {
			if err := primary.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			checkpoint = fs.Bytes(CheckpointFileName)
		}
		step.apply(t, primary)
	}
	return checkpoint, records
}

// FuzzApplyRecord feeds arbitrary record payloads through the WAL record
// decoder into a follower re-seeded from a checkpoint taken halfway through
// the crash-matrix workload; the seeds are the records that workload
// committed, each keyed update spliced with the keyed delete that follows it
// (one record of mixed op kinds, as older logs and two raw writers sharing a
// flush hold), plus an older writer's index definition and the update ops of
// updateSeedOps, malformed ones included. Whatever the bytes: no
// panic; a refused record publishes no version; after an accepted one every
// table's statistics — live and as published — equal the oracle, its zones a
// from-scratch derivation, and its primary key finds every row.
func FuzzApplyRecord(f *testing.F) {
	checkpoint, records := fuzzRecordSeeds(f)
	mixed := 0
	for i, rec := range records {
		f.Add(rec)
		if i > 0 && firstOp(f, records[i-1]) == opUpdate && firstOp(f, rec) == opDelete {
			f.Add(spliceRecords(f, records[i-1], rec))
			mixed++
		}
	}
	if mixed == 0 {
		f.Fatal("the workload committed no keyed update followed by a keyed delete")
	}
	seq := uint64(len(records) + 1)
	f.Add(legacyIndexRecord(seq, "MOVIES", "movies_did", "did"))
	for _, op := range updateSeedOps() {
		rec := appendUvarint(appendUvarint(nil, seq), 1)
		f.Add(append(rec, op...))
	}
	f.Fuzz(func(t *testing.T, record []byte) {
		follower := newDurDB(t)
		follower.SetReadOnly(true)
		if _, _, err := follower.LoadReplicatedCheckpoint(checkpoint); err != nil {
			t.Fatal(err)
		}
		snap, published := follower.Snapshot(), follower.Published()
		if _, _, err := follower.ApplyReplicatedRecord(record); err != nil {
			if follower.Snapshot() != snap || follower.Published() != published {
				t.Fatalf("refused record (%v) published a version", err)
			}
			return
		}
		for _, name := range follower.TableNames() {
			tbl := follower.Table(name)
			checkStats(t, tbl)
			checkStats(t, follower.Snapshot().Table(name))
			checkZones(t, tbl)
			checkPKIndex(t, tbl, name)
		}
	})
}

// updateSeedOps returns FuzzApplyRecord's hand-made update ops on MOVIES
// (id, title, year, did): a valid column update of two rows; the same cut
// short; one naming an attribute past the table's, one naming an attribute
// twice, one whose positions repeat, one whose positions run backwards, one
// past the table's rows, and one whose count runs past the record; and a
// whole-row update (op 0x03) as older versions logged it.
func updateSeedOps() [][]byte {
	update := func(positions, attrs []int, vals ...value.Value) []byte {
		var sd durability
		sd.logUpdate("MOVIES", positions, attrs, vals, len(positions))
		return sd.pending
	}
	title, year := value.NewText("seeded"), value.NewInt(1999)
	valid := update([]int{0, 1}, []int{1, 2}, title, title, year, year)
	var legacy durability
	legacy.logRowUpdate("MOVIES", []updatedRow{{pos: 0, repl: Tuple{value.NewInt(1_000_000), title, year, value.NewNull()}}})
	overrun := append([]byte{opUpdate}, appendString(nil, "MOVIES")...)
	return [][]byte{
		valid,
		valid[:len(valid)-3],
		update([]int{0}, []int{9}, year),
		update([]int{0}, []int{2, 2}, year, year),
		update([]int{1, 1}, []int{2}, year, year),
		update([]int{1, 0}, []int{2}, year, year),
		update([]int{1 << 20}, []int{2}, year),
		appendUvarint(overrun, 1<<40),
		legacy.pending,
	}
}

// firstOp returns the kind byte of a commit record's first op.
func firstOp(t testing.TB, record []byte) byte {
	t.Helper()
	d := &walDecoder{buf: record}
	d.uvarint() // seq
	d.uvarint() // op count
	op := d.byte()
	if d.err != nil {
		t.Fatalf("record header: %v", d.err)
	}
	return op
}
