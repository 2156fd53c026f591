package storage

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/value"
	"repro/internal/wal"
)

// durSchema extends the shared test schema with a relation covering Float
// and Bool columns, so checkpoints serialize every value kind.
func durSchema(t testing.TB) *catalog.Schema {
	t.Helper()
	s := testSchema(t)
	if err := s.AddRelation(&catalog.Relation{
		Name: "RATINGS",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "score", Type: catalog.Float},
			{Name: "fresh", Type: catalog.Bool},
			{Name: "note", Type: catalog.Text},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func newDurDB(t testing.TB) *Database {
	t.Helper()
	db, err := NewDatabase(durSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// dumpAll renders every table's rows — the observable-contents fingerprint
// the recovery tests compare.
func dumpAll(t *testing.T, db *Database) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range db.TableNames() {
		sb.WriteString("== " + name + "\n")
		for _, tup := range db.Table(name).Tuples() {
			sb.WriteString(tup.String() + "\n")
		}
	}
	return sb.String()
}

// statsAll fingerprints the planner-visible statistics.
func statsAll(t *testing.T, db *Database) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range db.TableNames() {
		st := db.Table(name).Stats()
		fmt.Fprintf(&sb, "%s rows=%d zones=%d\n", name, st.Rows, st.Zones)
		for i, a := range st.Attrs {
			fmt.Fprintf(&sb, "  %d nonNull=%d distinct=%d min=%s max=%s\n",
				i, a.NonNull, a.Distinct, a.Min.String(), a.Max.String())
		}
	}
	return sb.String()
}

// zonesAll fingerprints the zone maps (bounds, null counts, sortedness).
func zonesAll(t *testing.T, db *Database) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range db.TableNames() {
		tbl := db.Table(name)
		for i := 0; i < len(tbl.rel.Attributes); i++ {
			col := tbl.Col(i)
			fmt.Fprintf(&sb, "%s.%d zones=%d synced=%v", name, i, col.ZoneCount(), col.ZonesSynced(tbl.Len()))
			for z := 0; z < col.ZoneCount(); z++ {
				fmt.Fprintf(&sb, " [n=%d", col.ZoneNulls(z))
				if lo, hi, ok := col.ZoneIntBounds(z); ok {
					fmt.Fprintf(&sb, " i%d:%d", lo, hi)
				}
				if lo, hi, ok := col.ZoneFloatBounds(z); ok {
					fmt.Fprintf(&sb, " f%g:%g nan=%v", lo, hi, col.ZoneHasNaN(z))
				}
				if lo, hi, ok := col.ZoneTextBounds(z); ok {
					fmt.Fprintf(&sb, " t%q:%q", lo, hi)
				}
				sb.WriteString("]")
			}
			if base, delta, ok := col.FORInts(); ok {
				fmt.Fprintf(&sb, " for=%d/%d", len(base), len(delta))
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

func fingerprint(t *testing.T, db *Database) string {
	t.Helper()
	return dumpAll(t, db) + statsAll(t, db) + zonesAll(t, db)
}

// seedVariety fills the database with every serialization edge the segment
// format has to carry: NULLs everywhere, NaN and infinities, negative dates,
// dictionary churn (dead entries), bools, and enough int rows in a narrow
// range to keep the frame-of-reference encoding active.
func seedVariety(t *testing.T, db *Database) {
	t.Helper()
	for i := 0; i < 6; i++ {
		var bdate value.Value = value.NewNull()
		if i%2 == 0 {
			bdate = value.NewDateDays(int64(-4000 + i*1000))
		}
		ins(t, db, "DIRECTOR", value.NewInt(int64(i)), value.NewText(fmt.Sprintf("director-%d", i%3)), bdate)
	}
	// FOR stays on: values climb by 1 every 16 rows, so every zone spans
	// well under a byte's worth of delta.
	for i := 0; i < 5000; i++ {
		var title value.Value = value.NewNull()
		if i%7 != 0 {
			title = value.NewText(fmt.Sprintf("title-%d", i%11))
		}
		ins(t, db, "MOVIES", value.NewInt(int64(i)), title, value.NewInt(int64(1900+(i>>4))), value.NewInt(int64(i%6)))
	}
	scores := []value.Value{
		value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)),
		value.NewFloat(-0.0), value.NewFloat(3.25), value.NewNull(),
	}
	for i, s := range scores {
		ins(t, db, "RATINGS", value.NewInt(int64(i)), s, value.NewBool(i%2 == 0), value.NewText(fmt.Sprintf("note-%d", i)))
	}
	// Dictionary churn: retire every title-3 so the vocabulary holds dead
	// entries when the checkpoint writes.
	if _, err := db.Delete("MOVIES", func(tup Tuple) bool {
		return !tup[1].IsNull() && tup[1].Text() == "title-3"
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	db := newDurDB(t)
	seedVariety(t, db)
	if _, err := db.EnableDurability(fs, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, db)

	db2 := newDurDB(t)
	report, err := db2.EnableDurability(fs, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("recovery not clean: %+v", report)
	}
	if got := fingerprint(t, db2); got != want {
		t.Errorf("reopened database diverges:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

func TestReopenAfterDML(t *testing.T) {
	fs := wal.NewMemFS()
	db := newDurDB(t)
	if _, err := db.EnableDurability(fs, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	// A mixed workload through the public API, all after the initial
	// (empty) checkpoint — everything must come back from the WAL alone.
	for i := 0; i < 50; i++ {
		ins(t, db, "DIRECTOR", value.NewInt(int64(i)), value.NewText(fmt.Sprintf("d%d", i)), value.NewNull())
	}
	if _, err := db.Delete("DIRECTOR", func(tup Tuple) bool { return tup[0].Int()%5 == 0 }); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update("DIRECTOR",
		func(tup Tuple) bool { return tup[0].Int()%3 == 0 },
		func(tup Tuple) Tuple { tup[1] = value.NewText("updated-" + tup[1].Text()); return tup }); err != nil {
		t.Fatal(err)
	}
	movies := []Tuple{
		{value.NewInt(100), value.NewText("Two Rows"), value.NewInt(1999), value.NewInt(3)},
		{value.NewInt(101), value.NewText("Another"), value.NewInt(2001), value.NewInt(6)},
	}
	if n, err := db.InsertRows(context.Background(), "MOVIES", movies); err != nil || n != 2 {
		t.Fatalf("InsertRows: n=%d err=%v", n, err)
	}
	want := fingerprint(t, db)

	db2 := newDurDB(t)
	report, err := db2.EnableDurability(fs, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() || report.ReplayedBatches == 0 {
		t.Fatalf("report: %+v", report)
	}
	if got := fingerprint(t, db2); got != want {
		t.Errorf("replayed database diverges:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

func TestPartialBatchPersists(t *testing.T) {
	fs := wal.NewMemFS()
	db := newDurDB(t)
	if _, err := db.EnableDurability(fs, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	// One statement whose 4th row hits a duplicate key: the three applied
	// rows stay in the table (storage semantics) and must therefore be in
	// the log too, as one record.
	var rows []Tuple
	for _, id := range []int64{1, 2, 3, 2} {
		rows = append(rows, Tuple{value.NewInt(id), value.NewText("x"), value.NewNull()})
	}
	n, err := db.InsertRows(context.Background(), "DIRECTOR", rows)
	if err == nil {
		t.Fatal("duplicate key accepted")
	}
	if n != 3 {
		t.Fatalf("InsertRows applied %d rows before the duplicate, want 3", n)
	}
	if got := db.Table("DIRECTOR").Len(); got != 3 {
		t.Fatalf("in-memory rows = %d", got)
	}
	if st, _ := db.DurabilityStats(); st.Batches != 1 || st.Ops != 3 {
		t.Fatalf("the statement committed %d records of %d ops, want 1 of 3", st.Batches, st.Ops)
	}

	db2 := newDurDB(t)
	if _, err := db2.EnableDurability(fs, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := db2.Table("DIRECTOR").Len(); got != 3 {
		t.Errorf("recovered rows = %d, want the 3 applied before the failure", got)
	}
}

func TestFsyncFailureSurfaces(t *testing.T) {
	mem := wal.NewMemFS()
	ffs := wal.NewFaultFS(mem)
	db := newDurDB(t)
	if _, err := db.EnableDurability(ffs, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	ins(t, db, "DIRECTOR", value.NewInt(1), value.NewText("ok"), value.NewNull())
	ffs.FailSyncsAfter(0)
	err := db.Insert("DIRECTOR", Tuple{value.NewInt(2), value.NewText("lost"), value.NewNull()})
	if !errors.Is(err, wal.ErrInjectedSync) {
		t.Fatalf("insert during fsync failure returned %v", err)
	}
	// The failure latches: clearing the fault does not resurrect the writer,
	// because the unsynced record's durability is unknown.
	ffs.ClearFaults()
	if err := db.Insert("DIRECTOR", Tuple{value.NewInt(3), value.NewText("rejected"), value.NewNull()}); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("insert after fsync failure returned %v, want ErrWALFailed", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("checkpoint after fsync failure returned %v, want ErrWALFailed", err)
	}
	st, ok := db.DurabilityStats()
	if !ok || st.WriteError == "" {
		t.Fatalf("stats do not surface the latched failure: %+v", st)
	}
	// Restart recovers: the in-memory disk kept both records (only the sync
	// failed), which is fine — statement 2 was never acknowledged, and an
	// unacknowledged statement may go either way.
	db2 := newDurDB(t)
	if _, err := db2.EnableDurability(mem, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := db2.Table("DIRECTOR").Len(); got != 2 {
		t.Errorf("recovered rows = %d", got)
	}
}

// TestAppendFailureLatches is the review's core scenario: an append that
// tears mid-frame (ENOSPC, I/O error) must latch the layer failed. If writes
// kept appending past the torn frame, they would be acknowledged as durable
// and then quarantined wholesale at recovery — silent loss of acked
// statements.
func TestAppendFailureLatches(t *testing.T) {
	mem := wal.NewMemFS()
	ffs := wal.NewFaultFS(mem)
	db := newDurDB(t)
	if _, err := db.EnableDurability(ffs, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		ins(t, db, "DIRECTOR", value.NewInt(i), value.NewText("acked"), value.NewNull())
	}
	ffs.FailWritesAfter(0)
	err := db.Insert("DIRECTOR", Tuple{value.NewInt(4), value.NewText("torn"), value.NewNull()})
	if !errors.Is(err, wal.ErrInjectedWrite) {
		t.Fatalf("insert during append failure returned %v", err)
	}
	ffs.ClearFaults()

	// Every further write is rejected — even though the disk works again.
	if err := db.Insert("DIRECTOR", Tuple{value.NewInt(5), value.NewText("after"), value.NewNull()}); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("insert after append failure returned %v, want ErrWALFailed", err)
	}
	if _, err := db.Delete("DIRECTOR", func(Tuple) bool { return true }); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("delete after append failure returned %v, want ErrWALFailed", err)
	}
	if _, err := db.Update("DIRECTOR", func(Tuple) bool { return true }, func(tup Tuple) Tuple { return tup }); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("update after append failure returned %v, want ErrWALFailed", err)
	}
	if _, err := db.InsertRows(context.Background(), "DIRECTOR", []Tuple{{value.NewInt(9), value.NewText("x"), value.NewNull()}}); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("multi-row insert after append failure returned %v, want ErrWALFailed", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("checkpoint after append failure returned %v, want ErrWALFailed", err)
	}
	// Row 4 applied in memory before the flush failed; rows 5+ were rejected
	// before touching the table.
	if got := db.Table("DIRECTOR").Len(); got != 4 {
		t.Errorf("in-memory rows = %d", got)
	}

	// Restart: the three acknowledged statements recover, the torn frame
	// quarantines, and nothing after it was ever appended.
	db2 := newDurDB(t)
	report, err := db2.EnableDurability(mem, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Clean() {
		t.Error("torn append recovered clean")
	}
	if report.ReplayedBatches != 3 || report.LostBatches != 1 {
		t.Errorf("replayed=%d lost=%d", report.ReplayedBatches, report.LostBatches)
	}
	if got := db2.Table("DIRECTOR").Len(); got != 3 {
		t.Errorf("recovered rows = %d, want the 3 acknowledged", got)
	}
	// The recovered database accepts writes again.
	ins(t, db2, "DIRECTOR", value.NewInt(10), value.NewText("healthy"), value.NewNull())
}

func TestAutoCheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	db := newDurDB(t)
	if _, err := db.EnableDurability(fs, DurableOptions{CheckpointBytes: 512}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		ins(t, db, "DIRECTOR", value.NewInt(int64(i)), value.NewText(fmt.Sprintf("name-%d", i)), value.NewNull())
	}
	st, ok := db.DurabilityStats()
	if !ok {
		t.Fatal("not durable")
	}
	// The adoption checkpoint plus at least one triggered by log growth.
	if st.Checkpoints < 2 {
		t.Fatalf("checkpoints = %d, auto-checkpoint never fired", st.Checkpoints)
	}
	if st.WALBytes >= 10*512 {
		t.Fatalf("wal grew to %d bytes despite the 512-byte ceiling", st.WALBytes)
	}
	db2 := newDurDB(t)
	if _, err := db2.EnableDurability(fs, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := db2.Table("DIRECTOR").Len(); got != 200 {
		t.Errorf("recovered rows = %d", got)
	}
}

func TestQuarantineTornTail(t *testing.T) {
	fs := wal.NewMemFS()
	db := newDurDB(t)
	if _, err := db.EnableDurability(fs, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ins(t, db, "DIRECTOR", value.NewInt(int64(i)), value.NewText(fmt.Sprintf("d%d", i)), value.NewNull())
	}
	logBytes := fs.Bytes(WALFileName)
	records, tail := wal.Scan(logBytes)
	if tail != nil || len(records) != 10 {
		t.Fatalf("log: %d records, tail %v", len(records), tail)
	}
	// Crash: the last record's bytes half-reached the disk.
	crashed := fs.Clone()
	crashed.Truncate(WALFileName, records[9].Off+3)

	db2 := newDurDB(t)
	report, err := db2.EnableDurability(crashed, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Clean() {
		t.Fatal("torn log reported clean")
	}
	if report.ReplayedBatches != 9 || report.LostBatches != 1 {
		t.Errorf("replayed=%d lost=%d", report.ReplayedBatches, report.LostBatches)
	}
	if got := db2.Table("DIRECTOR").Len(); got != 9 {
		t.Errorf("rows = %d, want the 9 committed", got)
	}
	if report.CorruptFile != CorruptFileName || report.QuarantinedBytes != 3 {
		t.Errorf("quarantine: %+v", report)
	}
	sidecar := crashed.Bytes(CorruptFileName)
	if len(sidecar) != 3 {
		t.Errorf("sidecar holds %d bytes", len(sidecar))
	}
	// The rewritten log is clean and ends exactly at the valid prefix.
	rewritten := crashed.Bytes(WALFileName)
	if recs, tl := wal.Scan(rewritten); tl != nil || len(recs) != 0 {
		// The reopen checkpointed-on-boot only when no checkpoint existed;
		// here one did, so the log still holds the 9 records.
		if tl != nil || len(recs) != 9 {
			t.Errorf("rewritten log: %d records, tail %v", len(recs), tl)
		}
	}
	// A third boot replays the rewritten log without complaint.
	db3 := newDurDB(t)
	report3, err := db3.EnableDurability(crashed, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report3.Clean() {
		t.Errorf("second recovery not clean: %+v", report3)
	}
	if fingerprint(t, db3) != fingerprint(t, db2) {
		t.Error("second recovery diverges from first")
	}
}

func TestBitFlipQuarantine(t *testing.T) {
	fs := wal.NewMemFS()
	db := newDurDB(t)
	if _, err := db.EnableDurability(fs, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ins(t, db, "DIRECTOR", value.NewInt(int64(i)), value.NewText("n"), value.NewNull())
	}
	records, _ := wal.Scan(fs.Bytes(WALFileName))
	// Flip a payload bit of the middle record: records 2..4 become the tail.
	crashed := fs.Clone()
	crashed.FlipBit(WALFileName, records[2].Off+9, 0x10)
	db2 := newDurDB(t)
	report, err := db2.EnableDurability(crashed, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.ReplayedBatches != 2 || report.LostBatches != 3 {
		t.Errorf("replayed=%d lost=%d (want 2/3)", report.ReplayedBatches, report.LostBatches)
	}
	if report.TailReason != "checksum mismatch" {
		t.Errorf("reason %q", report.TailReason)
	}
	if got := db2.Table("DIRECTOR").Len(); got != 2 {
		t.Errorf("rows = %d", got)
	}
}

func TestShortReadSalvagesPrefix(t *testing.T) {
	mem := wal.NewMemFS()
	db := newDurDB(t)
	if _, err := db.EnableDurability(mem, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ins(t, db, "DIRECTOR", value.NewInt(int64(i)), value.NewText("s"), value.NewNull())
	}
	records, _ := wal.Scan(mem.Bytes(WALFileName))
	ffs := wal.NewFaultFS(mem.Clone())
	// Readers of the log see only the first five records and then an I/O
	// error — recovery must treat it like a torn log, not fail.
	ffs.ShortRead(WALFileName, records[5].Off)
	db2 := newDurDB(t)
	report, err := db2.EnableDurability(ffs, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.ReplayedBatches != 5 {
		t.Errorf("replayed %d, want 5", report.ReplayedBatches)
	}
	if report.Clean() {
		t.Error("short read reported clean")
	}
	if got := db2.Table("DIRECTOR").Len(); got != 5 {
		t.Errorf("rows = %d", got)
	}
}

// TestCheckpointWALOverlap simulates the crash window between the checkpoint
// rename and the log truncation: the checkpoint already covers every record
// still sitting in the log, and replay must skip them all.
func TestCheckpointWALOverlap(t *testing.T) {
	fs := wal.NewMemFS()
	db := newDurDB(t)
	if _, err := db.EnableDurability(fs, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		ins(t, db, "DIRECTOR", value.NewInt(int64(i)), value.NewText(fmt.Sprintf("d%d", i)), value.NewNull())
	}
	oldLog := fs.Bytes(WALFileName)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, db)
	// Un-truncate the log: the disk now looks as if the crash hit right
	// after the rename.
	f, err := fs.Create(WALFileName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(oldLog); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2 := newDurDB(t)
	report, err := db2.EnableDurability(fs, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.SkippedBatches != 7 || report.ReplayedBatches != 0 {
		t.Errorf("skipped=%d replayed=%d", report.SkippedBatches, report.ReplayedBatches)
	}
	if got := fingerprint(t, db2); got != want {
		t.Errorf("overlap recovery diverges:\n--- want\n%s\n--- got\n%s", want, got)
	}
	// New writes after recovery continue the sequence without clashing.
	ins(t, db2, "DIRECTOR", value.NewInt(100), value.NewText("after"), value.NewNull())
	db3 := newDurDB(t)
	if _, err := db3.EnableDurability(fs, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := db3.Table("DIRECTOR").Len(); got != 8 {
		t.Errorf("rows = %d", got)
	}
}

func TestCorruptCheckpointRefuses(t *testing.T) {
	fs := wal.NewMemFS()
	db := newDurDB(t)
	seedVariety(t, db)
	if _, err := db.EnableDurability(fs, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(fs.Bytes(CheckpointFileName)); off += 97 {
		crashed := fs.Clone()
		crashed.FlipBit(CheckpointFileName, off, 0x04)
		db2 := newDurDB(t)
		if _, err := db2.EnableDurability(crashed, DurableOptions{}); err == nil {
			t.Fatalf("flip at %d: corrupt checkpoint accepted", off)
		}
	}
	// Truncated checkpoints refuse too (never panic).
	for _, cut := range []int{0, 1, 7, 100} {
		crashed := fs.Clone()
		crashed.Truncate(CheckpointFileName, cut)
		db2 := newDurDB(t)
		if _, err := db2.EnableDurability(crashed, DurableOptions{}); err == nil {
			t.Fatalf("cut at %d: truncated checkpoint accepted", cut)
		}
	}
}

func TestEnableDurabilityRejectsNonEmptyWithState(t *testing.T) {
	fs := wal.NewMemFS()
	db := newDurDB(t)
	if _, err := db.EnableDurability(fs, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	ins(t, db, "DIRECTOR", value.NewInt(1), value.NewText("a"), value.NewNull())

	seeded := newDurDB(t)
	ins(t, seeded, "DIRECTOR", value.NewInt(2), value.NewText("b"), value.NewNull())
	if _, err := seeded.EnableDurability(fs, DurableOptions{}); err == nil {
		t.Fatal("seeded database adopted a directory with existing state")
	}
	if _, err := db.EnableDurability(fs, DurableOptions{}); err == nil {
		t.Fatal("double enable accepted")
	}
}

func TestDurabilityStatsCounters(t *testing.T) {
	fs := wal.NewMemFS()
	db := newDurDB(t)
	if _, ok := db.DurabilityStats(); ok {
		t.Fatal("in-memory database reported durability stats")
	}
	report, err := db.EnableDurability(fs, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Fresh {
		t.Errorf("fresh directory not reported fresh: %+v", report)
	}
	for i := 0; i < 4; i++ {
		ins(t, db, "DIRECTOR", value.NewInt(int64(i)), value.NewText("c"), value.NewNull())
	}
	st, ok := db.DurabilityStats()
	if !ok {
		t.Fatal("not durable")
	}
	if st.Batches != 4 || st.Ops != 4 || st.Syncs != 4 || st.LastSeq != 4 {
		t.Errorf("counters: %+v", st)
	}
	if st.Checkpoints != 1 || st.WALBytes == 0 {
		t.Errorf("checkpoints=%d walBytes=%d", st.Checkpoints, st.WALBytes)
	}
	if st.Recovery != report {
		t.Error("stats lost the recovery report")
	}
	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.DurabilityStats(); ok {
		t.Error("stats survive close")
	}
}

// craftRecord frames seq + opCount + ops as one WAL record and appends it to
// the log, bypassing the durability layer — the forgery the atomicity tests
// replay.
func craftRecord(t *testing.T, fs wal.FS, seq uint64, opCount int, ops []byte) {
	t.Helper()
	payload := appendUvarint(nil, seq)
	payload = appendUvarint(payload, uint64(opCount))
	appendRecord(t, fs, append(payload, ops...))
}

// appendRecord frames a record payload onto the log in fs.
func appendRecord(t *testing.T, fs wal.FS, payload []byte) {
	t.Helper()
	f, err := fs.OpenAppend(WALFileName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(wal.AppendRecord(nil, payload)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPartialBatchReplayAtomicity plants a record that checksums but fails
// mid-batch — first on decode, then on apply. The record is one statement
// batch, the unit of recovery atomicity: none of its ops may survive, even
// the ones that applied before the failure.
func TestPartialBatchReplayAtomicity(t *testing.T) {
	setup := func(t *testing.T) *wal.MemFS {
		fs := wal.NewMemFS()
		db := newDurDB(t)
		if _, err := db.EnableDurability(fs, DurableOptions{}); err != nil {
			t.Fatal(err)
		}
		ins(t, db, "DIRECTOR", value.NewInt(1), value.NewText("a"), value.NewNull())
		ins(t, db, "DIRECTOR", value.NewInt(2), value.NewText("b"), value.NewNull())
		if err := db.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	goodInsert := func(id int64) []byte {
		var sd durability
		sd.logInsert("DIRECTOR", Tuple{value.NewInt(id), value.NewText("phantom"), value.NewNull()})
		return sd.pending
	}
	check := func(t *testing.T, fs *wal.MemFS, want string) {
		db2 := newDurDB(t)
		report, err := db2.EnableDurability(fs, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if report.Clean() || report.LostBatches != 1 {
			t.Errorf("report: %+v", report)
		}
		if report.ReplayedBatches != 2 {
			t.Errorf("replayed = %d, want the 2 good records", report.ReplayedBatches)
		}
		if got := db2.Table("DIRECTOR").Len(); got != 2 {
			t.Errorf("rows = %d: a partially applied batch survived recovery", got)
		}
		if rows, _ := db2.Table("DIRECTOR").LookupPK(Tuple{value.NewInt(50)}); rows != nil {
			t.Error("the broken record's first op survived recovery")
		}
		if got := fingerprint(t, db2); got != want {
			t.Errorf("rolled-back state diverges from the good prefix:\n--- want\n%s\n--- got\n%s", want, got)
		}
	}
	// The expected post-recovery state: exactly the two committed inserts.
	wantOf := func(t *testing.T, fs *wal.MemFS) string {
		db := newDurDB(t)
		if _, err := db.EnableDurability(fs, DurableOptions{}); err != nil {
			t.Fatal(err)
		}
		return fingerprint(t, db)
	}

	t.Run("decode failure mid-batch", func(t *testing.T) {
		fs := setup(t)
		want := wantOf(t, fs.Clone())
		// Two ops promised: a valid insert, then an unknown op byte.
		craftRecord(t, fs, 3, 2, append(goodInsert(50), 0xEE))
		check(t, fs, want)
	})
	t.Run("apply failure mid-batch", func(t *testing.T) {
		fs := setup(t)
		want := wantOf(t, fs.Clone())
		// A valid insert, then an insert that collides with committed row 1.
		craftRecord(t, fs, 3, 2, append(goodInsert(50), goodInsert(1)...))
		check(t, fs, want)
	})
	// Keyed UPDATE and DELETE records replay through UpdateAt / DeleteAt: a
	// record whose later op names a position the table does not have, or
	// forges a duplicate key, must take its earlier, applied ops back out.
	keyedUpdate := func(pos int, id int64, name string) []byte {
		var sd durability
		sd.logUpdate("DIRECTOR", []int{pos}, []int{0, 1, 2}, []value.Value{value.NewInt(id), value.NewText(name), value.NewNull()}, 1)
		return sd.pending
	}
	keyedDelete := func(positions ...int) []byte {
		var sd durability
		sd.logDelete("DIRECTOR", positions)
		return sd.pending
	}
	for _, tc := range []struct {
		name string
		ops  [][]byte
	}{
		{"keyed update then delete past the table", [][]byte{goodInsert(50), keyedUpdate(0, 1, "renamed"), keyedDelete(7)}},
		{"keyed delete then update past the table", [][]byte{goodInsert(50), keyedDelete(1), keyedUpdate(2, 9, "ghost")}},
		{"keyed delete with descending positions", [][]byte{goodInsert(50), keyedDelete(1, 0)}},
		{"keyed update onto a taken key", [][]byte{goodInsert(50), keyedUpdate(0, 7, "moved"), keyedUpdate(1, 7, "forged")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := setup(t)
			want := wantOf(t, fs.Clone())
			var ops []byte
			for _, op := range tc.ops {
				ops = append(ops, op...)
			}
			craftRecord(t, fs, 3, len(tc.ops), ops)
			check(t, fs, want)
		})
	}
}

// TestUpdateRefusesDuplicatePrimaryKey is the regression test for UPDATE
// forging a duplicate key: a replacement whose new key belongs to another
// row is refused like INSERT refuses it, before the row mutates; the rows the
// statement replaced earlier stay replaced, in memory and across a crash and
// replay, and the key probe and a scan agree on what the table holds.
func TestUpdateRefusesDuplicatePrimaryKey(t *testing.T) {
	fs := wal.NewMemFS()
	db := newDurDB(t)
	if _, err := db.EnableDurability(fs, DurableOptions{CheckpointBytes: -1}); err != nil {
		t.Fatal(err)
	}
	for i := int64(100); i < 104; i++ {
		ins(t, db, "DIRECTOR", value.NewInt(i), value.NewText(fmt.Sprintf("d%d", i)), value.NewNull())
	}
	// 101 -> 200 is free and applies; 102 -> 100 is taken and stops the
	// statement; 103 is never reached.
	targets := map[int64]int64{101: 200, 102: 100, 103: 300}
	n, err := db.Update("DIRECTOR",
		func(tup Tuple) bool { return targets[tup[0].Int()] != 0 },
		func(tup Tuple) Tuple { tup[0] = value.NewInt(targets[tup[0].Int()]); return tup })
	if err == nil || !strings.Contains(err.Error(), "duplicate primary key 100 in DIRECTOR") {
		t.Fatalf("update onto a taken key: n=%d err=%v", n, err)
	}
	if n != 1 {
		t.Fatalf("rows replaced before the refusal = %d, want 1", n)
	}
	verify := func(db *Database, when string) {
		t.Helper()
		tbl := db.Table("DIRECTOR")
		var ids []int64
		for _, tup := range tbl.Tuples() {
			ids = append(ids, tup[0].Int())
		}
		if fmt.Sprint(ids) != "[100 200 102 103]" {
			t.Fatalf("%s: scan sees ids %v", when, ids)
		}
		for _, id := range ids {
			row, ok := tbl.LookupPK(Tuple{value.NewInt(id)})
			if !ok || row[0].Int() != id {
				t.Fatalf("%s: key probe for %d = %v, %v", when, id, row, ok)
			}
		}
		if row, ok := tbl.LookupPK(Tuple{value.NewInt(100)}); !ok || row[1].Text() != "d100" {
			t.Fatalf("%s: key 100 resolves to %v", when, row)
		}
		if _, ok := tbl.LookupPK(Tuple{value.NewInt(101)}); ok {
			t.Fatalf("%s: the old key 101 still resolves", when)
		}
	}
	verify(db, "live")

	crashed := newDurDB(t)
	report, err := crashed.EnableDurability(fs.Clone(), DurableOptions{CheckpointBytes: -1})
	if err != nil || !report.Clean() {
		t.Fatalf("replay: %v %+v", err, report)
	}
	verify(crashed, "after crash and replay")
	if got, want := fingerprint(t, crashed), fingerprint(t, db); got != want {
		t.Fatalf("replayed state diverges:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestConcurrentRawWriters hammers the raw Insert API from several
// goroutines on a durable database with a tiny checkpoint threshold, so
// commits, buffer snapshots, and log rotations interleave. Run under -race
// in CI, it enforces what used to be only a comment: the pending buffer and
// the writer survive concurrent raw-API use.
func TestConcurrentRawWriters(t *testing.T) {
	fs := wal.NewMemFS()
	db := newDurDB(t)
	if _, err := db.EnableDurability(fs, DurableOptions{CheckpointBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 25
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < each; i++ {
				id := int64(w*each + i)
				if err := db.Insert("DIRECTOR", Tuple{value.NewInt(id), value.NewText("c"), value.NewNull()}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Table("DIRECTOR").Len(); got != writers*each {
		t.Fatalf("rows = %d, want %d", got, writers*each)
	}
	st, ok := db.DurabilityStats()
	if !ok || st.Ops != writers*each {
		t.Fatalf("stats: ok=%v ops=%d", ok, st.Ops)
	}
	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	// Every acknowledged insert is recoverable.
	db2 := newDurDB(t)
	report, err := db2.EnableDurability(fs, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("recovery not clean: %+v", report)
	}
	if got := db2.Table("DIRECTOR").Len(); got != writers*each {
		t.Errorf("recovered rows = %d, want %d", got, writers*each)
	}
}

// spliceRecords joins two consecutive commit records into the one record an
// older log, or two raw writers sharing a flush, can hold: the first record's
// sequence, the two op counts summed, the ops concatenated.
func spliceRecords(t testing.TB, first, second []byte) []byte {
	t.Helper()
	a, b := &walDecoder{buf: first}, &walDecoder{buf: second}
	seq, na := a.uvarint(), a.uvarint()
	b.uvarint()
	nb := b.uvarint()
	if a.err != nil || b.err != nil {
		t.Fatalf("splicing records: %v, %v", a.err, b.err)
	}
	out := appendUvarint(nil, seq)
	out = appendUvarint(out, na+nb)
	out = append(out, first[a.off:]...)
	return append(out, second[b.off:]...)
}

// TestMixedKindRecordReplay pins that a record mixing op kinds — a keyed
// UPDATE and a keyed DELETE in one record, which a statement no longer
// writes but an older log or two raw writers sharing one flush can hold —
// recovers to exactly the state its two one-statement records do.
func TestMixedKindRecordReplay(t *testing.T) {
	fs := wal.NewMemFS()
	db := newDurDB(t)
	if _, err := db.EnableDurability(fs, DurableOptions{CheckpointBytes: -1}); err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 6; id++ {
		ins(t, db, "DIRECTOR", value.NewInt(id), value.NewText(fmt.Sprintf("d-%d", id)), value.NewNull())
	}
	ctx := context.Background()
	renamed := value.NewText("renamed")
	if n, err := db.UpdateAt(ctx, "DIRECTOR", []int{1, 3}, []int{1}, []value.Value{renamed, renamed}); err != nil || n != 2 {
		t.Fatalf("keyed update: n=%d err=%v", n, err)
	}
	if n, err := db.DeleteAt(ctx, "DIRECTOR", []int{2, 3}); err != nil || n != 2 {
		t.Fatalf("keyed delete: n=%d err=%v", n, err)
	}
	want := fingerprint(t, db)
	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	records, tail := wal.Scan(fs.Bytes(WALFileName))
	if tail != nil || len(records) != 8 {
		t.Fatalf("log holds %d records (tail %+v), want 8", len(records), tail)
	}
	update, del := records[6], records[7]

	disk := fs.Clone()
	disk.Truncate(WALFileName, update.Off)
	appendRecord(t, disk, spliceRecords(t, update.Payload, del.Payload))
	db2 := newDurDB(t)
	report, err := db2.EnableDurability(disk, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() || report.ReplayedBatches != 7 || report.ReplayedOps != 8 {
		t.Fatalf("report: %+v, want a clean replay of 7 records and 8 ops", report)
	}
	if got := fingerprint(t, db2); got != want {
		t.Errorf("the mixed record recovers elsewhere than its two records:\n--- want\n%s\n--- got\n%s", want, got)
	}
}
