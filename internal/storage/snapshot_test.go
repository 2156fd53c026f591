package storage

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/value"
	"repro/internal/wal"
)

// snapDump fingerprints the state visible through a snapshot: every table's
// rows in insertion order, materialized through the frozen columns.
func snapDump(s *Snapshot) string {
	var sb strings.Builder
	for _, name := range s.TableNames() {
		sb.WriteString("== " + name + "\n")
		for _, tup := range s.Table(name).Tuples() {
			for i, v := range tup {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(v.Key())
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestSnapshotTuplesCacheIsolation pins the Tuple compatibility surface under
// MVCC: a frozen table's materialized rows are its own, and live writes never
// leak into them.
func TestSnapshotTuplesCacheIsolation(t *testing.T) {
	db := newDurDB(t)
	for i := 0; i < 5; i++ {
		if err := db.Insert("DIRECTOR", Tuple{
			value.NewInt(int64(i)), value.NewText(fmt.Sprintf("dir-%d", i)), value.NewDateDays(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	snap1 := db.Snapshot()
	frozen := snap1.Table("DIRECTOR")
	first := frozen.Tuples()
	if len(first) != 5 {
		t.Fatalf("snapshot sees %d rows, want 5", len(first))
	}

	// Mutate the live table every way that could disturb shared vectors:
	// append past the frozen length, COW-update a frozen row, delete.
	for i := 5; i < 10; i++ {
		if err := db.Insert("DIRECTOR", Tuple{
			value.NewInt(int64(i)), value.NewText(fmt.Sprintf("dir-%d", i)), value.NewNull(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Update("DIRECTOR",
		func(tup Tuple) bool { return tup[0].Int() == 0 },
		func(tup Tuple) Tuple { tup[1] = value.NewText("renamed"); return tup }); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("DIRECTOR", func(tup Tuple) bool { return tup[0].Int() == 3 }); err != nil {
		t.Fatal(err)
	}

	third := frozen.Tuples()
	if got := third[0][1].Text(); got != "dir-0" {
		t.Fatalf("live update leaked into the pinned snapshot: row 0 name %q", got)
	}
	if len(third) != 5 {
		t.Fatalf("pinned snapshot length changed to %d", len(third))
	}

	// The new version sees everything.
	snap2 := db.Snapshot()
	if snap2 == snap1 {
		t.Fatal("writes did not publish a new version")
	}
	now := snap2.Table("DIRECTOR").Tuples()
	if len(now) != 9 {
		t.Fatalf("current snapshot sees %d rows, want 9", len(now))
	}
	if got := now[0][1].Text(); got != "renamed" {
		t.Fatalf("current snapshot missed the update: row 0 name %q", got)
	}
}

// TestFailedCommitInstallsNoVersion closes the seal/install window from the
// failure side: when the WAL fsync fails, the version built for the record
// must never install — readers keep the last acknowledged state, the
// published counter does not move, and the layer latches.
func TestFailedCommitInstallsNoVersion(t *testing.T) {
	fs := wal.NewFaultFS(wal.NewMemFS())
	db := newDurDB(t)
	if _, err := db.EnableDurability(fs, DurableOptions{CheckpointBytes: -1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := db.Insert("DIRECTOR", Tuple{
			value.NewInt(int64(i)), value.NewText(fmt.Sprintf("dir-%d", i)), value.NewNull(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Snapshot()
	pubBefore := db.Published()
	want := snapDump(before)

	fs.FailSyncsAfter(0)
	err := db.Insert("DIRECTOR", Tuple{value.NewInt(99), value.NewText("phantom"), value.NewNull()})
	if err == nil {
		t.Fatal("insert acknowledged despite fsync failure")
	}

	if db.Snapshot() != before {
		t.Fatal("failed commit installed a version the log never acknowledged")
	}
	if db.Published() != pubBefore {
		t.Fatalf("published counter moved on a failed commit: %d -> %d", pubBefore, db.Published())
	}
	if got := snapDump(db.Snapshot()); got != want {
		t.Fatalf("reader-visible state changed across a failed commit:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if err := db.Insert("DIRECTOR", Tuple{value.NewInt(100), value.NewText("after"), value.NewNull()}); err == nil {
		t.Fatal("writes not latched after fsync failure")
	}
}

// TestCrashMatrixSealInstallWindow extends the crash matrix to the MVCC
// commit's last window: the record fsynced into the log ("sealed") but the
// process gone before installVersion made it visible to readers. Install is
// volatile — the disk after a completed commit is byte-identical to a crash
// inside that window — so recovering a clone taken after any workload prefix
// must land exactly on the state of the version the crashed process had (or
// was about to have) installed, at the same committed sequence.
func TestCrashMatrixSealInstallWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	steps := matrixWorkload(rng)

	fs := wal.NewMemFS()
	live := newDurDB(t)
	if _, err := live.EnableDurability(fs, DurableOptions{CheckpointBytes: -1}); err != nil {
		t.Fatal(err)
	}
	for i, step := range steps {
		step.apply(t, live)
		if i%5 != 0 {
			continue
		}
		disk := fs.Clone()
		db2 := newDurDB(t)
		if _, err := db2.EnableDurability(disk, DurableOptions{CheckpointBytes: -1}); err != nil {
			t.Fatalf("recovery after step %d: %v", i, err)
		}
		if got, want := matrixPrint(t, db2), matrixPrint(t, live); got != want {
			t.Fatalf("step %d: seal/install-window recovery diverges from the installed version\n--- want\n%s\n--- got\n%s", i, want, got)
		}
		if got, want := db2.Snapshot().Seq(), live.Snapshot().Seq(); got != want {
			t.Fatalf("step %d: recovered snapshot seq %d, live %d", i, got, want)
		}
		if got, want := snapDump(db2.Snapshot()), snapDump(live.Snapshot()); got != want {
			t.Fatalf("step %d: recovered snapshot contents diverge\n--- want\n%s\n--- got\n%s", i, want, got)
		}
	}
}

// viewPrint renders everything a reader can ask of one table view: every row
// by position, a primary-key probe per row, the statistics, every zone's
// bounds, and a checksum of the frame-of-reference decode.
func viewPrint(tbl *Table) string {
	var sb strings.Builder
	for i := 0; i < tbl.Len(); i++ {
		row := tbl.Tuple(i)
		got, ok := tbl.LookupPK(Tuple{row[0]})
		fmt.Fprintf(&sb, "%d %s pk=%v %s\n", i, row, ok, got)
	}
	st := tbl.Stats()
	fmt.Fprintf(&sb, "rows=%d zones=%d\n", st.Rows, st.Zones)
	for i, a := range st.Attrs {
		fmt.Fprintf(&sb, "  %d nonNull=%d distinct=%d min=%s max=%s\n", i, a.NonNull, a.Distinct, a.Min, a.Max)
	}
	for p := range tbl.cols {
		col := tbl.Col(p)
		fmt.Fprintf(&sb, "col %d synced=%v", p, col.ZonesSynced(tbl.Len()))
		for z := 0; z < col.ZoneCount(); z++ {
			il, ih, iok := col.ZoneIntBounds(z)
			fl, fh, fok := col.ZoneFloatBounds(z)
			tl, th, tok := col.ZoneTextBounds(z)
			fmt.Fprintf(&sb, " [n=%d %d:%d:%v %g:%g:%v %q:%q:%v]",
				col.ZoneNulls(z), il, ih, iok, fl, fh, fok, tl, th, tok)
		}
		if base, delta, ok := col.FORInts(); ok {
			var sum int64
			for i := 0; i < tbl.Len(); i++ {
				if !col.Null(i) {
					sum = sum*31 + base[i>>ZoneShift] + int64(delta[i>>ZoneShift][i&ZoneMask])
				}
			}
			fmt.Fprintf(&sb, " for=%d", sum)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// pkPageEdgeRow returns the row whose primary-key entry sits in the last slot
// of a page while the next page's first slot holds an entry displaced from
// its home: removing the row shifts that entry back across the page boundary.
// It returns -1 when no cluster straddles a page boundary.
func pkPageEdgeRow(tbl *Table) int {
	mask := tbl.pk.size - 1
	for s := pkPageSlots - 1; s+1 < tbl.pk.size; s += pkPageSlots {
		e, next := tbl.pk.at(s), tbl.pk.at(s+1)
		if e != 0 && next != 0 && int(entryHash(next))&mask != s+1 {
			return entryPos(e)
		}
	}
	return -1
}

// TestPinnedSnapshotSurvivesKeyedDML pins a snapshot, then runs a keyed
// UPDATE (key-preserving and key-changing) or DELETE against the head, the
// middle, both sides of a zone boundary, a primary-key entry whose removal
// shifts another across a slot-page boundary, and the tail of the live table,
// followed — in the same storage call, so no freeze re-arms the
// copy-on-write flags in between — by inserts that grow the primary key and
// rebase the frame-of-reference chunk the view shares. The first statement's
// inserts run on until the primary-key slot array the view shares has to
// grow. The pinned view must answer every probe, scan, statistic and zone
// bound exactly as before — while a concurrent reader keeps asking, which
// under -race is what catches a key page or a chunk patched in place instead
// of copied.
func TestPinnedSnapshotSurvivesKeyedDML(t *testing.T) {
	db, err := NewDatabase(columnarTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.EnableDurability(wal.NewMemFS(), DurableOptions{CheckpointBytes: -1}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	nextID := int64(0)
	row := func(day int64) Tuple {
		nextID++
		n := value.NewNull()
		if rng.Intn(5) > 0 {
			n = value.NewInt(int64(rng.Intn(7)))
		}
		return Tuple{
			value.NewInt(nextID), n, value.NewFloat(float64(rng.Intn(9)) / 2),
			value.NewText(fmt.Sprintf("w-%d", rng.Intn(5))), value.NewDateDays(day), value.NewBool(rng.Intn(2) == 0),
		}
	}
	insert := func(day int64) {
		t.Helper()
		if err := db.Insert("T", row(day)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ZoneRows+300; i++ {
		insert(int64(100 + rng.Intn(20)))
	}
	lowDay := int64(99) // each round inserts a new minimum: a rebase of the partial chunk
	resized := false

	// A statement runs on the locked internals so the inserts can follow the
	// keyed write inside one storage call — as they do when two raw writers
	// share one commit.
	type dml struct {
		name  string
		apply func(tbl *Table, pos int) (int, error)
	}
	kinds := []dml{
		{"update", func(tbl *Table, pos int) (int, error) {
			return db.updateAtLocked(tbl, []int{pos}, []int{2}, []value.Value{value.NewFloat(-1)}, false)
		}},
		{"rekey", func(tbl *Table, pos int) (int, error) {
			nextID++
			return db.updateAtLocked(tbl, []int{pos}, []int{0, 1}, []value.Value{value.NewInt(nextID), value.NewInt(9)}, false)
		}},
		{"delete", func(tbl *Table, pos int) (int, error) { return db.deleteAtLocked(tbl, []int{pos}) }},
	}
	for _, kind := range kinds {
		for _, where := range []string{"head", "middle", "zone-end", "zone-start", "pk-page-edge", "tail"} {
			t.Run(kind.name+"/"+where, func(t *testing.T) {
				rows := db.Table("T").Len()
				pos := map[string]int{"head": 0, "middle": rows / 2, "zone-end": ZoneRows - 1, "zone-start": ZoneRows, "tail": rows - 1}[where]
				if where == "pk-page-edge" {
					// The hash seed is per process: add rows until a cluster
					// straddles a page boundary.
					for pos = pkPageEdgeRow(db.Table("T")); pos < 0; pos = pkPageEdgeRow(db.Table("T")) {
						insert(int64(100 + rng.Intn(20)))
					}
				}
				view := db.Snapshot().Table("T")
				want := viewPrint(view)

				stop := make(chan struct{})
				done := make(chan struct{})
				go func() {
					defer close(done)
					for {
						if got := viewPrint(view); got != want {
							t.Error("concurrent reader saw the pinned view change")
							return
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
				n, err := db.write(context.Background(), "T", func(live *Table) (int, error) {
					n, err := kind.apply(live, pos)
					slots := live.pk.size
					for i := 0; i < 3 || !resized; i++ {
						if _, err := db.insertRowsLocked(live, []Tuple{row(lowDay)}, false); err != nil {
							t.Error(err)
						}
						lowDay--
						resized = resized || live.pk.size != slots
					}
					return n, err
				})
				close(stop)
				<-done
				if err != nil || n != 1 {
					t.Fatalf("%s at %d: n=%d err=%v", kind.name, pos, n, err)
				}
				if got := viewPrint(view); got != want {
					t.Fatalf("pinned view changed after %s at position %d", kind.name, pos)
				}
				if now := viewPrint(db.Snapshot().Table("T")); now == want {
					t.Fatal("the statement is not visible to a fresh snapshot")
				}
			})
		}
	}
}
