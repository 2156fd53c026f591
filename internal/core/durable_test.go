package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/wal"
)

func durableMovieSystem(t *testing.T, fs wal.FS) (*System, *storage.RecoveryReport) {
	t.Helper()
	var db *storage.Database
	var err error
	if storage.HasDurableState(fs) {
		db, err = storage.NewDatabase(dataset.MovieSchema())
	} else {
		db, err = dataset.CuratedMovieDB()
	}
	if err != nil {
		t.Fatal(err)
	}
	sys, report, err := NewDurable(db, fs, storage.DurableOptions{}, MovieConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys, report
}

func askCount(t *testing.T, s *System, sql string) string {
	t.Helper()
	resp, err := s.Ask(sql)
	if err != nil {
		t.Fatalf("ask %q: %v", sql, err)
	}
	return resp.Answer
}

// TestDurableAskSurvivesRestart drives DML through the full Ask loop, drops
// the System, and rebuilds it from the same disk: the acknowledged
// statements must be there.
func TestDurableAskSurvivesRestart(t *testing.T) {
	fs := wal.NewMemFS()
	sys, report := durableMovieSystem(t, fs)
	if !report.Fresh {
		t.Fatalf("first boot should be fresh: %+v", report)
	}
	if _, err := sys.Ask("insert into MOVIES (id, title, year) values (999, 'Crash Proof', 2026)"); err != nil {
		t.Fatal(err)
	}
	if resp, err := sys.Ask("delete from GENRE g where g.genre = 'adventure'"); err != nil {
		t.Fatal(err)
	} else if resp.Affected != 3 {
		t.Fatalf("delete affected %d", resp.Affected)
	}
	if _, err := sys.Ask("update MOVIES m set year = 2027 where m.id = 999"); err != nil {
		t.Fatal(err)
	}
	before := askCount(t, sys, "select m.title, m.year from MOVIES m where m.id = 999")

	sys2, report2 := durableMovieSystem(t, fs)
	if report2.Fresh {
		t.Fatal("second boot should recover, not reseed")
	}
	if report2.ReplayedBatches == 0 && report2.CheckpointRows == 0 {
		t.Fatalf("nothing recovered: %+v", report2)
	}
	if !report2.Clean() {
		t.Fatalf("clean shutdown recovered dirty: %+v", report2)
	}
	after := askCount(t, sys2, "select m.title, m.year from MOVIES m where m.id = 999")
	if before != after {
		t.Fatalf("answer diverged across restart:\nbefore: %s\nafter:  %s", before, after)
	}
	if !strings.Contains(after, "2027") {
		t.Fatalf("update lost: %s", after)
	}
	if ans := askCount(t, sys2, "select g.genre from GENRE g where g.genre = 'adventure'"); !strings.Contains(ans, "no ") {
		t.Fatalf("delete lost: %s", ans)
	}
}

// TestDurableUpdateWithSetSubquery: an UPDATE whose SET holds a subquery
// returns through AskContext on a durable database — the subquery reads the
// pre-statement version, not the tables the statement holds locked — and
// recovery replays it to the same state.
func TestDurableUpdateWithSetSubquery(t *testing.T) {
	fs := wal.NewMemFS()
	sys, _ := durableMovieSystem(t, fs)
	const upd = "update MOVIES set year = (select max(m2.year) from MOVIES m2) where id = 100"
	done := make(chan error, 1)
	go func() {
		_, err := sys.AskContext(context.Background(), upd)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("UPDATE with a SET subquery did not return")
	}
	// A later write is not stuck behind it.
	if _, err := sys.Ask("update MOVIES set title = 'After' where id = 101"); err != nil {
		t.Fatal(err)
	}
	const probe = "select m.id, m.title, m.year from MOVIES m where m.id >= 100 and m.id <= 101 order by m.id"
	before := askCount(t, sys, probe)
	if !strings.Contains(before, "2008") {
		t.Fatalf("movie 100 not set to the pre-statement maximum: %s", before)
	}
	sys2, report := durableMovieSystem(t, fs)
	if report.Fresh || report.ReplayedBatches == 0 {
		t.Fatalf("second boot replayed nothing: %+v", report)
	}
	if after := askCount(t, sys2, probe); after != before {
		t.Fatalf("recovery diverged:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestAskFsyncFailureSurfaces: when the WAL fsync fails, Ask must return the
// error instead of acknowledging — the client never hears "Done" for a
// statement that is not on disk.
func TestAskFsyncFailureSurfaces(t *testing.T) {
	ffs := wal.NewFaultFS(wal.NewMemFS())
	sys, _ := durableMovieSystem(t, ffs)
	ffs.FailSyncsAfter(0)
	_, err := sys.Ask("insert into MOVIES (id, title, year) values (998, 'Lost', 2026)")
	if !errors.Is(err, wal.ErrInjectedSync) {
		t.Fatalf("Ask acknowledged an unsynced statement: %v", err)
	}
	ffs.ClearFaults()
	// Queries still work and the system stays up.
	if ans := askCount(t, sys, "select m.title from MOVIES m where m.id = 998"); ans == "" {
		t.Fatal("query after failed DML")
	}
}

// TestSystemCheckpoint: a facade-level checkpoint truncates the log so the
// next boot replays nothing.
func TestSystemCheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	sys, _ := durableMovieSystem(t, fs)
	if _, err := sys.Ask("insert into MOVIES (id, title, year) values (997, 'Folded', 2026)"); err != nil {
		t.Fatal(err)
	}
	st, ok := sys.DurabilityStats()
	if !ok || st.WALBytes == 0 {
		t.Fatalf("expected pending WAL bytes: ok=%v stats=%+v", ok, st)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ = sys.DurabilityStats()
	if st.WALBytes != 0 {
		t.Fatalf("checkpoint left %d WAL bytes", st.WALBytes)
	}
	_, report := durableMovieSystem(t, fs)
	if report.ReplayedBatches != 0 || report.SkippedBatches != 0 {
		t.Fatalf("post-checkpoint boot replayed: %+v", report)
	}
	if report.CheckpointRows == 0 {
		t.Fatalf("checkpoint restored no rows: %+v", report)
	}
}

// TestDurabilityStatsAbsentInMemory: a plain in-memory System reports no
// durability stats.
func TestDurabilityStatsAbsentInMemory(t *testing.T) {
	sys, err := NewMovieSystem()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.DurabilityStats(); ok {
		t.Fatal("in-memory system claims durability stats")
	}
}
