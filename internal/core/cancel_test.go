package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/leakcheck"
	"repro/internal/querytotext"
	"repro/internal/simtest"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

func generatedMovieSystem(t *testing.T, movies int) *System {
	t.Helper()
	cfg := dataset.DefaultGenConfig()
	cfg.Movies = movies
	db, err := dataset.GenerateMovieDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sysCfg := MovieConfig()
	sysCfg.DisableCache = true      // every AskContext must really execute
	sysCfg.LargeThreshold = 1 << 30 // keep feedback probes out of poll counts
	sys, err := New(db, sysCfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestAskContextCancelMidQuery drives a SELECT through AskContext with a
// context that trips mid-execution: the call must return a narrated
// *engine.CancelError, count the read as cancelled (not completed), release
// the snapshot pin, and leave DrainReaders unblocked.
func TestAskContextCancelMidQuery(t *testing.T) {
	defer leakcheck.Check(t)()
	sys := generatedMovieSystem(t, 400)
	const q = `select m.title, a.name from MOVIES m, CAST c, ACTOR a
	           where m.id = c.mid and c.aid = a.id and m.year > 1950`

	// Count the query's polls, then cancel halfway.
	ctr := simtest.NewPollCancel(1 << 62)
	if _, err := sys.AskContext(ctr, q); err != nil {
		t.Fatalf("uncancelled run: %v", err)
	}
	polls := ctr.Polls()
	if polls < 2 {
		t.Fatalf("query polled only %d times; cannot cancel mid-flight", polls)
	}
	_, _, cancelledBefore := sys.ReaderStats()

	_, err := sys.AskContext(simtest.NewPollCancel(polls/2), q)
	if !engine.IsCancel(err) {
		t.Fatalf("mid-query cancel returned %v, want CancelError", err)
	}
	var ce *engine.CancelError
	errors.As(err, &ce)
	if text := querytotext.CancelEnglish(ce); !strings.Contains(text, "I stopped this query") {
		t.Fatalf("narration: %q", text)
	}

	inFlight, _, cancelledAfter := sys.ReaderStats()
	if inFlight != 0 {
		t.Fatalf("cancelled read still pinned: %d in flight", inFlight)
	}
	if cancelledAfter != cancelledBefore+1 {
		t.Fatalf("reads_cancelled %d, want %d", cancelledAfter, cancelledBefore+1)
	}
	// A deadline that passes mid-query trips CauseDeadline under either
	// request deadline, and the read counts as cancelled.
	const slow = `select count(*) from CAST c where c.aid > (select avg(c2.aid) from CAST c2 where c2.mid <> c.mid)`
	for _, dc := range deadlineContexts {
		ctx, cancel := dc.with(50 * time.Millisecond)
		_, _, before := sys.ReaderStats()
		_, err := sys.AskContext(ctx, slow)
		cancel()
		if !errors.As(err, &ce) || ce.Cause != engine.CauseDeadline {
			t.Fatalf("%s: query past its deadline returned %v, want a %s CancelError", dc.name, err, engine.CauseDeadline)
		}
		if _, _, after := sys.ReaderStats(); after != before+1 {
			t.Fatalf("%s: reads_cancelled %d, want %d", dc.name, after, before+1)
		}
	}

	// A wedged pin would hang here; returning at all is the assertion.
	sys.DrainReaders()
}

// deadlineContexts build a request deadline both ways: context.WithTimeout,
// and the RequestContext talkbackd's guard uses, whose timer the first Done
// arms.
var deadlineContexts = []struct {
	name string
	with func(time.Duration) (context.Context, func())
}{
	{"WithTimeout", func(d time.Duration) (context.Context, func()) {
		return context.WithTimeout(context.Background(), d)
	}},
	{"RequestContext", func(d time.Duration) (context.Context, func()) {
		c := NewRequestContext(context.Background(), d)
		return c, c.Cancel
	}},
}

// TestAskContextCancelledDMLNoTrace: a DML statement cancelled mid-flight
// through the full Ask pipeline leaves the database byte-identical to never
// having run.
func TestAskContextCancelledDMLNoTrace(t *testing.T) {
	defer leakcheck.Check(t)()
	const stmt = `update MOVIES m set year = year + 1 where m.year > 1900`

	// Poll count on a throwaway system.
	probe := generatedMovieSystem(t, 120)
	ctr := simtest.NewPollCancel(1 << 62)
	if _, err := probe.AskContext(ctr, stmt); err != nil {
		t.Fatal(err)
	}
	polls := ctr.Polls()

	sys := generatedMovieSystem(t, 120)
	before := dumpRel(t, sys, "MOVIES")
	for p := int64(0); p < polls; p++ {
		resp, err := sys.AskContext(simtest.NewPollCancel(p), stmt)
		if err == nil {
			// The trip landed after the last poll: the statement must have
			// applied fully. Put the table back for the next round.
			if resp.Affected == 0 {
				t.Fatalf("poll %d: completed update affected nothing", p)
			}
			if _, err := sys.Ask(`update MOVIES m set year = year - 1 where m.year > 1900`); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if !engine.IsCancel(err) {
			t.Fatalf("poll %d: %v", p, err)
		}
		if got := dumpRel(t, sys, "MOVIES"); got != before {
			t.Fatalf("cancel at poll %d left a trace in MOVIES", p)
		}
	}
}

// TestCancelNarrationLossFree: content narration runs under the request
// budget. Cancelled at every poll point of its queries, /entity and the
// database narrative return the uncancelled text or a CancelError with no
// text — never a partial paragraph — and every cancelled read is counted
// and releases its snapshot pin.
func TestCancelNarrationLossFree(t *testing.T) {
	defer leakcheck.Check(t)()
	sys := generatedMovieSystem(t, 400)
	narrations := map[string]func(ctx context.Context) (string, error){
		"director": func(ctx context.Context) (string, error) {
			return sys.DescribeEntityAsContext(ctx, "", "DIRECTOR", "id", value.NewInt(1))
		},
		"actor by name": func(ctx context.Context) (string, error) {
			name := sys.Database().Table("ACTOR").Tuple(7)[1]
			return sys.DescribeEntityAsContext(ctx, "", "ACTOR", "name", name)
		},
		"database": func(ctx context.Context) (string, error) {
			return sys.DescribeDatabaseAsContext(ctx, "", "MOVIES")
		},
	}
	for name, narrate := range narrations {
		ctr := simtest.NewPollCancel(1 << 62)
		want, err := narrate(ctr)
		if err != nil || want == "" {
			t.Fatalf("%s: uncancelled narration = %q, %v", name, want, err)
		}
		polls := ctr.Polls()
		if polls < 3 {
			t.Fatalf("%s polled its budget only %d times", name, polls)
		}
		_, _, cancelledBefore := sys.ReaderStats()
		var cancels uint64
		for p := int64(0); p <= polls; p++ {
			got, err := narrate(simtest.NewPollCancel(p))
			switch {
			case err == nil && got != want:
				t.Fatalf("%s, cancel at poll %d: narrative %q, want %q", name, p, got, want)
			case err != nil && !engine.IsCancel(err):
				t.Fatalf("%s, cancel at poll %d: %v", name, p, err)
			case err != nil && got != "":
				t.Fatalf("%s, cancel at poll %d: partial narrative %q beside %v", name, p, got, err)
			case err != nil && p > 0:
				cancels++ // poll 0 is refused before a snapshot is pinned
			}
		}
		if cancels == 0 {
			t.Fatalf("%s: no poll point cancelled the narration mid-flight", name)
		}
		inFlight, _, cancelledAfter := sys.ReaderStats()
		if inFlight != 0 || cancelledAfter != cancelledBefore+cancels {
			t.Fatalf("%s: %d reads in flight, reads_cancelled %d, want 0 and %d",
				name, inFlight, cancelledAfter, cancelledBefore+cancels)
		}
	}
	sys.DrainReaders()
}

func dumpRel(t *testing.T, sys *System, rel string) string {
	t.Helper()
	return fmt.Sprint(sys.Database().Table(rel).Tuples())
}

// TestAskRowQuota: the Config quota alone (no context) bounds a query and
// the refusal narrates the quota.
func TestAskRowQuota(t *testing.T) {
	cfg := dataset.DefaultGenConfig()
	cfg.Movies = 200
	db, err := dataset.GenerateMovieDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sysCfg := MovieConfig()
	sysCfg.MaxRowsScanned = 50
	sys, err := New(db, sysCfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Ask(`select m.title from MOVIES m where m.year > 1900`)
	var ce *engine.CancelError
	if !errors.As(err, &ce) || ce.Cause != engine.CauseRowQuota {
		t.Fatalf("quota-bounded Ask returned %v, want row-quota CancelError", err)
	}
}

// TestFeedbackQuotaNarrated: a row quota the query fits but its empty-answer
// feedback trips leaves the answer standing, counts the failed feedback, says
// in the feedback what stopped it, and keeps the response out of the cache.
func TestFeedbackQuotaNarrated(t *testing.T) {
	cfg := dataset.DefaultGenConfig()
	cfg.Movies = 200
	db, err := dataset.GenerateMovieDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sysCfg := MovieConfig()
	sysCfg.MaxRowsScanned = 300 // the query examines 200 rows, its re-run 200 more
	sys, err := New(db, sysCfg)
	if err != nil {
		t.Fatal(err)
	}
	const q = `select m.title from MOVIES m where m.year > 3000`
	for ask := 1; ask <= 2; ask++ {
		resp, err := sys.Ask(q)
		if err != nil {
			t.Fatalf("ask %d: the query fits its quota, got %v", ask, err)
		}
		if resp.Answer != "There are no results." {
			t.Fatalf("ask %d: answer %q", ask, resp.Answer)
		}
		if !strings.Contains(resp.Feedback, "could not finish the feedback") ||
			!strings.Contains(resp.Feedback, "quota of 300 rows examined") {
			t.Fatalf("ask %d: feedback %q does not narrate the quota", ask, resp.Feedback)
		}
		if got := sys.FeedbackFailures(); got != uint64(ask) {
			t.Fatalf("ask %d: %d feedback failures counted", ask, got)
		}
	}
	if hits := sys.CacheStats()["response"].Hits; hits != 0 {
		t.Fatalf("a response without its feedback was served from the cache %d times", hits)
	}
}

// TestAskContextWALStall: a WAL fsync that outlives the request deadline
// plus the grace window surfaces as a narrated wal-stall cancellation and
// latches the log against further writes — the record's fate on disk is
// unknown, so appending past it would risk silent loss.
func TestAskContextWALStall(t *testing.T) {
	for _, dc := range deadlineContexts {
		t.Run(dc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			ffs := wal.NewFaultFS(wal.NewMemFS())
			db, err := dataset.CuratedMovieDB()
			if err != nil {
				t.Fatal(err)
			}
			sys, _, err := NewDurable(db, ffs, storage.DurableOptions{SyncGrace: 20 * time.Millisecond}, MovieConfig())
			if err != nil {
				t.Fatal(err)
			}
			ffs.DelaySyncs(400 * time.Millisecond)
			ctx, cancel := dc.with(50 * time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err = sys.AskContext(ctx, "insert into MOVIES (id, title, year) values (998, 'Stalled', 2026)")
			var ce *engine.CancelError
			if !errors.As(err, &ce) || ce.Cause != engine.CauseWALStall {
				t.Fatalf("stalled commit returned %v, want wal-stall CancelError", err)
			}
			// The caller got an answer bounded by deadline + grace, not by the disk.
			if waited := time.Since(start); waited > 300*time.Millisecond {
				t.Fatalf("stalled commit held the caller %v", waited)
			}
			if text := querytotext.CancelEnglish(ce); !strings.Contains(text, "write-ahead log") {
				t.Fatalf("narration: %q", text)
			}
			var st *storage.StallError
			if !errors.As(err, &st) {
				t.Fatalf("CancelError does not wrap the StallError: %v", err)
			}
			// Latched: even with the disk healthy again, writes are rejected until
			// restart, because the stalled record may or may not be on disk.
			ffs.ClearFaults()
			if _, err := sys.Ask("insert into MOVIES (id, title, year) values (997, 'After', 2026)"); err == nil {
				t.Fatal("write accepted after a WAL stall")
			}
			// Reads still work.
			if _, err := sys.Ask("select m.title from MOVIES m where m.id = 1"); err != nil {
				t.Fatalf("read after stall: %v", err)
			}
		})
	}
}

// TestAskContextSlowSyncWithinGrace: a sync slower than the deadline but
// inside the grace window commits normally — an expired request deadline
// alone must never latch the log or tear a statement that already applied.
func TestAskContextSlowSyncWithinGrace(t *testing.T) {
	for _, dc := range deadlineContexts {
		t.Run(dc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			ffs := wal.NewFaultFS(wal.NewMemFS())
			db, err := dataset.CuratedMovieDB()
			if err != nil {
				t.Fatal(err)
			}
			sys, _, err := NewDurable(db, ffs, storage.DurableOptions{SyncGrace: 5 * time.Second}, MovieConfig())
			if err != nil {
				t.Fatal(err)
			}
			ffs.DelaySyncs(300 * time.Millisecond)
			ctx, cancel := dc.with(100 * time.Millisecond)
			defer cancel()
			resp, err := sys.AskContext(ctx, "insert into MOVIES (id, title, year) values (996, 'Slow Disk', 2026)")
			if err != nil {
				t.Fatalf("slow-but-healthy sync failed the statement: %v", err)
			}
			if resp.Affected != 1 {
				t.Fatalf("affected %d", resp.Affected)
			}
			ffs.ClearFaults()
			// The statement committed whole: visible now and after the WAL latch
			// check (writes were never rejected).
			if ans := askCount(t, sys, "select m.title from MOVIES m where m.id = 996"); !strings.Contains(ans, "Slow Disk") {
				t.Fatalf("committed row missing: %s", ans)
			}
			if _, err := sys.Ask("insert into MOVIES (id, title, year) values (995, 'Next', 2026)"); err != nil {
				t.Fatalf("write after within-grace sync: %v", err)
			}
		})
	}
}

// TestAskContextEntryRefusal: a context already dead on arrival is refused
// before any snapshot is pinned or cache touched.
func TestAskContextEntryRefusal(t *testing.T) {
	sys, err := NewMovieSystem()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.AskContext(ctx, "select m.title from MOVIES m"); !engine.IsCancel(err) {
		t.Fatalf("dead-on-arrival context: %v", err)
	}
	if inFlight, _, _ := sys.ReaderStats(); inFlight != 0 {
		t.Fatalf("refused request pinned a read: %d", inFlight)
	}
}
