package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// This file wires the write-ahead log and the checkpoint segments into the
// Database. A durable database lives in one directory (abstracted as a
// wal.FS so the crash tests can run against an in-memory disk):
//
//	checkpoint.seg   columnar snapshot of every table + the WAL sequence floor
//	wal.log          framed records, one per committed statement
//	wal.corrupt      quarantined unusable log tail from the last recovery
//
// The protocol is log-before-acknowledge: every applied mutation appends a
// logical op to a pending buffer, and a statement — one mutating storage
// call — flushes it (append + fsync) as one framed record before it
// returns. Recovery loads the checkpoint, replays the WAL's longest valid
// committed prefix through the locked write internals live DML uses, and
// quarantines whatever tail a crash or bit rot left behind — it never fails
// on a corrupt log, and it never trusts one.
//
// A WAL append or fsync that fails latches the layer into a permanent
// failed state: every later write is rejected with ErrWALFailed. Appending
// past a torn frame would produce records recovery must quarantine —
// acknowledged statements silently lost — so the only safe answers are
// stop or restart (a restart re-runs recovery, which salvages the log).
//
// Locking: the pending buffer is guarded by db.mu (the op encoders run
// inside the DML paths, which hold it); the log writer and its rotation are
// guarded by durability.mu. Lock order is durability.mu before db.mu, never
// the reverse. Two raw-API writers racing between their applies may share
// one record; each returns only once that record is fsynced.

// Durable file names inside the database directory.
const (
	WALFileName        = "wal.log"
	CheckpointFileName = "checkpoint.seg"
	CorruptFileName    = "wal.corrupt"
	checkpointTmpName  = "checkpoint.tmp"
	walTmpName         = "wal.tmp"
)

// DefaultCheckpointBytes is the WAL size that triggers an automatic
// checkpoint when DurableOptions does not say otherwise.
const DefaultCheckpointBytes = 4 << 20

// DefaultSyncGrace is how long past a request's deadline a WAL append+fsync
// may keep running before the commit abandons it as stalled, when
// DurableOptions does not say otherwise. A healthy disk finishes an fsync
// in well under this; only a genuinely wedged device trips it.
const DefaultSyncGrace = 500 * time.Millisecond

// DurableOptions tunes the durability layer.
type DurableOptions struct {
	// CheckpointBytes auto-checkpoints once the log grows past this size.
	// Zero means DefaultCheckpointBytes; negative disables auto-checkpoints
	// (explicit Checkpoint calls still work).
	CheckpointBytes int64

	// SyncGrace bounds how long a commit waits for the WAL append+fsync
	// after its request context expires. Zero means DefaultSyncGrace. The
	// grace applies only to calls whose context can expire (InsertRows,
	// UpdateAt, DeleteAt under a request); the raw Insert, Update and Delete
	// wait for the disk indefinitely.
	SyncGrace time.Duration
}

// StallError reports a WAL append/fsync that outlived its request's
// deadline plus the grace window — a stalled disk surfaced as a bounded
// error instead of an indefinite hang. The commit that observed it latched
// the durability layer (the record's on-disk fate is unknown, so appending
// past it would be unsafe); writes are rejected until restart, when
// recovery decides from the log itself whether the record committed.
type StallError struct {
	// Op names the stalled operation ("wal fsync").
	Op string
	// Grace is the window the disk was given past the deadline.
	Grace time.Duration
	// Err is the context error that started the grace clock.
	Err error
}

func (e *StallError) Error() string {
	return fmt.Sprintf("storage: %s stalled beyond the request deadline (+%s grace); writes are rejected until restart", e.Op, e.Grace)
}

// Unwrap exposes the context error so errors.Is sees the deadline.
func (e *StallError) Unwrap() error { return e.Err }

// RecoveryReport describes what EnableDurability found and did. It is
// immutable once returned; the explainer renders it in English.
type RecoveryReport struct {
	// Fresh is true when no durable state existed — the directory was
	// adopted with an initial checkpoint of the in-memory contents.
	Fresh bool
	// CheckpointRows counts rows restored from the checkpoint segment.
	CheckpointRows int
	// ReplayedBatches and ReplayedOps count WAL records (one per statement)
	// and individual ops applied on top of the checkpoint.
	ReplayedBatches int
	ReplayedOps     int
	// SkippedBatches counts records already covered by the checkpoint (the
	// crash-between-checkpoint-and-truncate window).
	SkippedBatches int
	// LostBatches estimates the committed-or-partial records swallowed by
	// the quarantined tail; zero for a clean log.
	LostBatches int
	// QuarantinedBytes is the size of the tail moved to CorruptFile.
	QuarantinedBytes int
	// CheckpointSeq is the WAL sequence floor the loaded checkpoint covered
	// (zero when recovery started without one).
	CheckpointSeq uint64
	// FirstSeq and LastSeq delimit the recovered sequence range: FirstSeq is
	// the first record replayed from the log (zero when none were), LastSeq
	// the sequence the database stands at once recovery finishes. The
	// follower catch-up narration reuses them for its "brought me from
	// sequence A to B" sentence.
	FirstSeq, LastSeq uint64
	// TailReason classifies the damage in plain words ("torn frame header",
	// "checksum mismatch", ...); empty for a clean log.
	TailReason string
	// CorruptFile names the quarantine sidecar when one was written.
	CorruptFile string
	// Rows is the total row count across tables after recovery.
	Rows int
}

// Clean reports whether recovery finished without losing anything.
func (r *RecoveryReport) Clean() bool { return r.TailReason == "" }

// DurabilityStats is the live counter snapshot surfaced on /stats.
type DurabilityStats struct {
	Batches     uint64 // committed WAL records
	Ops         uint64 // logical ops inside them
	Syncs       uint64 // successful fsyncs
	Checkpoints uint64 // checkpoints written (including the adopting one)
	WALBytes    int64  // current log size
	LastSeq     uint64 // last committed sequence number
	WriteError  string // latched WAL failure; empty while the log is healthy
	Recovery    *RecoveryReport
}

// ErrWALFailed reports that an earlier WAL append or fsync failed. The
// durability layer latches into this state — further writes are rejected so
// no statement can be acknowledged without reaching the log — and only a
// process restart (which re-runs recovery over the salvageable log) clears
// it.
var ErrWALFailed = errors.New("storage: write-ahead log failed; writes are rejected until restart")

// errCheckpointBusy reports a checkpoint attempted while ops another writer
// applied are waiting to flush. Auto-checkpoints skip it and retry at the
// next commit; explicit callers see it as an error.
var errCheckpointBusy = errors.New("storage: checkpoint while a statement is waiting to flush")

// walFailure wraps the first WAL write error for the latch.
type walFailure struct{ err error }

// durability is the per-database WAL state. The pending buffer is guarded
// by db.mu (the op encoders run inside DML paths holding it); mu serializes
// log flushes and writer rotation; the counters are atomic because /stats
// reads them concurrently with writers.
type durability struct {
	fs   wal.FS
	opts DurableOptions

	mu sync.Mutex  // guards w and the flush/rotate protocol
	w  *wal.Writer // log writer; rotated by Checkpoint

	pending    []byte // encoded ops applied since the last flush (guarded by db.mu)
	pendingOps int
	rec        []byte // record scratch: seq + opCount + pending (guarded by mu)
	// frozen collects the tables a commit froze (guarded by mu), for
	// redirty when its flush fails.
	frozen []*Table

	// failed latches the first WAL append/fsync error; once set, every
	// commit and checkpoint is rejected with ErrWALFailed.
	failed atomic.Pointer[walFailure]

	// io tracks in-flight append+fsync goroutines: a deadline-bounded
	// commit that abandons a stalled sync leaves the goroutine running
	// (latched, so nothing else touches the writer), and CloseDurability
	// waits it out before closing the file.
	io sync.WaitGroup

	seq         atomic.Uint64
	batches     atomic.Uint64
	ops         atomic.Uint64
	syncs       atomic.Uint64
	checkpoints atomic.Uint64
	walBytes    atomic.Int64

	// floor is the WAL sequence the checkpoint segment covers: records at or
	// below it are not in the log. Replication catch-up reads consult it to
	// decide between shipping log records and re-seeding from the checkpoint.
	floor atomic.Uint64

	// sink, when set, observes every committed record (replication.go). It
	// is called with mu held, after the fsync and version install.
	sink func(seq uint64, record []byte)

	report *RecoveryReport
}

// latch records the first WAL write failure; later calls keep the original.
func (d *durability) latch(err error) {
	d.failed.CompareAndSwap(nil, &walFailure{err: err})
}

// failedErr returns the latched failure as an ErrWALFailed, or nil.
func (d *durability) failedErr() error {
	if f := d.failed.Load(); f != nil {
		return fmt.Errorf("%w (first failure: %v)", ErrWALFailed, f.err)
	}
	return nil
}

// HasDurableState reports whether fs already holds a durable database.
func HasDurableState(fs wal.FS) bool {
	walOK, _ := fs.Exists(WALFileName)
	ckOK, _ := fs.Exists(CheckpointFileName)
	return walOK || ckOK
}

// EnableDurability attaches a write-ahead log and checkpoint store to db.
// With existing durable state in fs, db must be empty (schema only): the
// checkpoint and the log's longest valid committed prefix are replayed into
// it, and any unusable tail is quarantined to CorruptFileName. With no
// existing state, the in-memory contents (e.g. a seeded dataset) are adopted
// by an initial checkpoint. After it returns, every committed statement is
// logged and fsynced before the mutating call returns.
func (db *Database) EnableDurability(fs wal.FS, opts DurableOptions) (*RecoveryReport, error) {
	if db.dur != nil {
		return nil, errors.New("storage: durability already enabled")
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = DefaultCheckpointBytes
	}
	// Stale temporaries from a crash mid-checkpoint are garbage by
	// construction (the rename never happened); clear them.
	_ = fs.Remove(checkpointTmpName)
	_ = fs.Remove(walTmpName)

	report := &RecoveryReport{}
	hasState := HasDurableState(fs)
	if hasState && db.totalRows() > 0 {
		return nil, errors.New("storage: durable state exists but the database is not empty; recover into a schema-only database")
	}

	// Neither the checkpoint load nor the WAL replay publishes: one version
	// installs at the end, at the recovered sequence.
	var ckData []byte
	if ok, _ := fs.Exists(CheckpointFileName); ok {
		data, err := wal.ReadAll(fs, CheckpointFileName)
		if err != nil {
			return nil, fmt.Errorf("storage: reading checkpoint: %w", err)
		}
		ckData = data
		report.CheckpointSeq, err = db.loadCheckpoint(data)
		if err != nil {
			return nil, err
		}
		report.CheckpointRows = db.totalRows()
	}

	report.LastSeq = report.CheckpointSeq
	validEnd := 0
	walExisted, _ := fs.Exists(WALFileName)
	if walExisted {
		var err error
		validEnd, err = db.replayWAL(fs, ckData, report)
		if err != nil {
			return nil, err
		}
	} else if !hasState {
		report.Fresh = true
	}

	f, err := fs.OpenAppend(WALFileName)
	if err != nil {
		return nil, fmt.Errorf("storage: opening log: %w", err)
	}
	if !walExisted {
		// OpenAppend just created the log; make its directory entry durable
		// before any record is acknowledged into it.
		if err := fs.SyncDir(); err != nil {
			return nil, fmt.Errorf("storage: syncing directory: %w", err)
		}
	}
	ckExists, _ := fs.Exists(CheckpointFileName)
	if !ckExists {
		// Adopting an in-memory database that may already have published
		// versions (a seeded dataset): continue sequence numbering above them
		// so snapshot seqs never regress. The initial checkpoint below records
		// this floor, keeping later recoveries consistent with it.
		db.mu.Lock()
		report.LastSeq = max(report.LastSeq, db.pubSeq)
		db.mu.Unlock()
	}
	dur := &durability{fs: fs, w: wal.NewWriter(f, int64(validEnd)), opts: opts, report: report}
	dur.seq.Store(report.LastSeq)
	dur.walBytes.Store(int64(validEnd))
	dur.floor.Store(report.CheckpointSeq)
	db.dur = dur

	// Recovery is done: publish the recovered state as one version at the
	// recovered sequence, so snapshot readers and the initial checkpoint see
	// it.
	db.mu.Lock()
	for _, t := range db.tables {
		t.dirty = true
	}
	db.publishLocked(report.LastSeq)
	db.mu.Unlock()

	// First boot of this directory (or a crash before the first checkpoint
	// completed): checkpoint now, adopting whatever db already holds.
	if !ckExists {
		if err := db.Checkpoint(); err != nil {
			db.dur = nil
			return nil, err
		}
	}
	report.Rows = db.totalRows()
	return report, nil
}

// replayWAL scans and replays the log, quarantines any unusable tail, and
// rewrites the log file down to its valid prefix. It returns the byte length
// of that prefix. ckData is the raw checkpoint segment (nil when none
// existed): if a record fails partway through application, the database is
// rebuilt from it so no half-applied statement survives recovery.
func (db *Database) replayWAL(fs wal.FS, ckData []byte, report *RecoveryReport) (int, error) {
	data, rerr := wal.ReadAll(fs, WALFileName)
	records, tail := wal.Scan(data)
	validEnd := len(data)
	var quarantine []byte
	if tail != nil {
		validEnd = tail.Off
		quarantine = tail.Bytes
		report.TailReason = tail.Reason
		report.LostBatches = tail.Lost
	}
	if idx, partial, err := db.replayRecords(records, report); err != nil {
		if partial {
			// replayBatch failed partway: some of the record's ops are
			// applied. A statement's record is the unit of recovery atomicity,
			// so rebuild from the checkpoint and the known-good record
			// prefix — none of the broken record survives.
			if rbErr := db.rebuildPrefix(ckData, records[:idx]); rbErr != nil {
				return 0, fmt.Errorf("storage: rolling back partial batch: %w", rbErr)
			}
		}
		// The record framed and checksummed but does not decode, follow or
		// apply — treat it and everything after as the corrupt tail.
		validEnd = records[idx].Off
		quarantine = data[validEnd:]
		report.TailReason = err.Error()
		report.LostBatches = len(records) - idx
		if tail != nil {
			report.LostBatches += tail.Lost
		}
	}
	if rerr != nil && report.TailReason == "" {
		// The file has bytes we could not read (the short-read fault). The
		// readable prefix replayed; what follows is unknown and cannot be
		// quarantined — there is nothing readable to set aside.
		report.TailReason = "unreadable log tail: " + rerr.Error()
		report.LostBatches++
	}
	dirty := false
	if len(quarantine) > 0 {
		if err := writeFile(fs, CorruptFileName, quarantine); err != nil {
			return 0, fmt.Errorf("storage: quarantining log tail: %w", err)
		}
		report.CorruptFile = CorruptFileName
		report.QuarantinedBytes = len(quarantine)
		dirty = true
	}
	if size, err := fs.Size(WALFileName); err == nil && size != int64(validEnd) {
		if err := writeFile(fs, walTmpName, data[:validEnd]); err != nil {
			return 0, fmt.Errorf("storage: rewriting log: %w", err)
		}
		if err := fs.Rename(walTmpName, WALFileName); err != nil {
			return 0, fmt.Errorf("storage: rewriting log: %w", err)
		}
		dirty = true
	}
	if dirty {
		// The sidecar create and the log rewrite's rename are directory
		// mutations; make them power-loss durable before recovery reports.
		if err := fs.SyncDir(); err != nil {
			return 0, fmt.Errorf("storage: syncing directory: %w", err)
		}
	}
	return validEnd, nil
}

// replayRecords is the one sequence rule of recovery: onto tables that hold
// the checkpoint at report.CheckpointSeq and the records up to report.LastSeq,
// it skips a record at or below the checkpoint (the crash between checkpoint
// and log truncation leaves some behind), refuses one that does not follow
// LastSeq, and applies the rest in order, each under one hold of db.mu. It
// stops at the first record that does not decode, follow or apply and
// returns its index and error; partial reports that the record's ops had
// begun to apply, so some of them may sit in the tables. report counts the
// skipped and replayed records and advances LastSeq.
func (db *Database) replayRecords(records []wal.Record, report *RecoveryReport) (failed int, partial bool, err error) {
	defer func() {
		db.mu.Lock()
		db.replay.release()
		db.mu.Unlock()
	}()
	for i, rec := range records {
		d := &walDecoder{buf: rec.Payload}
		seq := d.uvarint()
		switch {
		case d.err != nil:
			return i, false, d.err
		case seq <= report.CheckpointSeq:
			report.SkippedBatches++
			continue
		case seq != report.LastSeq+1:
			return i, false, fmt.Errorf("sequence %d follows %d", seq, report.LastSeq)
		}
		db.mu.Lock()
		ops, err := db.replayBatch(d)
		db.mu.Unlock()
		if err != nil {
			return i, true, err
		}
		report.LastSeq = seq
		if report.FirstSeq == 0 {
			report.FirstSeq = seq
		}
		report.ReplayedBatches++
		report.ReplayedOps += ops
	}
	return len(records), false, nil
}

// rebuildPrefix restores db to the state reached by the checkpoint plus the
// given known-good WAL records. It is the rollback path for a record that
// fails partway through replayBatch — rebuilding from scratch is O(log) but
// only runs once, on the rare corrupt-record recovery.
func (db *Database) rebuildPrefix(ckData []byte, records []wal.Record) error {
	floor, err := db.reseed(ckData)
	if err != nil {
		return err
	}
	_, _, err = db.replayRecords(records, &RecoveryReport{CheckpointSeq: floor, LastSeq: floor})
	return err
}

func writeFile(fs wal.FS, name string, data []byte) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Checkpoint seals and persists the published version to the checkpoint
// segment (temporary file + atomic rename) and truncates the WAL. It fails
// with an error when ops are waiting to flush; the automatic checkpoint path
// simply retries at a later commit.
//
// Holding durability.mu for the whole call blocks commits (so no record can
// land above the floor while the segment writes), but serialization reads
// only the pinned snapshot's frozen tables — concurrent snapshot readers are
// never blocked, and neither is the application of new mutations (they queue
// at the commit fence, not the apply path).
func (db *Database) Checkpoint() error {
	d := db.dur
	if d == nil {
		return errors.New("storage: database is not durable")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.failedErr(); err != nil {
		return err
	}
	// One db.mu acquisition must span the busy check and the version pin:
	// with separate acquisitions a concurrent writer could apply an op in
	// between, and its record — flushed to the rotated log with a sequence
	// above the floor — would replay on top of a checkpoint that already
	// contains the mutation. Every committed record installed its version
	// before releasing durability.mu, so the pinned snapshot reflects exactly
	// the records at or below the floor.
	db.mu.RLock()
	if d.pendingOps > 0 {
		db.mu.RUnlock()
		return errCheckpointBusy
	}
	floor := d.seq.Load()
	snap := db.version.Load()
	db.mu.RUnlock()
	f, err := d.fs.Create(checkpointTmpName)
	if err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	w := wal.NewWriter(f, 0)
	if err := db.writeCheckpointTables(w, snap.tables, floor); err != nil {
		w.Close()
		_ = d.fs.Remove(checkpointTmpName)
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return fmt.Errorf("storage: checkpoint fsync: %w", err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := d.fs.Rename(checkpointTmpName, CheckpointFileName); err != nil {
		return fmt.Errorf("storage: checkpoint rename: %w", err)
	}
	// Make the rename power-loss durable before truncating the log it
	// covers — otherwise a power cut could keep the truncation but lose the
	// rename, leaving the old checkpoint with an empty log.
	if err := d.fs.SyncDir(); err != nil {
		return fmt.Errorf("storage: checkpoint dir sync: %w", err)
	}
	// The checkpoint covers every committed record; truncate the log. A
	// crash before the truncate is benign — recovery skips records at or
	// below the checkpoint's sequence floor.
	if err := d.w.Close(); err != nil {
		return fmt.Errorf("storage: rotating log: %w", err)
	}
	nf, err := d.fs.Create(WALFileName)
	if err != nil {
		return fmt.Errorf("storage: rotating log: %w", err)
	}
	d.w = wal.NewWriter(nf, 0)
	d.walBytes.Store(0)
	d.floor.Store(floor)
	d.checkpoints.Add(1)
	return nil
}

// CloseDurability detaches and closes the log writer. The database remains
// usable in memory; mutations after the close are no longer logged.
func (db *Database) CloseDurability() error {
	d := db.dur
	if d == nil {
		return nil
	}
	db.dur = nil
	d.mu.Lock()
	defer d.mu.Unlock()
	// An abandoned (stalled) append+fsync goroutine may still hold the
	// writer; wait it out so Close never races the file handle.
	d.io.Wait()
	return d.w.Close()
}

// Durable reports whether a WAL is attached.
func (db *Database) Durable() bool { return db.dur != nil }

// DurabilityStats snapshots the durability counters; ok is false when the
// database is not durable.
func (db *Database) DurabilityStats() (stats DurabilityStats, ok bool) {
	d := db.dur
	if d == nil {
		return DurabilityStats{}, false
	}
	var werr string
	if f := d.failed.Load(); f != nil {
		werr = f.err.Error()
	}
	return DurabilityStats{
		Batches:     d.batches.Load(),
		Ops:         d.ops.Load(),
		Syncs:       d.syncs.Load(),
		Checkpoints: d.checkpoints.Load(),
		WALBytes:    d.walBytes.Load(),
		LastSeq:     d.seq.Load(),
		WriteError:  werr,
		Recovery:    d.report,
	}, true
}

// commit writes the pending ops as one framed, fsynced WAL record. It takes
// durability.mu (serializing flushes and rotation) and then db.mu just long
// enough to snapshot and clear the pending buffer — concurrent raw-API
// writers contend here instead of corrupting the buffer. An Append or Sync
// error latches the layer failed: the record may sit torn at the log's end,
// and appending past it would doom every later acknowledged statement to
// quarantine at recovery.
func (d *durability) commit(db *Database, ctx context.Context) error {
	d.mu.Lock()
	db.mu.Lock()
	if err := d.failedErr(); err != nil {
		// The applied-but-unflushed ops can never reach the log; drop them so
		// the buffer does not grow without bound while failing.
		d.pending = d.pending[:0]
		d.pendingOps = 0
		db.mu.Unlock()
		d.mu.Unlock()
		return err
	}
	if d.pendingOps == 0 {
		d.pending = d.pending[:0]
		db.mu.Unlock()
		d.mu.Unlock()
		return nil
	}
	seq := d.seq.Add(1)
	d.rec = appendUvarint(d.rec[:0], seq)
	d.rec = appendUvarint(d.rec, uint64(d.pendingOps))
	d.rec = append(d.rec, d.pending...)
	ops := d.pendingOps
	d.pending = d.pending[:0]
	d.pendingOps = 0
	// Freeze the statement's tables into a version at the WAL sequence while
	// still inside the db.mu window — the state the record describes cannot
	// drift before the fsync, because any later mutation queues behind
	// durability.mu for the NEXT record. The version installs only after the
	// fsync succeeds: a snapshot seq always names an acknowledged, durable
	// prefix of the log.
	d.frozen = d.frozen[:0]
	snap := db.buildVersionLocked(seq, &d.frozen)
	db.mu.Unlock()
	if err := d.walIO(ctx, d.rec); err != nil {
		d.latch(err)
		db.redirty(d.frozen)
		d.mu.Unlock()
		return err
	}
	if snap != nil {
		db.installVersion(snap)
	}
	if d.sink != nil {
		d.sink(seq, d.rec)
	}
	d.batches.Add(1)
	d.ops.Add(uint64(ops))
	d.syncs.Add(1)
	d.walBytes.Store(d.w.Offset())
	needCk := d.opts.CheckpointBytes > 0 && d.w.Offset() >= d.opts.CheckpointBytes
	d.mu.Unlock()
	if needCk {
		// Auto-checkpoint: racing writers may have queued ops since the
		// flush; skip and retry at a later commit.
		if err := db.Checkpoint(); err != nil && !errors.Is(err, errCheckpointBusy) {
			return err
		}
	}
	return nil
}

// walIO appends rec and fsyncs it, bounded by ctx when it can expire. The
// unbounded path runs inline (no goroutine, no allocation); the bounded
// path runs the IO on a tracked goroutine and waits for whichever comes
// first — the result, or the context plus a grace window. A sync that
// completes inside the grace commits normally even though the request gave
// up: past the append the record is applied state, and the loss-free
// contract is commit-or-no-trace, never half of each. Only a genuine stall
// returns a *StallError; the caller latches, so the orphaned goroutine is
// the last thing that ever touches the writer before CloseDurability waits
// it out.
func (d *durability) walIO(ctx context.Context, rec []byte) error {
	appendSync := func() error {
		if err := d.w.Append(rec); err != nil {
			return fmt.Errorf("storage: wal append: %w; writes are rejected until restart", err)
		}
		if err := d.w.Sync(); err != nil {
			return fmt.Errorf("storage: wal fsync: %w; writes are rejected until restart", err)
		}
		return nil
	}
	if ctx == nil || ctx.Done() == nil {
		return appendSync()
	}
	ch := make(chan error, 1)
	d.io.Add(1)
	go func() {
		defer d.io.Done()
		ch <- appendSync()
	}()
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
	}
	grace := d.opts.SyncGrace
	if grace <= 0 {
		grace = DefaultSyncGrace
	}
	t := time.NewTimer(grace)
	defer t.Stop()
	select {
	case err := <-ch:
		return err
	case <-t.C:
		return &StallError{Op: "wal fsync", Grace: grace, Err: ctx.Err()}
	}
}

// totalRows sums row counts across tables.
func (db *Database) totalRows() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	sum := 0
	for _, t := range db.tables {
		sum += t.rows
	}
	return sum
}
