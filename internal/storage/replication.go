package storage

import (
	"errors"
	"fmt"

	"repro/internal/wal"
)

// This file is the storage half of WAL-shipping replication (internal/repl):
// a primary exposes its committed record stream (a commit sink for the live
// tail plus a checkpoint-aware backlog read for catch-up), and a follower
// applies shipped records through the same record-atomic replay path recovery
// uses, publishing one MVCC version per record at the record's sequence.
//
// The WAL itself is the replication outbox: the sink only has to cover the
// live tail, because any follower that falls behind can always be re-fed from
// the checkpoint segment plus the log — both already durable, both already
// crash-consistent. That is what lets the primary ship asynchronously with a
// bounded in-memory buffer and never stall a commit on a wedged follower.

// ErrReadOnlyReplica reports a local mutation attempted on a database that
// serves as a replication follower: its contents are owned by the primary's
// record stream, so the only writes allowed are replicated applies.
var ErrReadOnlyReplica = errors.New("storage: database is a read-only replication follower; execute writes on the primary")

// CommitFrame is one committed WAL record payload tagged with its sequence,
// exactly as framed on disk (uvarint seq, uvarint op count, encoded ops).
type CommitFrame struct {
	Seq    uint64
	Record []byte
}

// RecordSeq decodes the commit sequence from an encoded WAL record payload.
func RecordSeq(payload []byte) (uint64, bool) {
	d := &walDecoder{buf: payload}
	seq := d.uvarint()
	return seq, d.err == nil
}

// SetCommitSink registers fn to observe every committed record, called after
// the record is fsynced and its version installed, in commit order, with the
// durability mutex held. The record bytes are reused by the next commit: fn
// must copy what it keeps, and must not block — it runs inside the commit
// path of every write.
func (db *Database) SetCommitSink(fn func(seq uint64, record []byte)) error {
	d := db.dur
	if d == nil {
		return errors.New("storage: commit sink requires a durable database")
	}
	d.mu.Lock()
	d.sink = fn
	d.mu.Unlock()
	return nil
}

// ReplicationBacklog returns the committed records a follower at fromSeq is
// missing. When fromSeq is at or above the checkpoint floor, checkpoint is
// nil and frames holds the log records above fromSeq. When the log has been
// truncated past fromSeq, checkpoint holds the raw checkpoint segment (which
// re-seeds the follower at the floor) and frames holds everything above the
// floor. last is the highest committed sequence the backlog reaches.
//
// The read runs under the durability mutex, so it is consistent with commits
// and checkpoint rotation: no record can land or rotate away mid-read.
func (db *Database) ReplicationBacklog(fromSeq uint64) (checkpoint []byte, frames []CommitFrame, last uint64, err error) {
	d := db.dur
	if d == nil {
		return nil, nil, 0, errors.New("storage: replication backlog requires a durable database")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	floor := d.floor.Load()
	if fromSeq < floor {
		checkpoint, err = wal.ReadAll(d.fs, CheckpointFileName)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("storage: reading checkpoint for backlog: %w", err)
		}
		fromSeq = floor
	}
	data, err := wal.ReadAll(d.fs, WALFileName)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("storage: reading log for backlog: %w", err)
	}
	// Scan's valid prefix is exactly the acknowledged records; a torn tail
	// (a latched failed append) was never acknowledged and must not ship.
	records, _ := wal.Scan(data)
	last = fromSeq
	for _, rec := range records {
		seq, ok := RecordSeq(rec.Payload)
		if !ok {
			return nil, nil, 0, fmt.Errorf("storage: log record at byte %d has no sequence", rec.Off)
		}
		if seq <= fromSeq {
			continue
		}
		// The frames share the one buffer the log was read into, capped so
		// an append to one cannot run into the next.
		frames = append(frames, CommitFrame{Seq: seq, Record: rec.Payload[:len(rec.Payload):len(rec.Payload)]})
		if seq > last {
			last = seq
		}
	}
	return checkpoint, frames, last, nil
}

// ApplyReplicatedRecord applies one shipped WAL record to a follower
// database: under one hold of db.mu the ops replay through the same locked
// write internals recovery uses, then one version installs at the record's
// sequence — so snapshot readers see record atomicity, exactly as they do on
// the primary, and no local write lands in between (the follower refuses
// those anyway). The caller owns continuity (a sequence gap is divergence,
// not this function's concern). On an apply error the live tables may hold
// a partial record, but no version is published: the caller must latch and
// stop applying, which keeps every readable snapshot record-atomic.
func (db *Database) ApplyReplicatedRecord(record []byte) (seq uint64, ops int, err error) {
	if db.dur != nil {
		return 0, 0, errors.New("storage: replicated records apply to in-memory followers only")
	}
	d := &walDecoder{buf: record}
	seq = d.uvarint()
	if d.err != nil {
		return 0, 0, fmt.Errorf("storage: replicated record has no sequence: %w", d.err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	ops, err = db.replayBatch(d)
	db.replay.release()
	if err == nil {
		db.publishLocked(seq)
	}
	return seq, ops, err
}

// LoadReplicatedCheckpoint re-seeds a follower from a primary's raw
// checkpoint segment: the follower's tables are rebuilt empty, the segment
// loads (refusing schema or checksum mismatches), and one version publishes
// at the checkpoint's sequence floor. It returns that floor and the row
// count restored. Readers keep the previous version until the publish, so
// the swap is atomic from their side.
func (db *Database) LoadReplicatedCheckpoint(checkpoint []byte) (floor uint64, rows int, err error) {
	if db.dur != nil {
		return 0, 0, errors.New("storage: replicated checkpoints load into in-memory followers only")
	}
	floor, err = db.reseed(checkpoint)
	if err != nil {
		return 0, 0, err
	}
	db.mu.Lock()
	db.publishLocked(floor) // every table is fresh, hence dirty: all refreeze
	db.mu.Unlock()
	return floor, db.totalRows(), nil
}

// CheckpointFloor parses the WAL sequence floor out of a raw checkpoint
// segment without loading it — a follower peeks at an offered checkpoint to
// detect divergence (a floor behind its own state) before wiping anything.
func CheckpointFloor(checkpoint []byte) (uint64, error) {
	records, _ := wal.Scan(checkpoint)
	if len(records) == 0 {
		return 0, errors.New("storage: checkpoint has no header record")
	}
	// The schema fingerprint is LoadReplicatedCheckpoint's to verify.
	_, floor, _, err := checkpointHeader(records[0].Payload)
	return floor, err
}

// SetReadOnly marks the database a replication follower: every local
// mutation is refused with ErrReadOnlyReplica, at all times — also while a
// replicated record applies, since ApplyReplicatedRecord writes through the
// locked internals below the public DML and never through the refusal.
func (db *Database) SetReadOnly(ro bool) { db.readOnly.Store(ro) }
