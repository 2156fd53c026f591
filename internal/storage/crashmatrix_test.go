package storage

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/value"
	"repro/internal/wal"
)

// The crash matrix is the differential proof of the recovery contract: a
// randomized (but seeded, hence deterministic) DML workload runs against a
// durable database while a plain in-memory oracle applies the same
// statements. The durable run's WAL is then cut at every record boundary, at
// sampled intra-record offsets, and hit with bit flips — and every mutilated
// disk must recover, without error, to byte-identical observable state
// (every table's rows + planner statistics) with the oracle as of the
// last committed statement the surviving prefix holds.

// matrixStep is one workload statement. Steps tagged checkpoint run only on
// the durable database (the oracle has no log to fold).
type matrixStep struct {
	apply      func(t testing.TB, db *Database)
	checkpoint bool
}

// matrixWorkload builds the deterministic statement sequence. Int values
// stay in narrow ranges so the frame-of-reference encoding stays active
// through checkpoints, and several statements fail on purpose (duplicate
// keys on single- and multi-row INSERT and on UPDATE) to exercise the
// no-op-commits-nothing and the partial-apply paths; a multi-row column
// UpdateAt trips NOT NULL midway. Keyed statements go through UpdateAt /
// DeleteAt, and every logged UPDATE and DELETE replays through them.
func matrixWorkload(rng *rand.Rand) []matrixStep {
	var steps []matrixStep
	add := func(f func(t testing.TB, db *Database)) {
		steps = append(steps, matrixStep{apply: f})
	}
	names := []string{"lang", "allen", "besson", "varda", "kubrick"}
	nextDir, nextMovie, nextRating := 0, 0, 0

	for i := 0; i < 10; i++ {
		id, name := nextDir, names[rng.Intn(len(names))]
		nullDate := rng.Intn(3) == 0
		day := int64(rng.Intn(200) - 100)
		nextDir++
		add(func(t testing.TB, db *Database) {
			bdate := value.NewNull()
			if !nullDate {
				bdate = value.NewDateDays(day)
			}
			if err := db.Insert("DIRECTOR", Tuple{value.NewInt(int64(id)), value.NewText(name), bdate}); err != nil {
				t.Fatalf("insert director %d: %v", id, err)
			}
		})
	}
	for i := 0; i < 30; i++ {
		switch rng.Intn(12) {
		case 0, 1, 2, 3: // movie inserts, three in one statement
			base, did, year := nextMovie, rng.Intn(10), 1960+rng.Intn(60)
			nullTitle := rng.Intn(4) == 0
			nextMovie += 3
			add(func(t testing.TB, db *Database) {
				rows := make([]Tuple, 3)
				for j := range rows {
					title := value.NewNull()
					if !nullTitle {
						title = value.NewText(fmt.Sprintf("film-%d", (base+j)%9))
					}
					rows[j] = Tuple{
						value.NewInt(int64(base + j)), title,
						value.NewInt(int64(year + j)), value.NewInt(int64(did)),
					}
				}
				if n, err := db.InsertRows(context.Background(), "MOVIES", rows); err != nil || n != 3 {
					t.Fatalf("insert movies %d..%d: n=%d err=%v", base, base+2, n, err)
				}
			})
		case 4: // rating insert with awkward floats
			id := nextRating
			score := []float64{0.5, -1.25, 3e300, 0}[rng.Intn(4)]
			fresh := rng.Intn(2) == 0
			nextRating++
			add(func(t testing.TB, db *Database) {
				if err := db.Insert("RATINGS", Tuple{
					value.NewInt(int64(id)), value.NewFloat(score),
					value.NewBool(fresh), value.NewText(fmt.Sprintf("r%d", id%5)),
				}); err != nil {
					t.Fatalf("insert rating: %v", err)
				}
			})
		case 5: // delete by year band
			lo := 1960 + rng.Intn(60)
			add(func(t testing.TB, db *Database) {
				if _, err := db.Delete("MOVIES", func(tup Tuple) bool {
					return !tup[2].IsNull() && tup[2].Int() >= int64(lo) && tup[2].Int() < int64(lo+4)
				}); err != nil {
					t.Fatalf("delete: %v", err)
				}
			})
		case 6: // update titles
			mod := int64(2 + rng.Intn(4))
			add(func(t testing.TB, db *Database) {
				if _, err := db.Update("MOVIES",
					func(tup Tuple) bool { return tup[0].Int()%mod == 0 },
					func(tup Tuple) Tuple {
						if tup[1].IsNull() {
							tup[1] = value.NewText("untitled")
						} else {
							tup[1] = value.NewText("re-" + tup[1].Text())
						}
						return tup
					}); err != nil {
					t.Fatalf("update: %v", err)
				}
			})
		case 7: // duplicate-key insert: fails, commits nothing
			add(func(t testing.TB, db *Database) {
				if err := db.Insert("DIRECTOR", Tuple{value.NewInt(0), value.NewText("dup"), value.NewNull()}); err == nil {
					t.Fatal("duplicate director accepted")
				}
			})
		case 8: // two-row insert; every other one carries a third, duplicate row
			base := nextMovie
			nextMovie += 2
			fail := rng.Intn(2) == 0
			add(func(t testing.TB, db *Database) {
				rows := []Tuple{
					{value.NewInt(int64(base)), value.NewText("multi-a"), value.NewInt(1970), value.NewInt(1)},
					{value.NewInt(int64(base + 1)), value.NewText("multi-b"), value.NewInt(1971), value.NewInt(2)},
				}
				if fail {
					rows = append(rows, Tuple{value.NewInt(int64(base)), value.NewText("multi-dup"), value.NewInt(1972), value.NewInt(3)})
				}
				n, err := db.InsertRows(context.Background(), "MOVIES", rows)
				if fail && (err == nil || n != 2) {
					t.Fatalf("duplicate third row: n=%d err=%v", n, err)
				}
				if !fail && (err != nil || n != 2) {
					t.Fatalf("two rows: n=%d err=%v", n, err)
				}
			})
		case 9: // update that trips NOT NULL midway: partial apply
			add(func(t testing.TB, db *Database) {
				hit := 0
				_, err := db.Update("DIRECTOR",
					func(tup Tuple) bool { return tup[0].Int()%4 == 1 },
					func(tup Tuple) Tuple {
						hit++
						if hit == 3 {
							tup[1] = value.NewNull() // violates NOT NULL
						} else {
							tup[1] = value.NewText(tup[1].Text() + "+")
						}
						return tup
					})
				if hit >= 3 && err == nil {
					t.Fatal("NOT NULL violation accepted")
				}
			})
		case 10: // keyed update, then keyed delete, as the engine issues them
			pick := rng.Intn(1 << 16)
			year := int64(1960 + rng.Intn(60))
			at := func(db *Database) int {
				if rows := db.Table("MOVIES").Len(); rows >= 2 {
					return pick % (rows - 1)
				}
				return -1
			}
			add(func(t testing.TB, db *Database) {
				if at := at(db); at >= 0 {
					if n, err := db.UpdateAt(context.Background(), "MOVIES", []int{at}, []int{2}, []value.Value{value.NewInt(year)}); err != nil || n != 1 {
						t.Fatalf("keyed update: n=%d err=%v", n, err)
					}
				}
			})
			add(func(t testing.TB, db *Database) {
				if at := at(db); at >= 0 {
					if n, err := db.DeleteAt(context.Background(), "MOVIES", []int{at + 1}); err != nil || n != 1 {
						t.Fatalf("keyed delete: n=%d err=%v", n, err)
					}
				}
			})
		case 11: // re-key two rows onto one fresh id: the second is refused
			pick := rng.Intn(1 << 16)
			fresh := int64(10_000 + i)
			add(func(t testing.TB, db *Database) {
				rows := db.Table("MOVIES").Len()
				if rows < 2 {
					return
				}
				at := pick % (rows - 1)
				n, err := db.UpdateAt(context.Background(), "MOVIES", []int{at, at + 1}, []int{0},
					[]value.Value{value.NewInt(fresh), value.NewInt(fresh)})
				if n != 1 || err == nil {
					t.Fatalf("re-key onto one id: n=%d err=%v", n, err)
				}
			})
		}
		if i%10 == 9 {
			// Names and birth dates of every other director, a column at a
			// time; a NULL name at the third row stops the statement there,
			// with the two rows before it updated and logged. It draws
			// nothing from rng, so the rest of the workload stays as seeded.
			day := int64(i)
			add(func(t testing.TB, db *Database) {
				var positions []int
				for p := 0; p < db.Table("DIRECTOR").Len(); p += 2 {
					positions = append(positions, p)
				}
				n := len(positions)
				vals := make([]value.Value, 2*n)
				for k := range positions {
					vals[k] = value.NewText(fmt.Sprintf("col-%d", k))
					vals[n+k] = value.NewDateDays(day + int64(k))
				}
				vals[2] = value.NewNull()
				got, err := db.UpdateAt(context.Background(), "DIRECTOR", positions, []int{1, 2}, vals)
				if got != 2 || err == nil {
					t.Fatalf("column update tripping NOT NULL at its third row: n=%d err=%v", got, err)
				}
			})
		}
	}
	return steps
}

// matrixPrint is the observable surface the matrix compares: full contents
// plus planner statistics. (Zone internals are compared by the round-trip
// tests; here only observable equivalence matters.)
func matrixPrint(t *testing.T, db *Database) string {
	return dumpAll(t, db) + statsAll(t, db)
}

func runCrashMatrix(t *testing.T, checkpointAt map[int]bool) {
	rng := rand.New(rand.NewSource(42))
	steps := matrixWorkload(rng)
	for i := range steps {
		if checkpointAt[i] {
			steps[i].checkpoint = true
		}
	}

	fs := wal.NewMemFS()
	live := newDurDB(t)
	if _, err := live.EnableDurability(fs, DurableOptions{CheckpointBytes: -1}); err != nil {
		t.Fatal(err)
	}
	oracle := newDurDB(t)

	// Run the workload on both; record, after every step, the oracle's
	// fingerprint and the durable database's committed sequence number.
	type snap struct {
		seq uint64
		fp  string
	}
	st, _ := live.DurabilityStats()
	snaps := []snap{{seq: st.LastSeq, fp: matrixPrint(t, oracle)}}
	for i, step := range steps {
		if step.checkpoint {
			if err := live.Checkpoint(); err != nil {
				t.Fatalf("checkpoint at step %d: %v", i, err)
			}
		} else {
			step.apply(t, live)
			step.apply(t, oracle)
		}
		st, _ := live.DurabilityStats()
		snaps = append(snaps, snap{seq: st.LastSeq, fp: matrixPrint(t, oracle)})
	}
	if got, want := matrixPrint(t, live), snaps[len(snaps)-1].fp; got != want {
		t.Fatalf("live and oracle diverge before any crash:\n--- oracle\n%s\n--- live\n%s", want, got)
	}

	// fpAtSeq returns the oracle fingerprint as of committed sequence s.
	fpAtSeq := func(s uint64) string {
		fp := snaps[0].fp
		for _, sn := range snaps {
			if sn.seq <= s {
				fp = sn.fp
			} else {
				break
			}
		}
		return fp
	}

	data := fs.Bytes(WALFileName)
	records, tail := wal.Scan(data)
	if tail != nil {
		t.Fatalf("live log has a tail: %+v", tail)
	}
	if len(records) == 0 {
		t.Fatal("workload committed nothing")
	}
	seqOf := func(rec wal.Record) uint64 {
		d := &walDecoder{buf: rec.Payload}
		s := d.uvarint()
		if d.err != nil {
			t.Fatalf("record seq: %v", d.err)
		}
		return s
	}
	// floorSeq is the sequence covered by the checkpoint on disk (what a
	// zero-record log recovers to).
	floorSeq := seqOf(records[0]) - 1

	recoverTo := func(disk *wal.MemFS) (*Database, *RecoveryReport) {
		t.Helper()
		db := newDurDB(t)
		report, err := db.EnableDurability(disk, DurableOptions{CheckpointBytes: -1})
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		return db, report
	}

	// Cut at every record boundary and at sampled intra-record offsets.
	cuts := []struct {
		at  int
		seq uint64 // highest committed sequence surviving the cut
	}{{0, floorSeq}}
	prevSeq := floorSeq
	for _, rec := range records {
		s := seqOf(rec)
		for _, at := range []int{rec.Off + 4, (rec.Off + rec.End) / 2, rec.End - 1} {
			if at > rec.Off {
				cuts = append(cuts, struct {
					at  int
					seq uint64
				}{at, prevSeq})
			}
		}
		cuts = append(cuts, struct {
			at  int
			seq uint64
		}{rec.End, s})
		prevSeq = s
	}
	for _, cut := range cuts {
		disk := fs.Clone()
		disk.Truncate(WALFileName, cut.at)
		db, report := recoverTo(disk)
		if got, want := matrixPrint(t, db), fpAtSeq(cut.seq); got != want {
			t.Fatalf("cut at byte %d (seq %d): recovered state diverges from oracle\n--- want\n%s\n--- got\n%s",
				cut.at, cut.seq, want, got)
		}
		if cut.at < len(data) && cut.at > 0 {
			isBoundary := false
			for _, rec := range records {
				if cut.at == rec.End {
					isBoundary = true
				}
			}
			if !isBoundary && report.Clean() {
				t.Errorf("cut at byte %d inside a record reported clean", cut.at)
			}
		}
	}

	// Bit flips: one per record, at a payload byte — the flipped record and
	// everything after it quarantine; the prefix must match the oracle.
	prevSeq = floorSeq
	for i, rec := range records {
		disk := fs.Clone()
		disk.FlipBit(WALFileName, rec.Off+8+(i%len(rec.Payload)), 0x40)
		db, report := recoverTo(disk)
		if report.Clean() {
			t.Errorf("bit flip in record %d reported clean", i)
		}
		if got, want := matrixPrint(t, db), fpAtSeq(prevSeq); got != want {
			t.Fatalf("bit flip in record %d: recovered state diverges\n--- want\n%s\n--- got\n%s", i, want, got)
		}
		if report.LostBatches < 1 {
			t.Errorf("bit flip in record %d: lost=%d", i, report.LostBatches)
		}
		prevSeq = seqOf(rec)
	}
}

func TestCrashMatrix(t *testing.T) {
	runCrashMatrix(t, nil)
}

func TestCrashMatrixWithCheckpoints(t *testing.T) {
	runCrashMatrix(t, map[int]bool{12: true, 24: true})
}
