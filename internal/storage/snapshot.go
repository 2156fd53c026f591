package storage

import (
	"fmt"
	"slices"
	"sort"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/value"
)

// This file implements MVCC snapshot reads. Each table is conceptually a list
// of immutable sealed segments — the full zones whose column ranges, zone
// maps, frame-of-reference chunks, and dictionary pages no writer will ever
// touch again — plus a small mutable tail (the partial boundary zone still
// being appended to). A commit installs a new version: every dirty table is
// frozen into an immutable *Table view that shares the sealed prefix of each
// vector and privately copies only the boundary state (the partial null-bitmap
// word, the partial zone summary, the per-zone bases), and the whole version
// publishes through one atomic pointer.
//
// Readers pin a Snapshot once and run the entire pipeline against it with no
// locks: a sustained writer — or a checkpoint — never blocks them, and they
// never observe a half-committed statement. The freeze cost is proportional to
// the boundary, not the data: O(zones + attrs) per dirty table, so a bulk load
// publishing per statement stays linear.
//
// Payload vectors are chunked along the zones (column.go), and the chunk is
// the unit of copy-on-write: a write after a publish copies the chunks it
// touches, not the table. Safety rests on a handful of invariants, enforced
// across column.go, zonemap.go, pkindex.go and storage.go:
//
//   - A frozen view shares each payload's chunk-header array, capped at its
//     own chunk count. A header inside a shared array is never rewritten: the
//     writer's first replacement after a freeze copies the header array
//     (O(zones)) and then installs the new chunk in its private copy. Chunks
//     keep their full ZoneRows length and reads are bounded by the row count,
//     so only a table's first chunk, which starts short, is ever replaced to
//     grow.
//   - Appends (INSERT) write only at positions >= every frozen row count, which
//     frozen views never read — the chunk holding them may stay shared.
//   - The writer records which chunks it owns since the last freeze (one
//     generation stamp per chunk; a freeze bumps the column's generation, so
//     it forgets every ownership in O(1)). An in-place write clones its chunk
//     first unless the writer owns it: UPDATE owns the chunk of each changed
//     column at each updated row; DELETE owns every chunk from the first
//     removed row's zone to the end, which are the rows that shift and the
//     chunk the next appends land in; dictionary compaction owns every
//     chunk of its column. A truncation below a shared header array caps the array, so the
//     next chunk lands in a fresh one.
//   - Frame-of-reference delta chunks keep stamps of their own (d8Own) and
//     follow the same rule: UPDATE owns the chunk its row's byte is rewritten
//     in, DELETE the chunks its bytes slide through, and an append that
//     rebases a zone the chunk it shifts. A frozen view copies the bases and
//     the chunk headers, so the writer rewrites both in place.
//   - The flat per-column state — null-bitmap words and zone summaries, both
//     KB-sized — is cloned whole by prepareMutate ahead of the first in-place
//     mutation after a freeze.
//   - The primary-key index is shared under a per-table idxMu; probes filter
//     positions at or past the frozen row count. A shared index only gains
//     entries: an INSERT fills an empty slot, and a slot table that must grow
//     is replaced by fresh pages. A DELETE or key-changing UPDATE first swaps
//     in a private page-header array (ownPK), then clones each 4 KB page
//     once, on its first removal or re-pointing.
//   - Dictionary code tables are shared under codeMu: interning adds entries
//     (growth swaps in a larger slot array under the lock), and compaction
//     replaces the table instead of mutating it.
//
// SnapshotStats.CopiedBytes counts every byte these rules clone.
//
// Sequence numbers: on a durable database the snapshot seq IS the WAL commit
// seq — a snapshot names exactly the fsynced prefix it reflects, and the
// checkpoint serializes a pinned snapshot. In-memory databases count their
// own publishes. Either way seqs only grow, so caches keyed by seq can never
// serve a stale result.

// TableSource is a read surface the engine can plan and execute against:
// either the live *Database (each statement reads what the statements
// before it committed) or an immutable *Snapshot (concurrent readers).
type TableSource interface {
	// Table returns the named relation's table view, or nil.
	Table(name string) *Table
	// Schema returns the catalog schema.
	Schema() *catalog.Schema
	// Stats summarizes table cardinalities by relation name.
	Stats() map[string]int
	// DistinctCount returns the distinct non-NULL count of an attribute.
	DistinctCount(relName, attr string) (int, error)
	// Snapshot pins the current version (a Snapshot returns itself).
	Snapshot() *Snapshot
}

// Snapshot is one immutable published version: the frozen tables, the commit
// sequence that produced them, and the segment/tail shape counters surfaced
// on /stats. It is safe for any number of concurrent readers and never
// changes after publication.
type Snapshot struct {
	seq    uint64
	schema *catalog.Schema
	tables []*Table
	index  tableIndex
}

// Seq returns the commit sequence this snapshot reflects. On a durable
// database it equals the WAL sequence of the last committed record.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Schema returns the catalog schema.
func (s *Snapshot) Schema() *catalog.Schema { return s.schema }

// Table returns the frozen table view for the named relation, or nil.
func (s *Snapshot) Table(name string) *Table { return s.index.table(s.tables, name) }

// TableNames returns the sorted relation names in the snapshot.
func (s *Snapshot) TableNames() []string {
	names := make([]string, 0, len(s.tables))
	for _, t := range s.tables {
		names = append(names, t.rel.Name)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns the snapshot itself: a pinned version re-pins to the same
// version, which is what makes TableSource uniform for the engine.
func (s *Snapshot) Snapshot() *Snapshot { return s }

// Stats summarizes table cardinalities at this snapshot.
func (s *Snapshot) Stats() map[string]int {
	out := make(map[string]int, len(s.tables))
	for _, t := range s.tables {
		out[t.rel.Name] = t.rows
	}
	return out
}

// DistinctCount returns the number of distinct non-NULL values of the named
// attribute as of this snapshot, from the frozen statistics view.
func (s *Snapshot) DistinctCount(relName, attr string) (int, error) {
	tbl := s.Table(relName)
	if tbl == nil {
		return 0, fmt.Errorf("storage: unknown relation %q", relName)
	}
	p := tbl.rel.AttrIndex(attr)
	if p < 0 {
		return 0, fmt.Errorf("storage: unknown attribute %s.%s", relName, attr)
	}
	return tbl.statsView.Attrs[p].Distinct, nil
}

// SnapshotStats describes the published version for /stats: how much of the
// data sits in immutable sealed segments versus mutable tails, and how many
// versions have been installed.
type SnapshotStats struct {
	// Seq is the current version's commit sequence.
	Seq uint64
	// Published counts versions installed since the database was created.
	Published uint64
	// Tables is the table count in the current version.
	Tables int
	// SealedZones counts immutable full zones across the version's tables —
	// the sealed-segment inventory readers scan without any lock.
	SealedZones int
	// TailRows counts rows in the mutable boundary zones (at most one per
	// table).
	TailRows int
	// Rows is the total row count across tables at the current version.
	Rows int
	// CopiedBytes counts the bytes copy-on-write cloned since the database
	// was created: payload chunks, primary-key pages, header arrays and the
	// flat per-column state a mutation after a freeze copies.
	CopiedBytes uint64
}

// SnapshotStats reports the current version's segment/snapshot counters.
func (db *Database) SnapshotStats() SnapshotStats {
	snap := db.Snapshot()
	out := SnapshotStats{
		Seq:         snap.seq,
		Published:   db.published.Load(),
		Tables:      len(snap.tables),
		CopiedBytes: db.copied.Load(),
	}
	for _, t := range snap.tables {
		sealed := t.rows >> ZoneShift
		out.SealedZones += sealed
		out.TailRows += t.rows - sealed<<ZoneShift
		out.Rows += t.rows
	}
	return out
}

// Snapshot pins the currently published version. The returned snapshot is
// immutable: readers holding it see the exact committed state it names no
// matter how many writers commit afterwards.
func (db *Database) Snapshot() *Snapshot {
	return db.version.Load()
}

// Published counts versions installed since the database was created. Two
// loads bracketing a read tell how many writers committed while it ran.
func (db *Database) Published() uint64 {
	return db.published.Load()
}

// publishLocked freezes every dirty table and installs a new version at seq.
// The caller holds db.mu. Clean tables re-use their previous frozen view, so
// the cost of a publish is proportional to what the statement touched. When
// nothing is dirty and a version exists, the publish is skipped entirely —
// the current version already reflects the state (EnableSortedDict forces a
// table dirty to re-publish a flag change at the same seq).
func (db *Database) publishLocked(seq uint64) {
	if snap := db.buildVersionLocked(seq, nil); snap != nil {
		db.installVersion(snap)
	}
}

// buildVersionLocked freezes the dirty tables into a new version at seq but
// does not install it; the caller holds db.mu. It returns nil when nothing
// is dirty. A non-nil frozen collects the tables it froze, so a durable
// commit whose WAL flush fails can re-mark them dirty instead of installing a
// version the log never acknowledged. WAL replay and replicated applies never
// get here per op: they publish once, at the record's or recovery's end.
func (db *Database) buildVersionLocked(seq uint64, frozen *[]*Table) *Snapshot {
	prev := db.version.Load()
	dirty := false
	for _, t := range db.tables {
		if t.dirty {
			dirty = true
			break
		}
	}
	if !dirty && prev != nil && len(prev.tables) == len(db.tables) {
		return nil
	}
	tables := make([]*Table, len(db.tables))
	for i, t := range db.tables {
		if !t.dirty && prev != nil && i < len(prev.tables) {
			tables[i] = prev.tables[i]
			continue
		}
		tables[i] = t.freeze()
		t.dirty = false
		if frozen != nil {
			*frozen = append(*frozen, t)
		}
	}
	db.pubSeq = seq
	return &Snapshot{seq: seq, schema: db.schema, tables: tables, index: db.index}
}

// installVersion makes a built version the published one.
func (db *Database) installVersion(snap *Snapshot) {
	db.published.Add(1)
	db.version.Store(snap)
}

// redirty re-marks tables whose freeze belonged to a version that can no
// longer be installed (the WAL append or fsync behind it failed and latched
// the layer): readers keep the last acknowledged version, and a restart —
// which re-runs recovery — publishes whatever the log salvages.
func (db *Database) redirty(frozen []*Table) {
	db.mu.Lock()
	for _, t := range frozen {
		t.dirty = true
	}
	db.mu.Unlock()
}

// nextPubSeqLocked advances the in-memory publish sequence; durable commits
// use the WAL sequence instead so snapshot seq == committed WAL prefix.
func (db *Database) nextPubSeqLocked() uint64 {
	db.pubSeq++
	return db.pubSeq
}

// freeze builds an immutable view of the table at its current row count. The
// sealed prefix of every vector is shared; only boundary state is copied.
// After a freeze the live table is marked shared, which arms the
// copy-on-write paths for the next in-place mutation.
func (t *Table) freeze() *Table {
	rows := t.rows
	// The view and its statistics share one allocation.
	fv := &struct {
		Table
		stats TableStats
	}{Table: Table{
		rel:    t.rel,
		rows:   rows,
		owner:  t.owner,
		pk:     t.pk,
		pkPos:  t.pkPos,
		idxMu:  t.idxMu,
		frozen: true,
	}}
	ft := &fv.Table
	ft.cols = make([]column, len(t.cols))
	for i := range t.cols {
		t.cols[i].freezeInto(&ft.cols[i], rows)
	}
	fv.stats = t.Stats()
	ft.statsView = &fv.stats
	t.shared = true
	t.idxShared = true
	return ft
}

// freezeInto populates fc as an immutable view of c's first rows values. The
// view shares the chunk headers covering those rows; bumping c's generation
// hands every chunk, and the header array, back to copy-on-write.
func (c *column) freezeInto(fc *column, rows int) {
	fc.kind = c.kind
	fc.forOff = true
	k := chunksFor(rows)
	switch c.kind {
	case value.Int, value.Date:
		fc.ints = c.ints[:k:k]
	case value.Float:
		fc.flts = c.flts[:k:k]
	case value.Text:
		fc.codes = c.codes[:k:k]
		fc.dict = c.dict.freeze()
	case value.Bool:
		fc.bls = c.bls[:k:k]
	}
	c.gen++
	// Null bitmap: share the full words, privately copy the masked boundary
	// word the writer is still filling.
	fullWords := rows >> 6
	if fullWords > len(c.nulls.words) {
		fullWords = len(c.nulls.words)
	}
	fc.nulls.words = c.nulls.words[:fullWords:fullWords]
	if rem := rows & 63; rem != 0 && fullWords < len(c.nulls.words) {
		fc.nulls.tail = c.nulls.words[fullWords] & (1<<uint(rem) - 1)
	}
	// Zone maps: share the sealed zones, privately copy the partial boundary
	// zone. If the zones do not cover the rows (they always do at a commit
	// point, but degrade gracefully rather than corrupt), the frozen view
	// simply reports unsynced zones and the engine falls back to full scans.
	if c.zrows != rows {
		return
	}
	fc.zrows = rows
	fullZones := rows >> ZoneShift
	if fullZones > len(c.zones) {
		fullZones = len(c.zones)
	}
	fc.zones = c.zones[:fullZones:fullZones]
	if fullZones < len(c.zones) {
		fc.ztail = c.zones[fullZones]
		fc.hasZTail = true
	}
	// Frame-of-reference: share the chunks, capping the partial one, and
	// privately copy the bases and the chunk headers — the writer rewrites
	// both in place. The generation bump above hands every chunk back to
	// copy-on-write (ownD8).
	if c.forOff || c.d8Rows() != rows {
		return
	}
	fc.forOff = false
	fc.fb = append([]int64(nil), c.fb...)
	fc.d8 = make([][]uint8, len(c.d8))
	copy(fc.d8, c.d8)
	if n := len(fc.d8); n > 0 {
		last := fc.d8[n-1]
		inZone := rows - (n-1)<<ZoneShift
		fc.d8[n-1] = last[:inZone:inZone]
	}
}

// prepareMutate unshares a table's flat per-column state from every published
// snapshot ahead of an in-place mutation (DELETE compaction, UPDATE
// overwrite): the null words and the zone summaries are cloned so frozen
// readers keep the originals. The frame-of-reference bases and chunk headers
// need no clone — every frozen view holds its own copies (freezeInto). Chunks
// are not cloned here either: each payload chunk is cloned when first written
// (ownChunk), and each frame-of-reference chunk likewise (ownD8), since a
// DELETE slides its bytes and an UPDATE rewrites one. Append-only paths never
// call it — they extend past every frozen view's length.
func (t *Table) prepareMutate() {
	if !t.shared {
		return
	}
	t.shared = false
	for j := range t.cols {
		c := &t.cols[j]
		c.nulls.words = slices.Clone(c.nulls.words)
		c.zones = slices.Clone(c.zones)
		c.countCopied(len(c.nulls.words)*8 + len(c.zones)*int(unsafe.Sizeof(zone{})))
	}
}
