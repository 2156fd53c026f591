// Package storage implements the in-memory relational storage substrate the
// translation pipeline runs against: columnar tables (one typed vector per
// attribute, dictionary-encoded text, null bitmaps) with primary-key /
// foreign-key / NOT NULL enforcement and a primary-key index. Every mutating
// call is one statement: it commits one WAL record on a durable database, or
// publishes one version in memory.
//
// The paper assumes a DBMS holds the schema and data whose contents and
// queries are translated; this package (together with internal/engine) is
// that DBMS, built from scratch so the whole reproduction is self-contained
// and deterministic.
//
// Storage layout: a Table holds one column per attribute — int64 for INT,
// float64 for FLOAT, uint32 dictionary codes plus a per-column string
// dictionary for TEXT, epoch-day int64 for DATE, bool for BOOL — each with a
// packed null bitmap. Payload vectors are cut into ZoneRows-row chunks
// aligned with the zone maps ([][]T), and the primary-key slot table into
// 4 KB pages, so a write after a snapshot publish copies only the chunks and
// pages it touches (snapshot.go). The Tuple-based API (Tuple, Tuples,
// LookupPK) is a compatibility surface that materializes rows on demand. The
// query engine reads tables through per-zone Col handles and CopyRow.
package storage

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/value"
)

// Tuple is one row: values positionally aligned with the relation's
// attributes.
type Tuple []value.Value

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// AppendKey appends the collision-free composite key of the given attribute
// positions to buf (see value.AppendKey). Callers that probe hash maps reuse
// one buffer and look up with m[string(buf)], which Go compiles without an
// allocation.
func (t Tuple) AppendKey(buf []byte, positions []int) []byte {
	for _, p := range positions {
		buf = t[p].AppendKey(buf)
	}
	return buf
}

// Key builds a composite map key over the given attribute positions. Every
// value is length-prefixed or fixed-width, so adjacent values cannot collide
// the way separator-joined string keys can ("a|b","c" vs "a","b|c").
func (t Tuple) Key(positions []int) string {
	return string(t.AppendKey(nil, positions))
}

// String renders the tuple for debugging: (1, Match Point, 2005).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Table stores one relation as column vectors plus its primary-key index and
// statistics.
type Table struct {
	rel  *catalog.Relation
	cols []column
	rows int
	// owner points back to the containing database, whose copied-bytes
	// counter copy-on-write adds to.
	owner *Database
	// pk maps primary-key values to row positions (pkindex.go): pointer-free
	// slot pages that a frozen view shares by page-header slice.
	// pkPos lists the key's attribute positions, nil for a relation without a
	// primary key.
	pk    pkIndex
	pkPos []int
	// keyBuf is writer-side scratch for key encoding; writers are exclusive
	// per the storage contract, readers never touch it.
	keyBuf []byte
	// fks are the relation's foreign keys resolved against the database
	// (foreignKeys), once fksResolved.
	fks         []fkCheck
	fksResolved bool
	// idxMu guards the pk slots, which are shared between the live table and
	// its frozen snapshot views: writers mutate under it, snapshot probes
	// read under it and filter positions past their frozen row count. The
	// pointer is shared across freezes.
	idxMu *sync.RWMutex
	// frozen marks an immutable snapshot view (see snapshot.go); statsView is
	// its point-in-time statistics. Live tables derive Stats() from their
	// columns instead (stats.go).
	frozen    bool
	statsView *TableStats
	// shared marks that the live columns' flat state is referenced by a
	// published snapshot: the next in-place mutation must prepareMutate first
	// (payload chunks track their own sharing, column.go). idxShared is the
	// same for the pk page headers: while it is set they may only gain
	// entries, and the next removal or re-pointing of an entry must ownPK
	// first. dirty marks the table as changed since the last publish, so a
	// publish re-freezes only what a statement touched. All three are guarded
	// by db.mu.
	shared    bool
	idxShared bool
	dirty     bool
}

// appendKeyAt appends the composite key of the given attribute positions of
// row i straight from the typed vectors (column.appendKey), without
// materializing a value.Value.
func (t *Table) appendKeyAt(buf []byte, row int, positions []int) []byte {
	for _, p := range positions {
		buf = t.cols[p].appendKey(buf, row)
	}
	return buf
}

// countCopied adds n bytes cloned by copy-on-write to the database's counter.
func (t *Table) countCopied(n int) {
	if t.owner != nil {
		t.owner.copied.Add(uint64(n))
	}
}

// Relation returns the catalog metadata of the table.
func (t *Table) Relation() *catalog.Relation { return t.rel }

// Len returns the number of rows.
func (t *Table) Len() int { return t.rows }

// Col returns a read-only handle on the pos-th column vector.
func (t *Table) Col(pos int) Col { return Col{c: &t.cols[pos]} }

// CopyRow materializes row i into dst, which must have one slot per
// attribute. It performs no allocation (text shares dictionary strings) —
// the engine's arena pipeline fills row slots with it directly.
func (t *Table) CopyRow(dst []value.Value, i int) {
	for j := range t.cols {
		dst[j] = t.cols[j].value(i)
	}
}

// Tuple returns the i-th row, materialized.
func (t *Table) Tuple(i int) Tuple {
	tup := make(Tuple, len(t.cols))
	t.CopyRow(tup, i)
	return tup
}

// Tuples returns all rows in insertion order, materialized from the column
// vectors into one fresh backing array.
func (t *Table) Tuples() []Tuple {
	out := make([]Tuple, t.rows)
	flat := make([]value.Value, t.rows*len(t.cols))
	w := len(t.cols)
	for i := 0; i < t.rows; i++ {
		row := flat[i*w : (i+1)*w : (i+1)*w]
		t.CopyRow(row, i)
		out[i] = row
	}
	return out
}

// LookupPK returns the tuple with the given primary-key values, if any. A
// NULL key value never matches (an index equality probe follows SQL
// comparison semantics, where NULL = x is unknown).
func (t *Table) LookupPK(key Tuple) (Tuple, bool) {
	if t.pkPos == nil {
		return nil, false
	}
	for _, v := range key {
		if v.IsNull() {
			return nil, false
		}
	}
	var kb [64]byte
	buf := key.AppendKey(kb[:0], identityPositions(len(key)))
	if pos, ok := t.LookupPKPos(buf); ok {
		return t.Tuple(pos), true
	}
	return nil, false
}

// identityPositions returns [0, 1, ..., n-1] without allocating for small n.
func identityPositions(n int) []int {
	if n <= len(identityPos) {
		return identityPos[:n]
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

var identityPos = []int{0, 1, 2, 3, 4, 5, 6, 7}

// PKPositions returns the attribute positions of the primary key in
// declaration order, or nil when the relation has none. The slice is shared;
// callers must not mutate it.
func (t *Table) PKPositions() []int { return t.pkPos }

// LookupPKPos returns the row position for an encoded primary-key probe
// (built with Tuple.AppendKey / value.AppendKey over PKPositions). The caller
// must not encode NULL key values — a NULL probe never matches.
func (t *Table) LookupPKPos(key []byte) (int, bool) {
	h := pkHash(key)
	t.idxMu.RLock()
	pos := t.pkFind(&t.pk, key, h)
	t.idxMu.RUnlock()
	return pos, pos >= 0
}

// Database is a schema plus one table per relation. It is safe for
// concurrent readers; writers must not run concurrently with anyone else.
type Database struct {
	mu     sync.RWMutex
	schema *catalog.Schema
	// tables holds one table per relation in schema order; index finds
	// them by name. Every snapshot shares index and holds its own slice.
	tables []*Table
	index  tableIndex
	// dur is the attached durability layer (durable.go), nil for a purely
	// in-memory database. It is set once by EnableDurability before any
	// concurrent use and consulted by the DML paths to log applied ops.
	dur *durability
	// version is the published MVCC snapshot (snapshot.go): readers pin it
	// once and run lock-free against frozen tables. pubSeq is the sequence of
	// the last publish (guarded by db.mu); durable commits publish at the WAL
	// sequence instead. published counts installed versions.
	version   atomic.Pointer[Snapshot]
	pubSeq    uint64
	published atomic.Uint64
	// readOnly marks a replication follower (replication.go): every local
	// mutation is refused; replicated records apply below the public DML.
	readOnly atomic.Bool
	// copied counts the bytes copy-on-write cloned (SnapshotStats.CopiedBytes).
	copied atomic.Uint64
	// replay is replayBatch's reused decode buffer, guarded by db.mu.
	replay replayBuf
	// batch is insertRowsLocked's primary-key scratch, guarded by db.mu.
	batch batchKeys
}

// NewDatabase creates empty tables for every relation in the schema.
func NewDatabase(schema *catalog.Schema) (*Database, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	db := &Database{schema: schema, index: make(tableIndex)}
	for _, r := range schema.Relations() {
		db.addTable(r)
	}
	// Publish version zero so snapshot readers exist from the first moment.
	db.mu.Lock()
	db.publishLocked(0)
	db.mu.Unlock()
	return db, nil
}

// addTable creates the empty table of relation r.
func (db *Database) addTable(r *catalog.Relation) *Table {
	tbl := &Table{rel: r, cols: make([]column, len(r.Attributes)), owner: db, idxMu: &sync.RWMutex{}}
	for i, a := range r.Attributes {
		tbl.cols[i] = newColumn(value.CatalogKind(a.Type), &db.copied)
	}
	if len(r.PrimaryKey) > 0 {
		tbl.pkPos = make([]int, len(r.PrimaryKey))
		for i, k := range r.PrimaryKey {
			tbl.pkPos[i] = r.AttrIndex(k)
		}
	}
	tbl.dirty = true
	// A relation keeps its position: reseed adds the tables again in the
	// same order and leaves the index, which snapshots read, as it is.
	if key := strings.ToLower(r.Name); len(db.index) == len(db.tables) {
		db.index[key] = len(db.tables)
	}
	db.tables = append(db.tables, tbl)
	return tbl
}

// DetachedTable loads rows into a table of rel that belongs to no database —
// no schema validation, log or snapshot — through the same insert path as a
// database table, so it has the same column vectors, zone maps and
// statistics. The engine materializes a view's rows into one.
func DetachedTable(rel *catalog.Relation, rows []Tuple) (*Table, error) {
	db := &Database{index: make(tableIndex, 1)}
	tbl := db.addTable(rel)
	if _, err := db.insertRowsLocked(tbl, rows, false); err != nil {
		return nil, err
	}
	return tbl, nil
}

// Schema returns the catalog schema.
func (db *Database) Schema() *catalog.Schema { return db.schema }

// Table returns the table for the named relation, or nil.
func (db *Database) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.index.table(db.tables, name)
}

// tableIndex maps a lower-case relation name to its table's position in
// schema order, the layout of a database's tables and of every snapshot's.
type tableIndex map[string]int

// table returns the table of the named relation in tables, or nil, without
// allocating the lower-case key when name is short ASCII.
func (ix tableIndex) table(tables []*Table, name string) *Table {
	var buf [64]byte
	key := ""
	if len(name) > len(buf) {
		key = strings.ToLower(name)
	} else {
		for i := 0; i < len(name); i++ {
			c := name[i]
			if c >= 0x80 {
				key = strings.ToLower(name)
				break
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i] = c
		}
	}
	var i int
	var ok bool
	if key != "" {
		i, ok = ix[key]
	} else {
		i, ok = ix[string(buf[:len(name)])]
	}
	if !ok || i >= len(tables) {
		return nil
	}
	return tables[i]
}

// tableLocked returns the table of relName; the caller holds db.mu.
func (db *Database) tableLocked(relName string) (*Table, error) {
	if tbl := db.index.table(db.tables, relName); tbl != nil {
		return tbl, nil
	}
	return nil, fmt.Errorf("storage: unknown relation %q", relName)
}

// TableNames returns the sorted relation names that have tables.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.rel.Name)
	}
	sort.Strings(names)
	return names
}

// writeOK rejects a mutation up front when the WAL has latched failed (the
// op could never be flushed, so refusing before applying keeps the in-memory
// state aligned with what the log can acknowledge) or when the database is a
// read-only replication follower. Replayed and replicated records never come
// through here: they apply through the locked internals (replayBatch).
func (db *Database) writeOK() error {
	if db.readOnly.Load() {
		return ErrReadOnlyReplica
	}
	if d := db.dur; d != nil {
		return d.failedErr()
	}
	return nil
}

// Insert validates and appends a tuple to the named relation. Checks, in
// order: arity, NOT NULL, type conformance, primary-key uniqueness, and
// foreign-key existence (insert.go). It is a one-row InsertRows whose commit waits for
// the disk indefinitely.
func (db *Database) Insert(relName string, tup Tuple) error {
	_, err := db.InsertRows(context.Background(), relName, []Tuple{tup})
	return err
}

// InsertRows appends rows to the named relation in order, as one statement:
// one WAL record on a durable database, one published version in memory. It
// checks each row as Insert would, counting the statement's earlier rows as
// part of the table, stops at the first row refused and returns how many rows
// it appended before it; those rows stay, and are logged. ctx bounds the commit's
// append+fsync (see DurableOptions.SyncGrace).
func (db *Database) InsertRows(ctx context.Context, relName string, rows []Tuple) (int, error) {
	return db.write(ctx, relName, func(tbl *Table) (int, error) {
		return db.insertRowsLocked(tbl, rows, false)
	})
}

// write runs one statement — one mutating storage call: refuse it up front
// when the log has latched or the database is a follower, apply it under one
// hold of db.mu, publish the in-memory commit point (durable databases publish
// at WAL-commit time instead, so a snapshot seq always names an fsynced
// prefix), and flush, bounded by ctx. The flush runs even when apply failed —
// rows changed before a mid-statement constraint failure are applied state
// that must reach the log at this statement boundary, not ride inside the
// next one's record. It runs after db.mu is released because a triggered
// checkpoint re-acquires it for reading.
func (db *Database) write(ctx context.Context, relName string, apply func(*Table) (int, error)) (int, error) {
	if err := db.writeOK(); err != nil {
		return 0, err
	}
	db.mu.Lock()
	var n int
	tbl, err := db.tableLocked(relName)
	if err == nil {
		n, err = apply(tbl)
	}
	if db.dur == nil {
		db.publishLocked(db.nextPubSeqLocked())
	}
	db.mu.Unlock()
	if d := db.dur; d != nil {
		if ferr := d.commit(db, ctx); err == nil {
			err = ferr
		}
	}
	return n, err
}

// Delete removes all rows of relName matching pred and returns the count: a
// scan for the matching positions in front of DeleteAt's apply. pred sees one
// reused scratch tuple and must not retain it.
func (db *Database) Delete(relName string, pred func(Tuple) bool) (int, error) {
	return db.write(context.Background(), relName, func(tbl *Table) (int, error) {
		return db.deleteAtLocked(tbl, tbl.positionsWhere(pred))
	})
}

// DeleteAt removes the rows of relName at the given strictly ascending
// positions — the shape the engine's planned WHERE produces and the WAL
// records — in time proportional to the rows removed plus the rows behind the
// first one, which shift down. The removed rows' values leave the distinct
// counts and their zones, the primary key is patched for the removed and the
// shifted rows, and a row that slides into the previous zone leaves one zone
// map for the other; only a zone that lost one of its bounds is rescanned.
// ctx bounds the commit, as for InsertRows.
func (db *Database) DeleteAt(ctx context.Context, relName string, positions []int) (int, error) {
	return db.write(ctx, relName, func(tbl *Table) (int, error) {
		return db.deleteAtLocked(tbl, positions)
	})
}

// positionsWhere scans the table for the rows pred accepts. One scratch tuple
// serves every call, keeping the scan allocation-free.
func (t *Table) positionsWhere(pred func(Tuple) bool) []int {
	var positions []int
	scratch := make(Tuple, len(t.cols))
	for i := 0; i < t.rows; i++ {
		t.CopyRow(scratch, i)
		if pred(scratch) {
			positions = append(positions, i)
		}
	}
	return positions
}

// checkPositions rejects a position list that is not strictly ascending or
// reaches past the table — a replayed log record or a caller bug, never
// something to apply halfway.
func (t *Table) checkPositions(positions []int) error {
	prev := -1
	for _, p := range positions {
		if p <= prev || p >= t.rows {
			return fmt.Errorf("storage: row position %d of %s is out of order or past its %d rows", p, t.rel.Name, t.rows)
		}
		prev = p
	}
	return nil
}

// deleteAtLocked is the one delete path; the caller holds db.mu.
func (db *Database) deleteAtLocked(tbl *Table, positions []int) (int, error) {
	if err := tbl.checkPositions(positions); err != nil {
		return 0, err
	}
	if len(positions) == 0 {
		return 0, nil
	}
	// First in-place mutation of a possibly-shared table: unshare the flat
	// state, and own the chunks from the first removed row's zone on — the
	// rows that shift, and the chunk the next appends land in — so frozen
	// snapshot readers keep the originals.
	tbl.prepareMutate()
	keep := tbl.rows - len(positions)
	for j := range tbl.cols {
		tbl.cols[j].ownChunks(positions[0]>>ZoneShift, chunksFor(keep))
	}
	for _, p := range positions {
		for j := range tbl.cols {
			tbl.cols[j].releaseRow(p)
			tbl.cols[j].unfold(p)
		}
	}
	tbl.unindexRows(positions) // reads the keys of the rows about to move
	// Close the gaps: every run of surviving rows between two removed
	// positions slides down as one block.
	w := positions[0]
	for k, p := range positions {
		end := tbl.rows
		if k+1 < len(positions) {
			end = positions[k+1]
		}
		for j := range tbl.cols {
			tbl.cols[j].moveRows(w, p+1, end)
		}
		w += end - p - 1
	}
	for j := range tbl.cols {
		tbl.cols[j].truncate(w)
	}
	tbl.rows = w
	tbl.finishWrite(positions[0] >> ZoneShift)
	tbl.dirty = true
	if db.dur != nil {
		db.dur.logDelete(tbl.rel.Name, positions)
	}
	return len(positions), nil
}

// ownPK makes the primary-key page headers private to the live table before
// an entry is removed or re-pointed. Frozen snapshot views share them and only
// filter by position, so they must keep an untouched copy: the page-header
// array is copied (each page is cloned later, on its first write) and swapped
// in under idxMu. Inserts never need this — they only add positions past
// every frozen view.
func (t *Table) ownPK() {
	if !t.idxShared {
		return
	}
	t.idxShared = false
	pk := t.pk
	t.countCopied(pk.own())
	t.idxMu.Lock()
	t.pk = pk
	t.idxMu.Unlock()
}

// unindexRows patches the primary key for a delete of the given ascending
// positions, called while the vectors still hold the pre-compaction layout:
// the removed rows' keys leave, and every row behind the first removed one is
// re-pointed at the position it is about to slide down to. Rows in front of
// it are not visited, re-encoded or allocated for.
func (t *Table) unindexRows(removed []int) {
	if t.pkPos == nil {
		return
	}
	t.ownPK()
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	// Ascending order keeps (hash, position) unique while the walk runs:
	// every position re-pointed so far is below r.
	k := 0 // removed positions below r
	for r := removed[0]; r < t.rows; r++ {
		t.keyBuf = t.appendKeyAt(t.keyBuf[:0], r, t.pkPos)
		h := pkHash(t.keyBuf)
		slot := t.pk.slotOf(pkEntry(h, r))
		if k < len(removed) && removed[k] == r {
			t.countCopied(t.pk.removeAt(slot))
			k++
			continue
		}
		t.countCopied(t.pk.set(slot, pkEntry(h, r-k)))
	}
}

// rebuildPK rebuilds the primary-key slots from the vectors of a loaded
// segment, in bulk: one pass hashes every row's key image, read from the
// typed vectors, and bulkPlace fills fresh slots, sized for every row, page
// by page. The slots are swapped in under idxMu: frozen snapshot views keep
// the previous — now immutable — ones. Two rows with one primary key (only a
// corrupt checkpoint can hold them) are refused, leaving the index as it
// was, naming the rows a row-order walk would: the key's first row and the
// earliest row that repeats any key.
func (t *Table) rebuildPK() error {
	var pk pkIndex
	if t.pkPos != nil {
		hashes := make([]uint32, t.rows)
		for pos := range hashes {
			t.keyBuf = t.appendKeyAt(t.keyBuf[:0], pos, t.pkPos)
			hashes[pos] = pkHash(t.keyBuf)
		}
		slots := make([]uint64, pkSlotsFor(t.rows))
		if first, repeat := bulkPlace(slots, hashes, t.sameKey); repeat >= 0 {
			return fmt.Errorf("rows %d and %d share primary key %s", first, repeat, t.Tuple(repeat).pkString(t.pkPos))
		}
		pk = pkIndexOver(slots)
		pk.n = t.rows
	}
	t.idxMu.Lock()
	t.pk = pk
	t.idxMu.Unlock()
	t.idxShared = false
	return nil
}

// sameKey reports whether rows a and b hold one primary key.
func (t *Table) sameKey(a, b int) bool {
	var ka, kb [64]byte
	return bytes.Equal(t.appendKeyAt(ka[:0], a, t.pkPos), t.appendKeyAt(kb[:0], b, t.pkPos))
}

// Stats summarizes table cardinalities; the explain subsystem uses it for
// large-answer feedback.
func (db *Database) Stats() map[string]int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]int, len(db.tables))
	for _, t := range db.tables {
		out[t.rel.Name] = t.rows
	}
	return out
}

// DistinctCount returns the number of distinct non-NULL values in the named
// attribute, used by cardinality estimation — the Distinct that Stats
// derives, for one column.
func (db *Database) DistinctCount(relName, attr string) (int, error) {
	tbl := db.Table(relName)
	if tbl == nil {
		return 0, fmt.Errorf("storage: unknown relation %q", relName)
	}
	p := tbl.rel.AttrIndex(attr)
	if p < 0 {
		return 0, fmt.Errorf("storage: unknown attribute %s.%s", relName, attr)
	}
	return tbl.cols[p].stats(tbl.rows).Distinct, nil
}
