package storage

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/value"
)

// This file is the one insert path. A batch of rows — an INSERT statement,
// one storage call of a bulk load, a WAL record's run of inserts into one
// table — is checked row by row in order, against the table and against the
// batch's earlier rows, and the accepted prefix is then appended a column at
// a time: typed payload stores, one dictionary lock hold per TEXT column, one
// pass extending the distinct counts and zone maps over the new range, and
// one primary-key lock hold for the new entries.

// fkCheck is one foreign key of a table, resolved against the database once:
// the referenced table and where each key value sits in a row.
type fkCheck struct {
	fk  catalog.ForeignKey
	ref *Table
	// attrs are the row positions of fk.Attrs, in fk order.
	attrs []int
	// probe lists the row positions supplying the referenced table's primary
	// key, in its declaration order, when fk references exactly that key; nil
	// sends the check to a scan of refPos, the referenced attributes'
	// positions in fk order.
	probe  []int
	refPos []int
	// found is an INSERT's scratch: the last probe key it found, valid while
	// foundOK — the statement's rows often repeat a key (the cast of one
	// movie), and the rows a key finds stay put until the statement ends.
	found   []byte
	foundOK bool
}

// foreignKeys returns the table's resolved foreign keys; the caller holds
// db.mu. Resolution runs on the first write that needs it and is kept: the
// schema never changes, and the database replaces all its tables at once
// (reseed), never the one a key references alone. A key whose referenced
// relation has no table here (a detached table) resolves with a nil ref and
// refuses every row it checks.
func (db *Database) foreignKeys(tbl *Table) []fkCheck {
	r := tbl.rel
	if tbl.fksResolved || len(r.ForeignKey) == 0 {
		return tbl.fks
	}
	tbl.fks = make([]fkCheck, len(r.ForeignKey))
	for i, fk := range r.ForeignKey {
		fc := &tbl.fks[i]
		fc.fk = fk
		fc.ref = db.index.table(db.tables, fk.RefRelation)
		fc.attrs = make([]int, len(fk.Attrs))
		for j, a := range fk.Attrs {
			fc.attrs[j] = r.AttrIndex(a)
		}
		if fc.ref == nil {
			continue
		}
		ref := fc.ref
		if ref.rel.IsPrimaryKey(fk.RefAttrs) && ref.pkPos != nil {
			fc.probe = make([]int, 0, len(ref.pkPos))
			for _, pos := range ref.pkPos {
				for j, ra := range fk.RefAttrs {
					if ref.rel.AttrIndex(ra) == pos {
						fc.probe = append(fc.probe, fc.attrs[j])
					}
				}
			}
			continue
		}
		fc.refPos = make([]int, len(fk.RefAttrs))
		for j, a := range fk.RefAttrs {
			fc.refPos[j] = ref.rel.AttrIndex(a)
		}
	}
	tbl.fksResolved = true
	return tbl.fks
}

// check refuses tup when its fk values are all non-NULL and no row of the
// referenced relation holds them. INSERT runs it on every row, UPDATE on a
// replacement that changes an fk attribute of a key into another table
// (a key into the updated table itself goes to colUpdate.checkSelfFK). An
// INSERT passes the statement's rows accepted so far as batch — when fk
// references its own table they count as rows of it — and keys indexing
// their primary keys; UPDATE passes neither.
// The caller's keyBuf may hold tup's own key: check encodes into its own.
func (fc *fkCheck) check(r *catalog.Relation, tup Tuple, batch []Tuple, keys *batchKeys) error {
	if fc.ref == nil {
		return fmt.Errorf("storage: foreign key of %s references missing table %q", r.Name, fc.fk.RefRelation)
	}
	for _, p := range fc.attrs {
		if tup[p].IsNull() {
			return nil // SQL: NULL FK values are not checked
		}
	}
	self := fc.ref.rel == r
	if fc.probe != nil {
		// One probe of an encoded key in the referenced table's primary-key
		// declaration order.
		var kb [64]byte
		key := tup.AppendKey(kb[:0], fc.probe)
		if keys != nil && fc.foundOK && bytes.Equal(key, fc.found) {
			return nil
		}
		_, ok := fc.ref.LookupPKPos(key)
		if !ok && self && keys != nil {
			ok = keys.find(batch, fc.ref.pkPos, key, pkHash(key)) >= 0
		}
		if ok {
			if keys != nil {
				fc.found, fc.foundOK = append(fc.found[:0], key...), true
			}
			return nil
		}
		return fc.refused(r, tup)
	}
	// Scan the referenced columns, then — for a key into its own table —
	// the statement's earlier rows.
	ref := fc.ref
	for row := 0; row < ref.rows; row++ {
		match := true
		for i, p := range fc.refPos {
			if ref.cols[p].nulls.get(row) || !ref.cols[p].value(row).Equal(tup[fc.attrs[i]]) {
				match = false
				break
			}
		}
		if match {
			return nil
		}
	}
	if self {
		for _, prev := range batch {
			match := true
			for i, p := range fc.refPos {
				if prev[p].IsNull() || !prev[p].Equal(tup[fc.attrs[i]]) {
					match = false
					break
				}
			}
			if match {
				return nil
			}
		}
	}
	return fc.refused(r, tup)
}

// refused is the violation error for tup, whose key no referenced row holds.
func (fc *fkCheck) refused(r *catalog.Relation, tup Tuple) error {
	if fc.probe != nil {
		return fmt.Errorf("storage: foreign key violation: %s(%s) -> %s(%s) value %s not found",
			r.Name, strings.Join(fc.fk.Attrs, ","), fc.fk.RefRelation, strings.Join(fc.fk.RefAttrs, ","), fc.values(tup))
	}
	return fmt.Errorf("storage: foreign key violation: %s -> %s value %s not found",
		r.Name, fc.fk.RefRelation, fc.values(tup))
}

// values returns tup's values of the key's attributes, in fk order, for an
// error message.
func (fc *fkCheck) values(tup Tuple) Tuple {
	vals := make(Tuple, len(fc.attrs))
	for i, p := range fc.attrs {
		vals[i] = tup[p]
	}
	return vals
}

// pkString renders the values at positions for error messages.
func (t Tuple) pkString(positions []int) string {
	parts := make([]string, len(positions))
	for i, p := range positions {
		parts[i] = t[p].String()
	}
	return strings.Join(parts, "|")
}

// batchKeys indexes the primary keys of a statement's accepted rows: their
// hashes, and an open-addressed table of row numbers over them, probed like
// the primary key's own — a candidate is confirmed by re-encoding its row's
// key. It is a statement's scratch: the database's own (Database.batch),
// reused from statement to statement under db.mu.
type batchKeys struct {
	hashes []uint32
	// at is where each row's probe of the primary key ended, the slot its
	// entry goes in or past.
	at    []int32
	slots []uint32 // row+1, 0 for empty
}

// batchKeep is the most rows whose scratch a database keeps after a
// statement (about 20 bytes a row): a bulk load's is dropped with it.
const batchKeep = 1 << 14

// reset empties the index for a statement of n rows, with room for all of
// them; a one-row statement keeps no table, having no earlier rows to probe,
// and neither does a table without a primary key.
func (b *batchKeys) reset(n int, keyed bool) {
	if cap(b.hashes) < n {
		b.hashes, b.at = make([]uint32, 0, n), make([]int32, 0, n)
	} else {
		b.hashes, b.at = b.hashes[:0], b.at[:0]
	}
	size := 0
	if n > 1 && keyed {
		size = pkSlotsFor(n)
	}
	if cap(b.slots) < size {
		b.slots = make([]uint32, size)
	} else {
		b.slots = b.slots[:size]
		clear(b.slots)
	}
}

// find returns the row of rows whose key over positions encodes to key (hash
// h), or -1.
func (b *batchKeys) find(rows []Tuple, positions []int, key []byte, h uint32) int {
	if len(b.slots) == 0 {
		return -1
	}
	var kb [64]byte
	mask := len(b.slots) - 1
	for i := int(h) & mask; b.slots[i] != 0; i = (i + 1) & mask {
		if k := int(b.slots[i]) - 1; b.hashes[k] == h && bytes.Equal(rows[k].AppendKey(kb[:0], positions), key) {
			return k
		}
	}
	return -1
}

// add enters the next row, whose key hashes to h and whose probe of the
// primary key ended at slot at.
func (b *batchKeys) add(h uint32, at int) {
	b.hashes, b.at = append(b.hashes, h), append(b.at, int32(at))
	if len(b.slots) == 0 {
		return
	}
	mask := len(b.slots) - 1
	i := int(h) & mask
	for b.slots[i] != 0 {
		i = (i + 1) & mask
	}
	b.slots[i] = uint32(len(b.hashes))
}

// insertRowsLocked is the one insert path; the caller holds db.mu. It checks
// rows in order — arity, NOT NULL and type conformance attribute by
// attribute (coercing values in place), room in the table, primary-key
// uniqueness against the table and the batch's earlier rows, and every
// foreign key — and stops at the first row refused. The rows before it are
// appended a column at a time and logged one op each, as one-row inserts
// would log them. borrowed marks TEXT values that alias a buffer the caller
// reuses (a WAL record): the dictionary copies a string it keeps.
func (db *Database) insertRowsLocked(tbl *Table, rows []Tuple, borrowed bool) (int, error) {
	b := &db.batch
	n, err := db.checkRows(tbl, rows, b)
	if n > 0 {
		tbl.appendRows(rows[:n], b, borrowed)
		if db.dur != nil {
			for _, tup := range rows[:n] {
				db.dur.logInsert(tbl.rel.Name, tup)
			}
		}
	}
	if cap(b.hashes) > batchKeep {
		*b = batchKeys{}
	}
	return n, err
}

// checkRows returns how many leading rows pass the insert checks, and the
// refusal of the next one. It leaves the accepted rows' primary-key hashes
// and probe ends in b (zero and -1 for a table without a primary key).
func (db *Database) checkRows(tbl *Table, rows []Tuple, b *batchKeys) (int, error) {
	r := tbl.rel
	fks := db.foreignKeys(tbl)
	b.reset(len(rows), tbl.pkPos != nil)
	for i := range fks {
		fks[i].foundOK = false
	}
	if tbl.pkPos != nil {
		// Room for every row up front: no entry moves while the rows are
		// checked, so each probe's end slot stays where its entry goes.
		tbl.idxMu.Lock()
		tbl.pk.reserve(len(rows))
		tbl.idxMu.Unlock()
	}
	for k, tup := range rows {
		if len(tup) != len(r.Attributes) {
			return k, fmt.Errorf("storage: %s expects %d values, got %d", r.Name, len(r.Attributes), len(tup))
		}
		for i, a := range r.Attributes {
			v := tup[i]
			if v.IsNull() {
				if a.NotNull {
					return k, fmt.Errorf("storage: %s.%s is NOT NULL", r.Name, a.Name)
				}
				continue
			}
			if want := tbl.cols[i].kind; v.Kind() != want {
				coerced, err := value.Coerce(v, want)
				if err != nil {
					return k, fmt.Errorf("storage: %s.%s: %v", r.Name, a.Name, err)
				}
				tup[i] = coerced
			}
		}
		var h uint32
		at := -1
		if tbl.pkPos != nil {
			if uint64(tbl.rows+k) >= math.MaxUint32 {
				// The index stores pos+1 in 32 bits.
				return k, fmt.Errorf("storage: %s is full at %d rows", r.Name, tbl.rows+k)
			}
			tbl.keyBuf = tup.AppendKey(tbl.keyBuf[:0], tbl.pkPos)
			h = pkHash(tbl.keyBuf)
			var pos int
			if pos, at = tbl.pkProbe(&tbl.pk, tbl.keyBuf, h); pos >= 0 || b.find(rows[:k], tbl.pkPos, tbl.keyBuf, h) >= 0 {
				return k, fmt.Errorf("storage: duplicate primary key %s in %s", tup.pkString(tbl.pkPos), r.Name)
			}
		}
		for i := range fks {
			if err := fks[i].check(r, tup, rows[:k], b); err != nil {
				return k, err
			}
		}
		b.add(h, at)
	}
	return len(rows), nil
}

// appendRows appends checked rows: each column stores its payloads and
// extends its derived state over the new range, then the primary key takes
// the rows' entries under one idxMu hold. The new positions sit at or past
// every frozen view's row count, which the snapshot-side probes filter out.
func (tbl *Table) appendRows(rows []Tuple, b *batchKeys, borrowed bool) {
	lo, hi := tbl.rows, tbl.rows+len(rows)
	// Payloads move a block of rows at a time, each column in turn, so the
	// block's tuples stay in cache across the columns.
	for k := 0; k < len(rows); k += appendBlock {
		block := rows[k:min(k+appendBlock, len(rows))]
		for j := range tbl.cols {
			tbl.cols[j].appendPayloads(block, j, lo+k, borrowed)
		}
	}
	for j := range tbl.cols {
		c := &tbl.cols[j]
		if c.kind == value.Text && c.dict.held {
			c.dict.held = false
			c.dict.codeMu.Unlock()
		}
		c.extend(lo, hi)
	}
	if tbl.pkPos != nil {
		// checkRows reserved the room; each entry goes in at or past the slot
		// its probe ended at, the batch's earlier entries having filled it.
		tbl.idxMu.Lock()
		for k, h := range b.hashes {
			tbl.pk.placeFrom(int(b.at[k]), pkEntry(h, lo+k))
		}
		tbl.pk.n += len(rows)
		tbl.idxMu.Unlock()
	}
	tbl.rows = hi
	// Sorted-dict ranks rebuild lazily on the next ranked read, so bulk
	// loads stay linear.
	tbl.dirty = true
}

// appendBlock is the number of rows appendRows moves per column pass.
const appendBlock = 256
