package storage

import (
	"context"
	"fmt"

	"repro/internal/value"
)

// This file keeps the row-at-a-time UPDATE the column-at-a-time path
// replaced, as the differential oracle of update_test.go: fn builds each
// replacement as its row is reached, every attribute of it is checked, the
// changed values are written one row at a time, and the applied rows log as
// op 0x03 — the record older versions wrote, which replay still reads.

// updatedRow is one applied row-loop UPDATE: the row position and its
// replacement.
type updatedRow struct {
	pos  int
	repl Tuple
}

// rowLoopUpdateAt is UpdateAt as older versions ran it: fn's replacement of
// each row at positions, checked and applied a row at a time.
func (db *Database) rowLoopUpdateAt(ctx context.Context, relName string, positions []int, fn func(Tuple) Tuple) (int, error) {
	return db.write(ctx, relName, func(tbl *Table) (int, error) {
		return db.rowLoopUpdateLocked(tbl, positions, fn)
	})
}

// rowLoopUpdateLocked is the row loop; the caller holds db.mu. Applied
// (position, replacement) pairs are logged — even when a constraint aborts
// the loop midway, because the earlier rows really were updated.
func (db *Database) rowLoopUpdateLocked(tbl *Table, positions []int, fn func(Tuple) Tuple) (int, error) {
	if err := tbl.checkPositions(positions); err != nil {
		return 0, err
	}
	r := tbl.rel
	var applied []updatedRow
	defer func() {
		if len(applied) == 0 {
			return
		}
		tbl.finishWrite(applied[0].pos >> ZoneShift)
		tbl.dirty = true
		if db.dur != nil {
			db.dur.logRowUpdate(r.Name, applied)
		}
	}()
	fks := db.foreignKeys(tbl)
	old := make(Tuple, len(tbl.cols))
	for _, i := range positions {
		tbl.CopyRow(old, i)
		repl := fn(old.Clone())
		if len(repl) != len(r.Attributes) {
			return len(applied), fmt.Errorf("storage: update of %s produced wrong arity", r.Name)
		}
		for j, a := range r.Attributes {
			if repl[j].IsNull() {
				if a.NotNull {
					return len(applied), fmt.Errorf("storage: %s.%s is NOT NULL", r.Name, a.Name)
				}
				continue
			}
			if want := value.CatalogKind(a.Type); repl[j].Kind() != want {
				coerced, err := value.Coerce(repl[j], want)
				if err != nil {
					return len(applied), fmt.Errorf("storage: %s.%s: %v", r.Name, a.Name, err)
				}
				repl[j] = coerced
			}
		}
		for _, fc := range fks {
			if keyChanged(old, repl, fc.attrs) {
				if err := fc.check(r, repl, nil, nil); err != nil {
					return len(applied), err
				}
			}
		}
		if err := tbl.rowLoopReindex(i, old, repl); err != nil {
			return len(applied), err
		}
		for j := range tbl.cols {
			if sameStored(old[j], repl[j]) {
				continue
			}
			tbl.prepareMutate()
			tbl.cols[j].setVal(i, repl[j])
		}
		applied = append(applied, updatedRow{pos: i, repl: repl})
	}
	return len(applied), nil
}

// logRowUpdate encodes applied rows as op 0x03, whole replacement rows.
func (d *durability) logRowUpdate(rel string, rows []updatedRow) {
	d.pending = append(d.pending, opUpdateRow)
	d.pending = appendString(d.pending, rel)
	d.pending = appendUvarint(d.pending, uint64(len(rows)))
	for _, u := range rows {
		d.pending = appendUvarint(d.pending, uint64(u.pos))
		d.pending = appendUvarint(d.pending, uint64(len(u.repl)))
		for _, v := range u.repl {
			d.pending = appendWalValue(d.pending, v)
		}
	}
	d.pendingOps++
}

// rowLoopReindex re-keys row i for a replacement tuple: nothing at all when
// no primary-key attribute changes, otherwise the old key leaves and the new
// key enters. A new primary key that already belongs to another row — as
// the columns, which hold the earlier rows' replacements, say — is refused
// before anything is touched.
func (t *Table) rowLoopReindex(i int, old, repl Tuple) error {
	if t.pkPos == nil || !keyChanged(old, repl, t.pkPos) {
		return nil
	}
	var kb [64]byte
	newKey := repl.AppendKey(kb[:0], t.pkPos)
	newHash := pkHash(newKey)
	if at := t.pkFind(&t.pk, newKey, newHash); at >= 0 && at != i {
		return fmt.Errorf("storage: duplicate primary key %s in %s", repl.pkString(t.pkPos), t.rel.Name)
	}
	t.ownPK()
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	t.keyBuf = old.AppendKey(t.keyBuf[:0], t.pkPos)
	t.countCopied(t.pk.removeAt(t.pk.slotOf(pkEntry(pkHash(t.keyBuf), i))))
	t.pk.add(newHash, i)
	return nil
}

// intern returns the code for s, assigning the next one on first sight. Only
// the writer calls it: the writer alone mutates the code table, so its lookup
// takes no lock, and only an insertion excludes snapshot readers.
func (d *dict) intern(s string) uint32 {
	h := strHash(s)
	if c, ok := d.find(s, h); ok {
		return c
	}
	d.codeMu.Lock()
	defer d.codeMu.Unlock()
	return d.add(s, h)
}

// setVal overwrites position i (Update path; v is coerced or NULL), cloning
// the one chunk it writes if a frozen view still shares it. The old value
// leaves row i's zone and the new one arrives in it.
func (c *column) setVal(i int, v value.Value) {
	null := v.IsNull()
	c.releaseRow(i) // the old value loses this row
	c.unfold(i)
	c.nulls.set(i, null)
	if !null && v.Kind() != c.kind {
		panic(fmt.Sprintf("storage: %s value stored into %s column", v.Kind(), c.kind))
	}
	z, off := i>>ZoneShift, i&ZoneMask
	switch c.kind {
	case value.Int:
		var x int64
		if !null {
			x = v.Int()
		}
		ownChunk(c, &c.ints, z)[off] = x
	case value.Date:
		var x int64
		if !null {
			x = v.DateDays()
		}
		ownChunk(c, &c.ints, z)[off] = x
	case value.Float:
		var x float64
		if !null {
			x = v.Float()
		}
		ownChunk(c, &c.flts, z)[off] = x
	case value.Text:
		var x uint32
		if !null {
			x = c.dict.intern(v.Text())
		}
		ownChunk(c, &c.codes, z)[off] = x
	case value.Bool:
		ownChunk(c, &c.bls, z)[off] = !null && v.Bool()
	}
	c.retainRow(i)
	c.arrive(i)
}

// retainRow notes that row i's stored value is live: a text row holds its
// dictionary code, a numeric row counts once more under its value.Key64.
// setVal calls it after storing the payload and the null bit.
func (c *column) retainRow(i int) {
	if c.nulls.get(i) {
		return
	}
	switch c.kind {
	case value.Text:
		c.dict.retain(c.code(i))
	case value.Int, value.Float, value.Date:
		c.counts.add(c.value(i).Key64(), 1)
	}
}
