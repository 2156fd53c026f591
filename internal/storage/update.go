package storage

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/value"
)

// This file is the one update path. An UPDATE arrives a column at a time:
// the ascending row positions it changes, the attributes it sets, and one run
// of new values per attribute. A check pass walks the rows in position order
// and stops at the first row refused — NOT NULL and kind coercion a column at
// a time, then the foreign keys a changed attribute belongs to and, when a
// key attribute changes, the primary key's re-keying, a row at a time. The
// apply pass then writes the accepted prefix one column at a time: each
// zone's payload chunk is made the writer's own once, every changed row's
// old value leaves the distinct counts and its zone and the new one arrives,
// and the zones left stale are rescanned once. Live UPDATE, the raw
// Update(pred, fn), WAL replay and follower apply all go through it.

// UpdateAt sets, at the given strictly ascending positions of relName, the
// attributes attrs (strictly ascending attribute indexes) to vals: vals holds
// one run of len(positions) values per attribute, in attrs order, so
// attrs[c]'s new value at positions[k] is vals[c*len(positions)+k]. Values
// are coerced in place. NOT NULL, types, the foreign keys a changed attribute
// belongs to and primary-key uniqueness are checked row by row in position
// order, each row against the rows updated before it; a failure stops the
// statement there, leaving the earlier rows updated and logged. A value equal
// to the stored one leaves the row's attribute as it is. The cost is
// proportional to the rows and attributes set: only changed values touch
// their vectors, statistics and zone maps, the primary key is patched only
// where it changed, and only a zone whose bound a replaced value held is
// rescanned. ctx bounds the commit, as for InsertRows.
func (db *Database) UpdateAt(ctx context.Context, relName string, positions, attrs []int, vals []value.Value) (int, error) {
	return db.write(ctx, relName, func(tbl *Table) (int, error) {
		return db.updateAtLocked(tbl, positions, attrs, vals, false)
	})
}

// Update applies fn to every row of relName matching pred: a scan for the
// matching positions, then fn's replacement of each as one column-at-a-time
// UpdateAt of the attributes any replacement changes, so pred and fn see
// every row as it was before the statement. pred and fn see one reused
// scratch tuple; fn may edit and return it, and neither may retain it. A
// replacement of the wrong arity refuses the statement at its row, after the
// rows before it are updated.
func (db *Database) Update(relName string, pred func(Tuple) bool, fn func(Tuple) Tuple) (int, error) {
	return db.write(context.Background(), relName, func(tbl *Table) (int, error) {
		return db.updateRowsLocked(tbl, tbl.positionsWhere(pred), fn)
	})
}

// updateRowsLocked updates the rows at positions with fn's replacements; the
// caller holds db.mu. A replacement of the wrong arity stops the statement at
// its row, once the rows before it are updated.
func (db *Database) updateRowsLocked(tbl *Table, positions []int, fn func(Tuple) Tuple) (int, error) {
	if err := tbl.checkPositions(positions); err != nil {
		return 0, err
	}
	n, w := len(positions), len(tbl.cols)
	vals := make([]value.Value, n*w)
	scratch := make(Tuple, w)
	rows := n
	for k, p := range positions {
		tbl.CopyRow(scratch, p)
		repl := fn(scratch)
		if len(repl) != w {
			rows = k
			break
		}
		for j, v := range repl {
			vals[j*n+k] = v
		}
	}
	return db.updateWholeRowsLocked(tbl, positions, vals, rows, false)
}

// updateWholeRowsLocked updates the rows at positions, which the caller has
// checked, with whole replacement rows: vals holds one run of len(positions)
// values per attribute of the table, of which the first rows hold
// replacements. Only the attributes some replacement changes go to the update
// path. When rows falls short, the row past them had the wrong arity and
// refuses the statement once the rows before it are updated.
func (db *Database) updateWholeRowsLocked(tbl *Table, positions []int, vals []value.Value, rows int, borrowed bool) (int, error) {
	n := len(positions)
	attrs := make([]int, 0, len(tbl.cols))
	for j := range tbl.cols {
		for k, p := range positions[:rows] {
			if !sameStored(tbl.cols[j].value(p), vals[j*n+k]) {
				// Runs move down in ascending order, never over one still
				// to be read.
				to := len(attrs)
				copy(vals[to*rows:(to+1)*rows], vals[j*n:j*n+rows])
				attrs = append(attrs, j)
				break
			}
		}
	}
	applied, err := db.updateAtLocked(tbl, positions[:rows], attrs, vals[:len(attrs)*rows], borrowed)
	if err == nil && rows < n {
		err = fmt.Errorf("storage: update of %s produced wrong arity", tbl.rel.Name)
	}
	return applied, err
}

// colUpdate is one UPDATE statement as the update path sees it: its table,
// positions, set attributes and their runs of new values.
type colUpdate struct {
	tbl   *Table
	pos   []int
	attrs []int
	vals  []value.Value
}

// run returns the new values of attrs[c].
func (u *colUpdate) run(c int) []value.Value {
	n := len(u.pos)
	return u.vals[c*n : (c+1)*n]
}

// updateAtLocked is the one update path; the caller holds db.mu. The
// accepted prefix is applied and logged — even when a constraint stops the
// statement midway, because those rows really are updated and recovery must
// reproduce them. borrowed marks TEXT values that alias a buffer the caller
// reuses (a WAL record): the dictionary copies a string it keeps.
func (db *Database) updateAtLocked(tbl *Table, positions, attrs []int, vals []value.Value, borrowed bool) (int, error) {
	if err := tbl.checkPositions(positions); err != nil {
		return 0, err
	}
	if err := tbl.checkAttrs(attrs, len(positions), len(vals)); err != nil {
		return 0, err
	}
	u := colUpdate{tbl: tbl, pos: positions, attrs: attrs, vals: vals}
	n, err := db.checkUpdate(&u)
	if n == 0 {
		return 0, err
	}
	for c, a := range attrs {
		tbl.cols[a].setRun(tbl, positions[:n], u.run(c)[:n], borrowed)
	}
	tbl.finishWrite(positions[0] >> ZoneShift)
	tbl.dirty = true
	if db.dur != nil {
		db.dur.logUpdate(tbl.rel.Name, positions[:n], attrs, vals, len(positions))
	}
	return n, err
}

// checkAttrs rejects a set-attribute list that is not strictly ascending or
// names no attribute of the table, and a value list that is not one run of
// rows values per attribute — a replayed log record or a caller bug.
func (t *Table) checkAttrs(attrs []int, rows, vals int) error {
	prev := -1
	for _, a := range attrs {
		if a <= prev || a >= len(t.cols) {
			return fmt.Errorf("storage: update of %s sets attribute %d out of order or past its %d attributes", t.rel.Name, a, len(t.cols))
		}
		prev = a
	}
	if vals != len(attrs)*rows {
		return fmt.Errorf("storage: update of %s carries %d values for %d rows of %d attributes", t.rel.Name, vals, rows, len(attrs))
	}
	return nil
}

// checkUpdate returns how many leading rows of u pass the update checks and
// the refusal of the next one, coercing the values of the rows it passes in
// place. It stops at the row, and with the error, a row-at-a-time check in
// position order would: NOT NULL and kind coercion attribute by attribute in
// declaration order, then every foreign key a changed attribute belongs to,
// then primary-key uniqueness. A changed primary key is re-keyed as its row
// passes, so the next rows are checked against the key set the rows before
// them leave.
func (db *Database) checkUpdate(u *colUpdate) (int, error) {
	tbl, r := u.tbl, u.tbl.rel
	// A column at a time: a later attribute only looks for a refusal in an
	// earlier row, so at the stopping row the first attribute refusing it
	// in declaration order wins.
	stop := len(u.pos)
	var err error
	for c, a := range u.attrs {
		attr, want := r.Attributes[a], tbl.cols[a].kind
		run := u.run(c)[:stop]
		for k, v := range run {
			if v.IsNull() {
				if attr.NotNull {
					stop, err = k, fmt.Errorf("storage: %s.%s is NOT NULL", r.Name, attr.Name)
					break
				}
				continue
			}
			if v.Kind() != want {
				coerced, cerr := value.Coerce(v, want)
				if cerr != nil {
					stop, err = k, fmt.Errorf("storage: %s.%s: %v", r.Name, attr.Name, cerr)
					break
				}
				run[k] = coerced
			}
		}
	}
	fks := db.foreignKeys(tbl)
	var setFKs []*fkCheck
	for i := range fks {
		if u.setsAny(fks[i].attrs) {
			setFKs = append(setFKs, &fks[i])
		}
	}
	rekey := tbl.pkPos != nil && u.setsAny(tbl.pkPos)
	if len(setFKs) == 0 && !rekey {
		return stop, err
	}
	// The keyed checks read whole rows: the stored one and its
	// replacement.
	old, repl := make(Tuple, len(tbl.cols)), make(Tuple, len(tbl.cols))
	for k := 0; k < stop; k++ {
		tbl.CopyRow(old, u.pos[k])
		copy(repl, old)
		for c, a := range u.attrs {
			repl[a] = u.run(c)[k]
		}
		for _, fc := range setFKs {
			if !keyChanged(old, repl, fc.attrs) {
				continue
			}
			var ferr error
			if fc.ref == tbl {
				ferr = u.checkSelfFK(fc, repl, k)
			} else {
				ferr = fc.check(r, repl, nil, nil)
			}
			if ferr != nil {
				return k, ferr
			}
		}
		if rekey && keyChanged(old, repl, tbl.pkPos) {
			if kerr := u.rekey(k, old, repl); kerr != nil {
				return k, kerr
			}
		}
	}
	return stop, err
}

// setsAny reports whether the statement sets any of the attributes.
func (u *colUpdate) setsAny(attrs []int) bool {
	for _, a := range attrs {
		if u.slot(a) >= 0 {
			return true
		}
	}
	return false
}

// slot returns the index of attribute a among the set attributes, or -1.
func (u *colUpdate) slot(a int) int {
	c, ok := slices.BinarySearch(u.attrs, a)
	if !ok {
		return -1
	}
	return c
}

// valueAt returns attribute a of the table's row as the statement's first k
// rows leave it, before any of them is applied: the new value where one of
// them sets a, the stored one otherwise. (A new value the apply skips as
// equal to the stored one encodes and compares as it does.)
func (u *colUpdate) valueAt(row, a, k int) value.Value {
	if c := u.slot(a); c >= 0 {
		if i, ok := slices.BinarySearch(u.pos[:k], row); ok {
			return u.run(c)[i]
		}
	}
	return u.tbl.cols[a].value(row)
}

// find returns the row whose primary key, as the statement's first k rows
// leave it, encodes to key (hash h), or -1: a probe of the primary key, which
// those rows have re-keyed, confirming a candidate by its key as valueAt
// reads it.
func (u *colUpdate) find(key []byte, h uint32, k int) int {
	t := u.tbl
	x := &t.pk
	if x.size == 0 {
		return -1
	}
	var kb [64]byte
	mask := x.size - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := x.at(i)
		if e == 0 {
			return -1
		}
		if entryHash(e) != h {
			continue
		}
		pos := entryPos(e)
		buf := kb[:0]
		for _, a := range t.pkPos {
			buf = u.valueAt(pos, a, k).AppendKey(buf)
		}
		if bytes.Equal(buf, key) {
			return pos
		}
	}
}

// rekey moves row k's primary-key entry from its old key to the one repl
// holds, refusing a key another row already holds before anything is touched.
func (u *colUpdate) rekey(k int, old, repl Tuple) error {
	t, i := u.tbl, u.pos[k]
	var kb [64]byte
	newKey := repl.AppendKey(kb[:0], t.pkPos)
	newHash := pkHash(newKey)
	if at := u.find(newKey, newHash, k); at >= 0 && at != i {
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

// checkSelfFK is fkCheck.check for a foreign key into the updated table
// itself, whose referenced rows are read as the statement's first k rows
// leave them.
func (u *colUpdate) checkSelfFK(fc *fkCheck, repl Tuple, k int) error {
	for _, p := range fc.attrs {
		if repl[p].IsNull() {
			return nil // SQL: NULL FK values are not checked
		}
	}
	if fc.probe != nil {
		var kb [64]byte
		key := repl.AppendKey(kb[:0], fc.probe)
		if u.find(key, pkHash(key), k) >= 0 {
			return nil
		}
		return fc.refused(u.tbl.rel, repl)
	}
	for row := 0; row < u.tbl.rows; row++ {
		match := true
		for i, p := range fc.refPos {
			if v := u.valueAt(row, p, k); v.IsNull() || !v.Equal(repl[fc.attrs[i]]) {
				match = false
				break
			}
		}
		if match {
			return nil
		}
	}
	return fc.refused(u.tbl.rel, repl)
}

// setRun writes the checked values vals over the rows at positions
// (ascending), skipping a value equal to the stored one (sameStored): the
// old value leaves the distinct counts and its zone, the payload and NULL bit
// are stored, and the new value arrives. A zone's payload chunk is made the
// writer's own at its first changed row, and the table's flat state before
// its first change.
func (c *column) setRun(tbl *Table, positions []int, vals []value.Value, borrowed bool) {
	switch c.kind {
	case value.Int:
		setRunOf(c, tbl, &c.ints, positions, vals, value.Value.Int, func(x int64) uint64 { return value.NewInt(x).Key64() })
	case value.Date:
		setRunOf(c, tbl, &c.ints, positions, vals, value.Value.DateDays, func(x int64) uint64 { return value.NewDateDays(x).Key64() })
	case value.Float:
		setRunOf(c, tbl, &c.flts, positions, vals, value.Value.Float, func(x float64) uint64 { return value.NewFloat(x).Key64() })
	case value.Bool:
		setRunOf(c, tbl, &c.bls, positions, vals, value.Value.Bool, nil)
	case value.Text:
		setTextRun(c, tbl, positions, vals, borrowed)
	default:
		panic(fmt.Sprintf("storage: column of kind %s", c.kind))
	}
}

// setRunOf is setRun over a numeric or boolean payload vector: payload reads
// a non-NULL value's payload, which equals the stored one exactly when the
// values are sameStored, and key is the distinct counts' key of a payload
// (nil for Bool, which keeps no counts).
func setRunOf[T int64 | float64 | bool](c *column, tbl *Table, vec *[][]T, positions []int, vals []value.Value,
	payload func(value.Value) T, key func(T) uint64) {
	var chunk []T
	z := -1
	for k, i := range positions {
		v := vals[k]
		null, wasNull := v.IsNull(), c.nulls.get(i)
		if !null && v.Kind() != c.kind {
			panic(fmt.Sprintf("storage: %s value stored into %s column", v.Kind(), c.kind))
		}
		old := (*vec)[i>>ZoneShift][i&ZoneMask]
		var x T
		if !null {
			x = payload(v)
		}
		if null == wasNull && (null || x == old) {
			continue
		}
		if i>>ZoneShift != z {
			// First overwrite of a possibly-shared table: unshare the flat
			// state so frozen snapshot readers keep the originals.
			tbl.prepareMutate()
			z = i >> ZoneShift
			chunk = ownChunk(c, vec, z)
		}
		if key != nil && !wasNull {
			c.counts.remove(key(old))
		}
		c.unfold(i)
		c.nulls.set(i, null)
		chunk[i&ZoneMask] = x
		if key != nil && !null {
			c.counts.add(key(x), 1)
		}
		c.arrive(i)
	}
}

// setTextRun is setRun over a TEXT column's codes: a new string enters the
// dictionary (copied when borrowed), and the references move from the old
// code to the new.
func setTextRun(c *column, tbl *Table, positions []int, vals []value.Value, borrowed bool) {
	d := c.dict
	var chunk []uint32
	z := -1
	for k, i := range positions {
		v := vals[k]
		null, wasNull := v.IsNull(), c.nulls.get(i)
		if !null && v.Kind() != value.Text {
			panic(fmt.Sprintf("storage: %s value stored into %s column", v.Kind(), c.kind))
		}
		old := c.codes[i>>ZoneShift][i&ZoneMask]
		if null == wasNull && (null || d.strs[old] == v.Text()) {
			continue
		}
		if i>>ZoneShift != z {
			tbl.prepareMutate()
			z = i >> ZoneShift
			chunk = ownChunk(c, &c.codes, z)
		}
		if !wasNull {
			d.release(old)
		}
		c.unfold(i)
		c.nulls.set(i, null)
		var code uint32
		if !null {
			s := v.Text()
			h := strHash(s)
			var ok bool
			if code, ok = d.find(s, h); !ok {
				// The writer alone mutates the code table, so its lookup
				// needs no lock; an insertion excludes snapshot readers.
				if borrowed {
					s = strings.Clone(s)
				}
				d.codeMu.Lock()
				code = d.add(s, h)
				d.codeMu.Unlock()
			}
			d.retain(code)
		}
		chunk[i&ZoneMask] = code
		c.arrive(i)
	}
}

// sameStored reports whether replacing a by b would leave the stored value as
// it is. NaN never equals itself, so a NaN replacement counts as a change —
// harmless, the write just is not skipped.
func sameStored(a, b value.Value) bool {
	return a.Kind() == b.Kind() && a.Equal(b)
}

// keyChanged reports whether the replacement alters the key over positions.
func keyChanged(old, repl Tuple, positions []int) bool {
	for _, p := range positions {
		if !sameStored(old[p], repl[p]) {
			return true
		}
	}
	return false
}
