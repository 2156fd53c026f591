package storage

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/value"
	"repro/internal/wal"
)

// This file serializes tables as checkpoint segments. A checkpoint file is a
// sequence of CRC-framed records (the same framing as the WAL): a header
// record carrying the schema fingerprint and the WAL sequence floor, then one
// record per table. Column payloads reuse the in-memory encodings: Int/Date
// columns with a live frame-of-reference encoding spill exactly that (one
// varint base per zone plus one byte delta per row), text columns spill their
// dictionary pages (strings once, then per-row codes), floats spill raw bits,
// and bools bit-pack. On load, zone maps, frame-of-reference deltas, the
// primary key and statistics are rebuilt from the vectors — derived state is
// never trusted from disk — one goroutine per column and one for the key.

// segmentMagic versions the checkpoint format.
const segmentMagic = "TBSEG1"

// SchemaFingerprint hashes the schema's DDL rendering; a checkpoint written
// under a different schema refuses to load instead of misinterpreting
// vectors.
func SchemaFingerprint(db *Database) uint64 {
	h := fnv.New64a()
	h.Write([]byte(db.schema.String()))
	return h.Sum64()
}

// writeCheckpointTables serializes the given tables into w: header record
// first, then one record per table in sorted lower-case name order. lastSeq is the WAL
// sequence floor — recovery skips WAL records at or below it, which makes the
// checkpoint-then-truncate sequence crash-safe at every intermediate point.
// Checkpoints pass a pinned snapshot's frozen tables, so serialization runs
// without db.mu and never blocks readers or writers; the caller guarantees
// the floor and the table set describe the same committed prefix.
func (db *Database) writeCheckpointTables(w *wal.Writer, tables []*Table, lastSeq uint64) error {
	names := make([]string, 0, len(tables))
	byName := make(map[string]*Table, len(tables))
	for _, t := range tables {
		name := strings.ToLower(t.rel.Name)
		names = append(names, name)
		byName[name] = t
	}
	sort.Strings(names)

	var buf []byte
	buf = append(buf, segmentMagic...)
	buf = appendUvarint(buf, SchemaFingerprint(db))
	buf = appendUvarint(buf, lastSeq)
	buf = appendUvarint(buf, uint64(len(names)))
	if err := w.Append(buf); err != nil {
		return err
	}
	for _, name := range names {
		tbl := byName[name]
		buf = tbl.appendSegment(buf[:0])
		if err := w.Append(buf); err != nil {
			return fmt.Errorf("storage: checkpointing %s: %w", tbl.rel.Name, err)
		}
	}
	return nil
}

// appendSegment serializes one table into buf.
func (t *Table) appendSegment(buf []byte) []byte {
	buf = appendString(buf, t.rel.Name)
	buf = appendUvarint(buf, uint64(t.rows))
	buf = appendUvarint(buf, uint64(len(t.cols)))
	for i := range t.cols {
		buf = t.cols[i].appendSegment(buf, t.rows)
	}
	// The index-definition count, always zero: the primary key rebuilds from
	// the vectors, and a segment that defines an index is refused on load.
	return appendUvarint(buf, 0)
}

// Column payload encodings within a segment.
const (
	colEncRaw = 0 // typed values, varint/raw
	colEncFOR = 1 // Int/Date frame-of-reference: zone bases + byte deltas
)

func (c *column) appendSegment(buf []byte, rows int) []byte {
	buf = append(buf, byte(c.kind))
	ranked := byte(0)
	if c.kind == value.Text && c.dict.ranked {
		ranked = 1
	}
	buf = append(buf, ranked)
	// Null bitmap: word count, then raw words. A frozen column keeps its
	// masked boundary bits in a private tail word; emit it as one more word —
	// exactly the live representation the decoder rebuilds.
	words := uint64(len(c.nulls.words))
	if c.nulls.tail != 0 {
		words++
	}
	buf = appendUvarint(buf, words)
	for _, w := range c.nulls.words {
		buf = appendUvarint(buf, w)
	}
	if c.nulls.tail != 0 {
		buf = appendUvarint(buf, c.nulls.tail)
	}
	switch c.kind {
	case value.Int, value.Date:
		if !c.forOff && c.d8Rows() == rows && c.zrows == rows && rows > 0 {
			// Frame-of-reference page: the PR-6 in-memory encoding is the
			// on-disk format — one base per zone, one byte per row (the
			// per-zone delta chunks concatenate back into the flat page).
			buf = append(buf, colEncFOR)
			buf = appendUvarint(buf, uint64(len(c.fb)))
			for _, b := range c.fb {
				buf = appendVarint(buf, b)
			}
			for _, ch := range c.d8 {
				buf = append(buf, ch...)
			}
		} else {
			buf = append(buf, colEncRaw)
			for i := range rows {
				buf = appendVarint(buf, c.int(i))
			}
		}
	case value.Float:
		buf = append(buf, colEncRaw)
		for i := range rows {
			var b [8]byte
			byteOrderPutFloat(b[:], c.flt(i))
			buf = append(buf, b[:]...)
		}
	case value.Text:
		buf = append(buf, colEncRaw)
		// Dictionary pages: the full vocabulary (codes index it, so dead
		// entries ride along until the next compaction), then per-row codes.
		buf = appendUvarint(buf, uint64(len(c.dict.strs)))
		for _, s := range c.dict.strs {
			buf = appendString(buf, s)
		}
		for i := range rows {
			buf = appendUvarint(buf, uint64(c.code(i)))
		}
	case value.Bool:
		buf = append(buf, colEncRaw)
		packed := make([]byte, (rows+7)/8)
		for i := range rows {
			if c.bl(i) {
				packed[i>>3] |= 1 << (uint(i) & 7)
			}
		}
		buf = append(buf, packed...)
	}
	return buf
}

func byteOrderPutFloat(b []byte, f float64) {
	bits := math.Float64bits(f)
	for i := 0; i < 8; i++ {
		b[i] = byte(bits >> (8 * i))
	}
}

// reseed replaces every table with an empty, dirty one and loads ckData into
// them: the state a follower re-seeds to, and the base recovery's rollback
// replays a known-good prefix onto. A nil ckData (recovery found no
// checkpoint) leaves the tables empty at floor 0. Published versions keep
// the old tables until the caller publishes.
func (db *Database) reseed(ckData []byte) (floor uint64, err error) {
	db.mu.Lock()
	db.tables = make([]*Table, 0, len(db.tables))
	for _, r := range db.schema.Relations() {
		db.addTable(r)
	}
	db.mu.Unlock()
	if ckData == nil {
		return 0, nil
	}
	return db.loadCheckpoint(ckData)
}

// checkpointHeader decodes a checkpoint's header record: the segment magic,
// then the schema fingerprint, the WAL sequence floor and the table count.
func checkpointHeader(payload []byte) (fingerprint, floor, tables uint64, err error) {
	if !bytes.HasPrefix(payload, []byte(segmentMagic)) {
		return 0, 0, 0, fmt.Errorf("storage: checkpoint header is not %q", segmentMagic)
	}
	d := &walDecoder{buf: payload, off: len(segmentMagic)}
	fingerprint = d.uvarint()
	floor = d.uvarint()
	tables = d.uvarint()
	if d.err != nil {
		return 0, 0, 0, fmt.Errorf("storage: checkpoint header: %w", d.err)
	}
	return fingerprint, floor, tables, nil
}

// loadCheckpoint deserializes a checkpoint into db, whose tables must be
// empty. It returns the WAL sequence floor recorded at checkpoint time.
// Every structural mismatch is an error, never a panic — corrupt checkpoints
// degrade into a clean refusal.
func (db *Database) loadCheckpoint(data []byte) (lastSeq uint64, err error) {
	records, tail := wal.Scan(data)
	if tail != nil {
		return 0, fmt.Errorf("storage: corrupt checkpoint: %s at byte %d", tail.Reason, tail.Off)
	}
	if len(records) == 0 {
		return 0, fmt.Errorf("storage: empty checkpoint")
	}
	fingerprint, lastSeq, tableCount, err := checkpointHeader(records[0].Payload)
	if err != nil {
		return 0, err
	}
	if fingerprint != SchemaFingerprint(db) {
		return 0, fmt.Errorf("storage: checkpoint was written under a different schema (fingerprint %x, want %x)", fingerprint, SchemaFingerprint(db))
	}
	if tableCount != uint64(len(records)-1) {
		return 0, fmt.Errorf("storage: checkpoint header promises %d tables, file holds %d", tableCount, len(records)-1)
	}
	db.mu.Lock()
	defer db.mu.Unlock()

	// Name every segment's table first, so an unknown or repeated table is
	// refused before any table is touched.
	type segment struct {
		tbl  *Table
		name string
		d    walDecoder // positioned just past the name
	}
	segs := make([]segment, len(records)-1)
	for i, rec := range records[1:] {
		seg := &segs[i]
		seg.d = walDecoder{buf: rec.Payload}
		seg.name = seg.d.string()
		if seg.d.err != nil {
			return 0, seg.d.err
		}
		seg.tbl = db.index.table(db.tables, seg.name)
		if seg.tbl == nil {
			return 0, fmt.Errorf("storage: checkpoint holds unknown relation %q", seg.name)
		}
		for _, prev := range segs[:i] {
			if prev.tbl == seg.tbl {
				return 0, fmt.Errorf("storage: checkpoint holds table %s twice", seg.name)
			}
		}
		if seg.tbl.rows != 0 {
			return 0, fmt.Errorf("storage: loading checkpoint into non-empty table %s", seg.name)
		}
	}

	// Then every segment decodes into its own table in its own goroutine; the
	// tables share no state the load writes. The first failure in file order
	// is the one reported, however the goroutines finish.
	errs := make([]error, len(segs))
	var wg sync.WaitGroup
	for i := range segs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = segs[i].tbl.loadSegment(segs[i].name, &segs[i].d)
		}()
	}
	wg.Wait()
	if err := cmp.Or(errs...); err != nil {
		return 0, err
	}
	return lastSeq, nil
}

// loadSegment decodes the rest of a segment naming tbl — d sits just past the
// name — and rebuilds the table's derived state from it.
func (tbl *Table) loadSegment(name string, d *walDecoder) error {
	payload := d.buf
	rows := d.uvarint()
	colCount := d.uvarint()
	if d.err != nil {
		return d.err
	}
	if colCount != uint64(len(tbl.cols)) {
		return fmt.Errorf("storage: checkpoint %s has %d columns, schema wants %d", name, colCount, len(tbl.cols))
	}
	if rows > uint64(len(payload)) {
		return fmt.Errorf("storage: checkpoint %s row count %d exceeds segment", name, rows)
	}
	n := int(rows)
	for i := range tbl.cols {
		if err := tbl.cols[i].loadSegment(d, n); err != nil {
			return fmt.Errorf("storage: checkpoint %s.%s: %w", name, tbl.rel.Attributes[i].Name, err)
		}
	}
	tbl.rows = n

	// Older checkpoints could define secondary hash indexes after the
	// columns. This version has none, and a definition is refused by name:
	// loading the rows without it would silently drop what the file says.
	if d.uvarint() > 0 {
		if idx := d.string(); d.err == nil {
			return fmt.Errorf("storage: checkpoint %s defines index %q, but only primary keys are indexed; the checkpoint cannot load", name, idx)
		}
	}
	if d.err != nil {
		return d.err
	}

	// Rebuild every piece of derived state from the loaded vectors, each
	// column's with the range builder appends use — distinct counts or
	// dictionary references, zones, frame-of-reference deltas, and with them
	// the bounds and NULL counts the statistics read — and the primary key.
	// They share nothing they write, so they run in parallel.
	// A TEXT column's dictionary code table fills there too.
	var wg sync.WaitGroup
	errs := make([]error, len(tbl.cols))
	for i := range tbl.cols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &tbl.cols[i]
			if c.kind == value.Text {
				errs[i] = c.dict.buildCodes()
			}
			c.extend(0, n)
		}()
	}
	err := tbl.rebuildPK()
	wg.Wait()
	for i, cerr := range errs {
		if cerr != nil {
			return fmt.Errorf("storage: checkpoint %s.%s: %w", name, tbl.rel.Attributes[i].Name, cerr)
		}
	}
	if err != nil {
		return fmt.Errorf("storage: checkpoint %s: %w", name, err)
	}
	return nil
}

// buildCodes fills a loaded dictionary's code table from its strings in
// bulk, as the primary key's is built (bulkPlace), refusing one that holds a
// string twice: the string named is the earliest entry that repeats one.
func (d *dict) buildCodes() error {
	hashes := make([]uint32, len(d.strs))
	for c, s := range d.strs {
		hashes[c] = strHash(s)
	}
	slots := make([]uint64, pkSlotsFor(len(d.strs)))
	if _, repeat := bulkPlace(slots, hashes, func(a, b int) bool { return d.strs[a] == d.strs[b] }); repeat >= 0 {
		return fmt.Errorf("dictionary holds %q twice", d.strs[repeat])
	}
	x := pkIndexOver(slots)
	x.n = len(d.strs)
	d.code = &x
	return nil
}

func (c *column) loadSegment(d *walDecoder, rows int) error {
	kind := value.Kind(d.byte())
	ranked := d.byte()
	if d.err != nil {
		return d.err
	}
	if kind != c.kind {
		return fmt.Errorf("segment kind %s, column is %s", kind, c.kind)
	}
	words := d.uvarint()
	if d.err != nil {
		return d.err
	}
	if words > uint64(rows/64+1) {
		return fmt.Errorf("null bitmap of %d words for %d rows", words, rows)
	}
	c.nulls.words = make([]uint64, words)
	for i := range c.nulls.words {
		c.nulls.words[i] = d.uvarint()
		// Bits at or past the row count would mark rows appended later NULL.
		if past := rows - i*64; past < 64 && c.nulls.words[i]>>max(past, 0) != 0 {
			return fmt.Errorf("null bitmap marks a row past %d", rows)
		}
	}
	enc := d.byte()
	if d.err != nil {
		return d.err
	}
	switch c.kind {
	case value.Int, value.Date:
		c.ints = newChunked[int64](c, rows)
		switch enc {
		case colEncFOR:
			zones := d.uvarint()
			if d.err != nil {
				return d.err
			}
			if zones != uint64((rows+ZoneRows-1)/ZoneRows) {
				return fmt.Errorf("frame-of-reference page has %d zones for %d rows", zones, rows)
			}
			bases := make([]int64, zones)
			for i := range bases {
				bases[i] = d.varint()
			}
			for i := 0; i < rows; i++ {
				delta := d.byte()
				c.ints[i>>ZoneShift][i&ZoneMask] = bases[i>>ZoneShift] + int64(delta)
			}
		case colEncRaw:
			for i := range rows {
				c.ints[i>>ZoneShift][i&ZoneMask] = d.varint()
			}
		default:
			return fmt.Errorf("unknown int encoding 0x%02x", enc)
		}
		// NULL positions carry a zero placeholder in memory; normalize the
		// reconstructed vector so a recovered database is bit-identical to
		// one that never crashed.
		for i := 0; i < rows; i++ {
			if c.nulls.get(i) {
				c.ints[i>>ZoneShift][i&ZoneMask] = 0
			}
		}
	case value.Float:
		if enc != colEncRaw {
			return fmt.Errorf("unknown float encoding 0x%02x", enc)
		}
		c.flts = newChunked[float64](c, rows)
		for i := range rows {
			c.flts[i>>ZoneShift][i&ZoneMask] = math.Float64frombits(d.uint64le())
		}
	case value.Text:
		if enc != colEncRaw {
			return fmt.Errorf("unknown text encoding 0x%02x", enc)
		}
		dictLen := d.uvarint()
		if d.err != nil {
			return d.err
		}
		if dictLen > uint64(len(d.buf)) {
			return fmt.Errorf("dictionary of %d entries exceeds segment", dictLen)
		}
		// The whole dictionary section becomes one string and every entry a
		// substring of it: one allocation per dictionary, not one per entry.
		start := d.off
		for range dictLen {
			d.bytes()
		}
		if d.err != nil {
			return d.err
		}
		section := string(d.buf[start:d.off])
		entries := walDecoder{buf: d.buf[start:d.off]}
		// The code table fills in the parallel phase (buildCodes).
		c.dict = &dict{codeMu: &sync.RWMutex{}}
		c.dict.strs = make([]string, dictLen)
		c.dict.refs = make([]int32, dictLen)
		for i := range c.dict.strs {
			n := len(entries.bytes())
			c.dict.strs[i] = section[entries.off-n : entries.off]
		}
		c.codes = newChunked[uint32](c, rows)
		for i := range rows {
			code := d.uvarint()
			if d.err != nil {
				return d.err
			}
			if c.nulls.get(i) {
				continue // placeholder 0, parity with the live write path
			}
			if code >= dictLen {
				return fmt.Errorf("code %d outside dictionary of %d", code, dictLen)
			}
			c.codes[i>>ZoneShift][i&ZoneMask] = uint32(code)
		}
		if ranked == 1 {
			c.dict.ranked = true
			c.dict.rankStale.Store(true)
		}
	case value.Bool:
		if enc != colEncRaw {
			return fmt.Errorf("unknown bool encoding 0x%02x", enc)
		}
		packedLen := (rows + 7) / 8
		if d.off+packedLen > len(d.buf) {
			return fmt.Errorf("truncated bool page")
		}
		packed := d.buf[d.off : d.off+packedLen]
		d.off += packedLen
		c.bls = newChunked[bool](c, rows)
		for i := range rows {
			c.bls[i>>ZoneShift][i&ZoneMask] = packed[i>>3]&(1<<(uint(i)&7)) != 0
		}
	}
	return d.err
}
