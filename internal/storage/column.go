package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/value"
)

// This file holds the columnar backbone of a Table: one typed vector per
// attribute plus a null bitmap. Integers live in int64s, floats in float64s,
// text as uint32 codes into a per-column string dictionary, dates as
// epoch-day int64s, and booleans as bools. Tuples exist only at the API
// boundary — they are materialized on demand from the vectors.
//
// Every payload vector is cut into chunks aligned with the zone maps: row i
// lives at offset i&ZoneMask of chunk i>>ZoneShift, so a vector is a [][]T
// header array over ZoneRows-long chunks. Chunks always have their full
// length — positions at or past the row count hold nothing and are never
// read — except that a table's first chunk starts short and grows by
// replacement, so a five-row table does not hold a zone's worth per column.
// The chunk is the unit of copy-on-write: a frozen view shares the header
// array, and the writer clones only the chunks it overwrites afterwards (see
// snapshot.go for the sharing rules).

// bitmap is a packed bit set marking NULL positions of one column.
//
// A frozen (snapshot) bitmap shares the writer's fully-populated words as a
// length-capped prefix and carries the boundary word — the one the writer is
// still filling — as a private masked copy in tail. Writer bitmaps keep
// tail == 0, so the extra branch in get never changes live semantics.
type bitmap struct {
	words []uint64
	tail  uint64
}

func (b *bitmap) get(i int) bool {
	w := i >> 6
	if w >= len(b.words) {
		if w == len(b.words) {
			return b.tail&(1<<(uint(i)&63)) != 0
		}
		return false
	}
	return b.words[w]&(1<<(uint(i)&63)) != 0
}

func (b *bitmap) set(i int, v bool) {
	w := i >> 6
	if w >= len(b.words) {
		if !v {
			return // storing false beyond the words is a no-op; null-free
			// columns keep an empty bitmap
		}
		for w >= len(b.words) {
			b.words = append(b.words, 0)
		}
	}
	mask := uint64(1) << (uint(i) & 63)
	if v {
		b.words[w] |= mask
	} else {
		b.words[w] &^= mask
	}
}

// any reports whether a bit in [lo, hi) is set, a word at a time; a column
// that never stored a NULL answers without reading a word.
func (b *bitmap) any(lo, hi int) bool {
	for w := lo >> 6; w < len(b.words) && w<<6 < hi; w++ {
		word := b.words[w]
		if w == lo>>6 {
			word &^= 1<<(uint(lo)&63) - 1
		}
		if w == (hi-1)>>6 && hi&63 != 0 {
			word &= 1<<(uint(hi)&63) - 1
		}
		if word != 0 {
			return true
		}
	}
	return false
}

// truncate clears every bit at position n or beyond.
func (b *bitmap) truncate(n int) {
	full := (n + 63) >> 6
	if full < len(b.words) {
		b.words = b.words[:full]
	}
	if n&63 != 0 && len(b.words) == full && full > 0 {
		b.words[full-1] &= (1 << (uint(n) & 63)) - 1
	}
}

// dict is a per-column string dictionary: codes are assigned in first-seen
// order. Per-code reference counts track which entries live rows still hold,
// and maybeCompactDict (zonemap.go) reclaims the codes once dead entries
// dominate — so per-entry verdict loops never pay for churned-away strings
// forever. An opt-in sorted variant (EnableSortedDict) additionally keeps
// code<->rank tables in string sort order.
type dict struct {
	strs []string
	// code maps each string to its code: the primary key's slot table
	// (pkindex.go) with code+1 in place of pos+1, confirmed against strs.
	code *pkIndex
	// codeMu guards the code table, which is shared between the writer's
	// dict and the frozen clones handed to snapshots: the writer interns
	// under the write lock while snapshot readers probe DictCode
	// concurrently. The pointer is shared across clones so everyone
	// serializes on one lock.
	codeMu *sync.RWMutex
	// refs[c] counts live rows holding code c; live counts codes with
	// refs > 0 — the column's distinct count. Maintained by the writer paths
	// (retainRange and releaseRow in stats.go, setRun in update.go).
	refs []int32
	live int
	// held marks codeMu as held by the writer across a statement's append
	// (appendPayloads takes it at the first new string, appendRows releases
	// it).
	held bool
	// ranked turns on the sorted dictionary: rank maps code -> sort rank,
	// order maps rank -> code. Writers flag rankStale when the vocabulary
	// changes; the tables rebuild lazily on the next ranked read (guarded by
	// rankMu so concurrent readers rebuild once), which keeps bulk loads
	// linear instead of re-sorting the dictionary after every statement.
	ranked    bool
	rankStale atomic.Bool
	rankMu    sync.Mutex
	rank      []uint32
	order     []uint32
}

// newDict returns an empty dictionary.
func newDict() *dict {
	return &dict{code: new(pkIndex), codeMu: &sync.RWMutex{}}
}

// find returns the code of s, whose hash is h. Codes at or past len(strs)
// are strings a frozen clone's writer interned after it froze — invisible
// to the clone, as later rows are to a frozen view's primary key. Callers
// hold codeMu.
func (d *dict) find(s string, h uint32) (uint32, bool) {
	x := d.code
	if x.size == 0 {
		return 0, false
	}
	mask := x.size - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := x.at(i)
		if e == 0 {
			return 0, false
		}
		if c := entryPos(e); entryHash(e) == h && c < len(d.strs) && d.strs[c] == s {
			return uint32(c), true
		}
	}
}

// add assigns the next code to s (hash h), which the dictionary does not
// hold; the caller holds codeMu.
func (d *dict) add(s string, h uint32) uint32 {
	c := uint32(len(d.strs))
	d.strs = append(d.strs, s)
	d.code.add(h, int(c))
	d.refs = append(d.refs, 0)
	if d.ranked {
		d.rankStale.Store(true)
	}
	return c
}

// freeze builds a snapshot clone of the dictionary: the vocabulary is the
// length-capped strs prefix (the writer only appends), the code table is
// shared under codeMu with lookups filtered to the frozen vocabulary, and
// the rank tables rebuild lazily — privately, over the frozen vocabulary —
// on the clone's first ranked read. refs stay with the writer; a frozen dict never
// retains or releases.
func (d *dict) freeze() *dict {
	fd := &dict{
		strs:   d.strs[:len(d.strs):len(d.strs)],
		code:   d.code,
		codeMu: d.codeMu,
		live:   d.live,
		ranked: d.ranked,
	}
	if fd.ranked {
		fd.rankStale.Store(true)
	}
	return fd
}

// column is one attribute's storage: a chunked typed vector (selected by
// kind) and the null bitmap. NULL positions carry a zero placeholder in the
// vector. Zone maps (zonemap.go) summarize each ZoneRows-sized range; Int/Date
// columns additionally keep a frame-of-reference encoding (per-zone base +
// byte deltas) while every zone's span fits in a byte.
type column struct {
	kind  value.Kind
	nulls bitmap
	ints  [][]int64 // Int payloads, or Date epoch days
	flts  [][]float64
	bls   [][]bool
	codes [][]uint32 // Text dictionary codes
	dict  *dict
	// The writer's copy-on-write record, never read by frozen views: gen
	// counts the freezes of the column, hdrGen == gen marks the payload's
	// chunk-header array as private, and own[z] == gen marks chunk z as cloned
	// or allocated since the last freeze — so a freeze resets ownership in
	// O(1). copied, shared by the database's columns, counts the bytes
	// copy-on-write cloned (SnapshotStats.CopiedBytes); nil outside a
	// database.
	gen    uint64
	hdrGen uint64
	own    []uint64
	copied *atomic.Uint64
	// counts maps an Int, Float or Date value's value.Key64 to the number of
	// live rows holding it — its size is the distinct count (stats.go). Nil
	// for Text (dict.live counts) and Bool (the bounds tell), and in frozen
	// columns, whose statistics are captured at freeze.
	counts *countMap
	// zones summarize ZoneRows-sized ranges; zrows is the number of rows they
	// cover (== the table's row count whenever no write is in flight).
	zones []zone
	zrows int
	// ztail is a frozen column's private copy of the partial boundary zone the
	// writer is still extending; zoneAt routes reads past len(zones) to it.
	// Writer columns keep hasZTail false.
	ztail    zone
	hasZTail bool
	// Frame-of-reference encoding: fb holds one base per zone, d8 one
	// ZoneRows-capacity chunk of byte deltas per zone (value = fb[z] +
	// d8[z][row&ZoneMask]). forOff sticks once any zone's span overflows a
	// byte. d8Own[z] == gen marks chunk z as the writer's own since the last
	// freeze, like own for the payload chunks (ownD8).
	fb     []int64
	d8     [][]uint8
	d8Own  []uint64
	forOff bool
}

// zoneAt returns the zone summary for index z, routing a frozen column's
// boundary-zone reads to its private tail copy.
func (c *column) zoneAt(z int) *zone {
	if z < len(c.zones) {
		return &c.zones[z]
	}
	return &c.ztail
}

// zoneCount returns the number of zones summarizing the column, including a
// frozen column's private tail zone.
func (c *column) zoneCount() int {
	n := len(c.zones)
	if c.hasZTail {
		n++
	}
	return n
}

// d8Rows returns the number of rows the frame-of-reference chunks cover.
func (c *column) d8Rows() int {
	if len(c.d8) == 0 {
		return 0
	}
	return (len(c.d8)-1)<<ZoneShift + len(c.d8[len(c.d8)-1])
}

func newColumn(kind value.Kind, copied *atomic.Uint64) column {
	c := column{kind: kind, copied: copied}
	switch kind {
	case value.Text:
		c.dict = newDict()
	case value.Int, value.Float, value.Date:
		c.counts = new(countMap)
	}
	if kind != value.Int && kind != value.Date {
		c.forOff = true // frame-of-reference applies to Int/Date only
	}
	return c
}

// appendPayloads stores attribute j of rows at positions lo, lo+1, ... (lo
// is the current column length) and marks their NULLs; extend then folds the
// range into the derived state. The caller has already coerced every value to
// the column kind or NULL; anything else is a storage-invariant violation.
// A TEXT column takes codeMu at its first new string and keeps it (held) for
// the caller to release once the statement's rows are stored — one hold per
// statement — copying a string it keeps when borrowed says the values alias
// a buffer the caller reuses.
func (c *column) appendPayloads(rows []Tuple, j, lo int, borrowed bool) {
	hi := lo + len(rows)
	switch c.kind {
	case value.Int:
		vec := growChunked(c, &c.ints, lo, hi)
		for r := lo; r < hi; {
			chunk, end := vec[r>>ZoneShift], min(hi, (r|ZoneMask)+1)
			for ; r < end; r++ {
				if v := rows[r-lo][j]; c.stored(v, r) {
					chunk[r&ZoneMask] = v.Int()
				}
			}
		}
	case value.Date:
		vec := growChunked(c, &c.ints, lo, hi)
		for r := lo; r < hi; {
			chunk, end := vec[r>>ZoneShift], min(hi, (r|ZoneMask)+1)
			for ; r < end; r++ {
				if v := rows[r-lo][j]; c.stored(v, r) {
					chunk[r&ZoneMask] = v.DateDays()
				}
			}
		}
	case value.Float:
		vec := growChunked(c, &c.flts, lo, hi)
		for r := lo; r < hi; {
			chunk, end := vec[r>>ZoneShift], min(hi, (r|ZoneMask)+1)
			for ; r < end; r++ {
				if v := rows[r-lo][j]; c.stored(v, r) {
					chunk[r&ZoneMask] = v.Float()
				}
			}
		}
	case value.Bool:
		vec := growChunked(c, &c.bls, lo, hi)
		for r := lo; r < hi; {
			chunk, end := vec[r>>ZoneShift], min(hi, (r|ZoneMask)+1)
			for ; r < end; r++ {
				if v := rows[r-lo][j]; c.stored(v, r) {
					chunk[r&ZoneMask] = v.Bool()
				}
			}
		}
	case value.Text:
		vec := growChunked(c, &c.codes, lo, hi)
		d := c.dict
		for r := lo; r < hi; {
			chunk, end := vec[r>>ZoneShift], min(hi, (r|ZoneMask)+1)
			for ; r < end; r++ {
				v := rows[r-lo][j]
				if !c.stored(v, r) {
					continue
				}
				// The writer alone mutates the code table, so its own
				// lookups need no lock; only an insertion excludes snapshot
				// readers, and the lock it takes stays held (held) until
				// the caller ends the statement's append.
				s := v.Text()
				h := strHash(s)
				code, ok := d.find(s, h)
				if !ok {
					if !d.held {
						d.codeMu.Lock()
						d.held = true
					}
					if borrowed {
						s = strings.Clone(s)
					}
					code = d.add(s, h)
				}
				chunk[r&ZoneMask] = code
			}
		}
	default:
		panic(fmt.Sprintf("storage: column of kind %s", c.kind))
	}
}

// stored reports whether v is a value to store at row, marking row NULL
// when v is NULL; a NULL row keeps the chunk's zero placeholder.
func (c *column) stored(v value.Value, row int) bool {
	if k := v.Kind(); k != c.kind {
		c.misfit(v, row)
		return false
	}
	return true
}

// misfit marks row NULL for a NULL value and panics on any other value of
// the wrong kind, out of stored's inlined body.
//
//go:noinline
func (c *column) misfit(v value.Value, row int) {
	if !v.IsNull() {
		panic(fmt.Sprintf("storage: %s value appended to %s column", v.Kind(), c.kind))
	}
	c.nulls.set(row, true)
}

// value materializes position i. Text shares the dictionary string; no
// allocation happens for any kind.
func (c *column) value(i int) value.Value {
	if c.nulls.get(i) {
		return value.NewNull()
	}
	switch c.kind {
	case value.Int:
		return value.NewInt(c.int(i))
	case value.Float:
		return value.NewFloat(c.flt(i))
	case value.Text:
		return value.NewText(c.dict.strs[c.code(i)])
	case value.Date:
		return value.NewDateDays(c.int(i))
	case value.Bool:
		return value.NewBool(c.bl(i))
	default:
		return value.NewNull()
	}
}

// appendKey appends position i's key image — the bytes value.AppendKey
// writes for the value the column holds there — read straight from the typed
// vector: the primary key's bulk build (rebuildPK) and every probe's
// confirmation encode through it.
func (c *column) appendKey(buf []byte, i int) []byte {
	if c.nulls.get(i) {
		return append(buf, 'n')
	}
	switch c.kind {
	case value.Int:
		return binary.BigEndian.AppendUint64(append(buf, 'f'), value.NewInt(c.int(i)).Key64())
	case value.Float:
		return binary.BigEndian.AppendUint64(append(buf, 'f'), value.NewFloat(c.flt(i)).Key64())
	case value.Date:
		return binary.BigEndian.AppendUint64(append(buf, 'd'), value.NewDateDays(c.int(i)).Key64())
	case value.Text:
		s := c.dict.strs[c.code(i)]
		buf = binary.AppendUvarint(append(buf, 't'), uint64(len(s)))
		return append(buf, s...)
	case value.Bool:
		if c.bl(i) {
			return append(buf, 'B')
		}
		return append(buf, 'b')
	}
	return append(buf, '?')
}

// The payload at position i, one reader per vector type.
func (c *column) int(i int) int64   { return c.ints[i>>ZoneShift][i&ZoneMask] }
func (c *column) flt(i int) float64 { return c.flts[i>>ZoneShift][i&ZoneMask] }
func (c *column) code(i int) uint32 { return c.codes[i>>ZoneShift][i&ZoneMask] }
func (c *column) bl(i int) bool     { return c.bls[i>>ZoneShift][i&ZoneMask] }

// ownChunks makes the payload and frame-of-reference chunks [z0, z1) private
// to the writer — what a Delete does for the chunks its compaction rewrites
// and the chunk its next appends land in.
func (c *column) ownChunks(z0, z1 int) {
	for z := z0; z < z1; z++ {
		switch c.kind {
		case value.Int, value.Date:
			ownChunk(c, &c.ints, z)
		case value.Float:
			ownChunk(c, &c.flts, z)
		case value.Text:
			ownChunk(c, &c.codes, z)
		case value.Bool:
			ownChunk(c, &c.bls, z)
		}
		if !c.forOff {
			c.ownD8(z)
		}
	}
}

// moveRows slides rows [src, end) down to start at dst (Delete compaction;
// dst <= src) inside chunks the writer owns. Payloads and frame-of-reference
// bytes move one chunk piece at a time; null bits move one by one, and not at
// all for a column that never stored a NULL. A row the slide carries into a
// lower zone leaves its old zone's summary and arrives in the new one.
func (c *column) moveRows(dst, src, end int) {
	if dst == src || src >= end {
		return
	}
	shift := src - dst
	eachCrossing(dst, end-shift, shift, func(d int) { c.unfold(d + shift) })
	switch c.kind {
	case value.Int, value.Date:
		moveChunked(c.ints, dst, src, end)
	case value.Float:
		moveChunked(c.flts, dst, src, end)
	case value.Text:
		moveChunked(c.codes, dst, src, end)
	case value.Bool:
		moveChunked(c.bls, dst, src, end)
	}
	if !c.forOff {
		moveChunked(c.d8, dst, src, end)
	}
	if len(c.nulls.words) != 0 {
		for i := src; i < end; i++ {
			c.nulls.set(dst+i-src, c.nulls.get(i))
		}
	}
	eachCrossing(dst, end-shift, shift, c.arrive)
}

// eachCrossing calls fn for every destination row d in [lo, hi) of a slide by
// shift whose source row d+shift lies in a later zone: the last shift rows of
// each destination zone, or all of them once shift spans a zone.
func eachCrossing(lo, hi, shift int, fn func(int)) {
	for d := lo; d < hi; {
		next := (d>>ZoneShift + 1) << ZoneShift
		for r := max(d, next-shift); r < min(hi, next); r++ {
			fn(r)
		}
		d = next
	}
}

// truncate drops every position at n or beyond, with the zones and
// frame-of-reference bytes past it; the caller has already subtracted the
// dropped rows from the zone that keeps some of its rows.
func (c *column) truncate(n int) {
	c.nulls.truncate(n)
	switch c.kind {
	case value.Int, value.Date:
		truncateChunked(c, &c.ints, n)
	case value.Float:
		truncateChunked(c, &c.flts, n)
	case value.Text:
		truncateChunked(c, &c.codes, n)
	case value.Bool:
		truncateChunked(c, &c.bls, n)
	}
	k := chunksFor(n)
	c.zones, c.zrows = c.zones[:k], n
	if !c.forOff {
		c.fb, c.d8, c.d8Own = c.fb[:k], c.d8[:k], c.d8Own[:k]
		if k > 0 {
			c.d8[k-1] = c.d8[k-1][:n-(k-1)<<ZoneShift]
		}
	}
}

// firstChunkRows is the length a table's first chunk starts at; it doubles
// up to ZoneRows as the table grows.
const firstChunkRows = 8

// chunksFor returns the number of chunks holding n rows.
func chunksFor(n int) int { return (n + ZoneRows - 1) >> ZoneShift }

// newChunked allocates the chunks of a vector of n rows, all owned by c's
// writer, carved capacity-capped from one array: full-length chunks, except
// that a vector within one zone gets a first chunk of just its rows.
func newChunked[T any](c *column, n int) [][]T {
	vec := make([][]T, chunksFor(n))
	if len(vec) == 1 {
		vec[0] = make([]T, max(n, firstChunkRows))
	} else {
		backing := make([]T, len(vec)<<ZoneShift)
		for z := range vec {
			vec[z] = backing[z<<ZoneShift : (z+1)<<ZoneShift : (z+1)<<ZoneShift]
		}
	}
	c.hdrGen = c.gen
	c.own = c.own[:0]
	for range vec {
		c.own = append(c.own, c.gen)
	}
	return vec
}

// growChunked makes room for rows [lo, hi) past the vector's last row — at
// or past every frozen view's row count, so the chunks holding them may stay
// shared — and returns the vector. It grows a short first chunk by
// replacement, doubling it until it holds hi rows (the length one-row appends
// would have doubled it to), and allocates the next full chunks at zone
// boundaries.
func growChunked[T any](c *column, vec *[][]T, lo, hi int) [][]T {
	if len(*vec) == 0 {
		*vec = append(*vec, make([]T, firstChunkRows))
		c.own = append(c.own[:0], c.gen)
	}
	if first := (*vec)[0]; len(*vec) == 1 && len(first) < min(hi, ZoneRows) {
		size := len(first)
		for size < min(hi, ZoneRows) {
			size *= 2
		}
		grown := make([]T, size)
		copy(grown, first[:min(lo, len(first))])
		setChunk(c, vec, 0, grown)
	}
	for z := len(*vec); z < chunksFor(hi); z++ {
		*vec = append(*vec, make([]T, ZoneRows))
		c.own = append(c.own[:z], c.gen)
	}
	return *vec
}

// ownChunk returns chunk z ready for an in-place write: cloned first when it
// is not the writer's own since the last freeze.
func ownChunk[T any](c *column, vec *[][]T, z int) []T {
	if c.own[z] != c.gen {
		chunk := slices.Clone((*vec)[z])
		c.countCopied(len(chunk) * int(unsafe.Sizeof(chunk[0])))
		setChunk(c, vec, z, chunk)
	}
	return (*vec)[z]
}

// setChunk installs chunk as chunk z, owned by the writer. A header inside an
// array a frozen view shares is never rewritten: the first replacement after
// a freeze copies the header array (O(zones)).
func setChunk[T any](c *column, vec *[][]T, z int, chunk []T) {
	if c.hdrGen != c.gen {
		*vec = slices.Clone(*vec)
		c.hdrGen = c.gen
		c.countCopied(len(*vec) * int(unsafe.Sizeof(chunk)))
	}
	(*vec)[z] = chunk
	c.own[z] = c.gen
}

// moveChunked copies rows [src, end) down to dst (dst <= src), one run within
// a source and a destination chunk at a time; ascending runs never overwrite
// a position before it is read.
func moveChunked[T any](vec [][]T, dst, src, end int) {
	for src < end {
		from := vec[src>>ZoneShift][src&ZoneMask:]
		n := copy(vec[dst>>ZoneShift][dst&ZoneMask:], from[:min(len(from), end-src)])
		dst += n
		src += n
	}
}

// truncateChunked drops the chunks wholly past n rows. While a frozen view
// shares the header array the kept prefix is capacity-capped, so the next
// chunk appended lands in a fresh array instead of over a header the view
// still reads.
func truncateChunked[T any](c *column, vec *[][]T, n int) {
	k := chunksFor(n)
	if k >= len(*vec) {
		return
	}
	if c.hdrGen != c.gen {
		*vec = (*vec)[:k:k]
	} else {
		*vec = (*vec)[:k]
	}
	c.own = c.own[:k]
}

// countCopied adds n bytes to the copy-on-write counter.
func (c *column) countCopied(n int) {
	if c.copied != nil {
		c.copied.Add(uint64(n))
	}
}

// Col is a read-only handle on one column vector, the engine's zero-copy
// window into the table. The chunks it exposes are the live storage — safe
// for concurrent readers under the storage contract (writers are exclusive),
// and never to be mutated.
type Col struct {
	c *column
}

// Kind returns the column's value kind (Date columns report value.Date but
// expose epoch days through Ints).
func (c Col) Kind() value.Kind { return c.c.kind }

// Null reports whether position i is NULL.
func (c Col) Null(i int) bool { return c.c.nulls.get(i) }

// HasNulls reports whether any position is NULL (cheap word scan), letting
// vectorized filters skip the per-row null check entirely.
func (c Col) HasNulls() bool {
	for _, w := range c.c.nulls.words {
		if w != 0 {
			return true
		}
	}
	return c.c.nulls.tail != 0
}

// Ints exposes zone z's chunk of Int payloads — or, for Date columns, epoch
// days: row i of the zone is Ints(z)[i&ZoneMask]. The chunk may run past the
// table's last row; those positions hold nothing.
func (c Col) Ints(z int) []int64 { return c.c.ints[z] }

// Floats exposes zone z's chunk of Float payloads, indexed like Ints.
func (c Col) Floats(z int) []float64 { return c.c.flts[z] }

// Bools exposes zone z's chunk of Bool payloads, indexed like Ints.
func (c Col) Bools(z int) []bool { return c.c.bls[z] }

// Codes exposes zone z's chunk of Text dictionary codes, indexed like Ints.
func (c Col) Codes(z int) []uint32 { return c.c.codes[z] }

// DictLen returns the dictionary size (distinct strings ever stored).
func (c Col) DictLen() int { return len(c.c.dict.strs) }

// DictString resolves a dictionary code to its string (shared, not copied).
func (c Col) DictString(code uint32) string { return c.c.dict.strs[code] }

// DictCode looks up the code for s; ok is false when s never occurred in the
// column — which proves no row equals s without comparing more than the
// strings that share its hash. The code table is shared with the writer's
// dictionary (codeMu serializes against interning), and codes past the frozen
// vocabulary — strings first seen after the snapshot — report as absent.
func (c Col) DictCode(s string) (uint32, bool) {
	d, h := c.c.dict, strHash(s)
	d.codeMu.RLock()
	code, ok := d.find(s, h)
	d.codeMu.RUnlock()
	return code, ok
}

// Value materializes position i (allocation-free; Text shares the
// dictionary string).
func (c Col) Value(i int) value.Value { return c.c.value(i) }
