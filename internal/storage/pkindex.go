package storage

import (
	"bytes"
	"hash/maphash"
	"slices"
	"unsafe"
)

// This file holds the primary-key index: an open-addressed, linear-probed
// table of row positions. A slot is one uint64 — the key's 32-bit hash in the
// high half, pos+1 in the low half, 0 for empty — so the table holds no
// pointer: the garbage collector never scans it. Key bytes are not stored; a
// probe confirms a candidate by re-encoding that row's key from the table's
// own columns (appendKeyAt), which also makes a frozen view confirm against
// its frozen rows.
//
// The home slot and the fingerprint both come from the stored hash, so growth
// and deletion move entries without reading a column. Deletion shifts the rest
// of the cluster back instead of leaving tombstones.
//
// The slots live in fixed pages of pkPageSlots (4 KB each): slot s is
// pages[s>>pkPageShift][s&pkPageMask]. A table of fewer slots has one short
// page.
//
// Sharing: a frozen snapshot view holds the page-header slice of the moment
// it froze. While shared, the table may only gain entries — an INSERT fills
// an empty slot with a position at or past every view's row count, which the
// views' probes skip — and growth allocates fresh pages. Removal and
// re-pointing run only after ownPK made the page-header array private
// (one short copy, not the slots), and each then clones a page once, on its
// first write to it.
//
// A TEXT column's dictionary keeps its string→code map in the same table
// (dict.code, column.go), code+1 in the low half, confirmed against its own
// strings. Its clones share the one *pkIndex under codeMu; the writer only
// adds to it, and compaction builds a fresh one.

// pkSeed is the one hash seed of the process; hashes never leave memory.
var pkSeed = maphash.MakeSeed()

// pkHash hashes an encoded primary key.
func pkHash(key []byte) uint32 { return uint32(maphash.Bytes(pkSeed, key)) }

// strHash hashes a dictionary string.
func strHash(s string) uint32 { return uint32(maphash.String(pkSeed, s)) }

const (
	pkPageShift = 9
	pkPageSlots = 1 << pkPageShift
	pkPageMask  = pkPageSlots - 1
)

// pkIndex is the slot table. size is zero or a power of two; n counts the
// occupied slots. shared[p] marks page p as still shared with a frozen view
// since ownPK; nil when every page is the writer's own.
type pkIndex struct {
	pages  [][]uint64
	size   int
	n      int
	shared []bool
}

// newPKIndex returns an empty table of size slots (a power of two).
func newPKIndex(size int) pkIndex { return pkIndexOver(make([]uint64, size)) }

// pkIndexOver returns the table over slots (a power-of-two count of them),
// its pages carved capacity-capped from the one array; n is left for the
// caller to set.
func pkIndexOver(slots []uint64) pkIndex {
	size := len(slots)
	pages := make([][]uint64, max(1, size>>pkPageShift))
	for p := range pages {
		lo, hi := p<<pkPageShift, min(size, (p+1)<<pkPageShift)
		pages[p] = slots[lo:hi:hi]
	}
	return pkIndex{pages: pages, size: size}
}

func (x *pkIndex) at(s int) uint64 { return x.pages[s>>pkPageShift][s&pkPageMask] }

// set writes slot s in place, cloning its page first while a frozen view
// still shares it; it reports the bytes cloned.
func (x *pkIndex) set(s int, e uint64) int {
	p, copied := s>>pkPageShift, 0
	if x.shared != nil && x.shared[p] {
		x.pages[p] = slices.Clone(x.pages[p])
		x.shared[p] = false
		copied = len(x.pages[p]) * 8
	}
	x.pages[p][s&pkPageMask] = e
	return copied
}

// own makes the page-header array private, leaving every page marked shared
// until its first write; it reports the bytes copied.
func (x *pkIndex) own() int {
	x.pages = slices.Clone(x.pages)
	x.shared = make([]bool, len(x.pages))
	for p := range x.shared {
		x.shared[p] = true
	}
	return len(x.pages)*int(unsafe.Sizeof([]uint64(nil))) + len(x.shared)
}

func pkEntry(h uint32, pos int) uint64 { return uint64(h)<<32 | uint64(uint32(pos+1)) }

func entryHash(e uint64) uint32 { return uint32(e >> 32) }

func entryPos(e uint64) int { return int(uint32(e)) - 1 }

// pkSlotsFor returns the slot count that holds n entries at a load factor of
// at most 3/4.
func pkSlotsFor(n int) int {
	slots := 8
	for slots*3 < n*4 {
		slots *= 2
	}
	return slots
}

// add enters (h, pos). It fills the first empty slot of the probe sequence —
// the one change a shared page may take — or, when the entry would push the
// load past 3/4, first moves every entry into fresh pages twice the size.
func (x *pkIndex) add(h uint32, pos int) {
	x.reserve(1)
	x.place(pkEntry(h, pos))
	x.n++
}

// reserve makes room for k more entries at a load of at most 3/4, moving
// every entry into fresh pages of the size that holds them all when the
// current ones do not: a batch of adds grows the table at most once.
func (x *pkIndex) reserve(k int) {
	if (x.n+k)*4 <= x.size*3 {
		return
	}
	fresh := newPKIndex(pkSlotsFor(x.n + k))
	for _, page := range x.pages {
		for _, e := range page {
			if e != 0 {
				fresh.place(e)
			}
		}
	}
	fresh.n = x.n
	*x = fresh
}

// bulkPlace fills slots — an empty table of a power-of-two size that holds
// every entry at a load of at most 3/4 — with the entry (hashes[i], i) of
// every i, as a radix-partitioned hash-table build (Balkesen et al., ICDE
// 2013): a counting sort orders the entries by the 4 KB page of their home
// slot, stably, and placement then fills the pages in slot order instead of
// writing a random slot per entry. Both the primary key's bulk build and a
// loaded dictionary's code table are built by it.
//
// An entry that same reports equal to one already placed is left out.
// bulkPlace returns the pair a walk in index order would meet first — the
// repeated value's first index and the earliest index that repeats any
// value — or -1, -1 when every entry was placed. Equal values share a hash,
// hence a page, and a page's entries keep their index order, so the first of
// them is placed before the others reach it.
func bulkPlace(slots []uint64, hashes []uint32, same func(a, b int) bool) (first, repeat int) {
	mask := len(slots) - 1
	starts := make([]int, mask>>pkPageShift+2)
	for _, h := range hashes {
		starts[(int(h)&mask)>>pkPageShift+1]++
	}
	for p := 1; p < len(starts); p++ {
		starts[p] += starts[p-1]
	}
	sorted := make([]uint64, len(hashes))
	for i, h := range hashes {
		p := (int(h) & mask) >> pkPageShift
		sorted[starts[p]] = pkEntry(h, i)
		starts[p]++
	}
	first, repeat = -1, -1
	for _, e := range sorted {
		h, i := entryHash(e), entryPos(e)
		s := int(h) & mask
		for o := slots[s]; o != 0; o = slots[s] {
			if at := entryPos(o); entryHash(o) == h && same(at, i) {
				if repeat < 0 || i < repeat {
					first, repeat = at, i
				}
				break
			}
			s = (s + 1) & mask
		}
		if slots[s] == 0 {
			slots[s] = e
		}
	}
	return first, repeat
}

// place writes e into the first empty slot of its probe sequence.
func (x *pkIndex) place(e uint64) { x.placeFrom(int(entryHash(e))&(x.size-1), e) }

// placeFrom writes e into the first empty slot from slot i on, which lies on
// e's probe sequence with no empty slot before it.
func (x *pkIndex) placeFrom(i int, e uint64) {
	mask := x.size - 1
	for x.at(i) != 0 {
		i = (i + 1) & mask
	}
	x.pages[i>>pkPageShift][i&pkPageMask] = e
}

// slotOf returns the slot holding exactly e, or -1.
func (x *pkIndex) slotOf(e uint64) int {
	if x.size == 0 {
		return -1
	}
	mask := x.size - 1
	for i := int(entryHash(e)) & mask; x.at(i) != 0; i = (i + 1) & mask {
		if x.at(i) == e {
			return i
		}
	}
	return -1
}

// removeAt empties slot i and shifts the rest of its cluster back: an entry
// moves into the hole when the hole lies on its probe path (between its home
// slot and where it sits), so every remaining entry stays reachable with no
// tombstone. Every page it writes is cloned first if still shared; it
// reports the bytes cloned.
func (x *pkIndex) removeAt(i int) int {
	mask, copied := x.size-1, 0
	for j := (i + 1) & mask; x.at(j) != 0; j = (j + 1) & mask {
		e := x.at(j)
		if (j-int(entryHash(e)))&mask >= (j-i)&mask {
			copied += x.set(i, e)
			i = j
		}
	}
	copied += x.set(i, 0)
	x.n--
	return copied
}

// pkFind returns the position of the row visible to t whose primary key
// encodes to key (hash h) in index x, or -1. Positions at or past t's row
// count belong to rows committed after a frozen view — invisible to it. The
// re-encoding buffer stays on the stack: the call to appendKeyAt is direct.
// Concurrent callers hold idxMu for reading.
func (t *Table) pkFind(x *pkIndex, key []byte, h uint32) int {
	pos, _ := t.pkProbe(x, key, h)
	return pos
}

// pkProbe is pkFind that also returns, when the key is absent, the empty
// slot its walk ended at (-1 for a table of no slots): where an insert of the
// key goes, or — once other adds have filled it — where its walk goes on.
func (t *Table) pkProbe(x *pkIndex, key []byte, h uint32) (pos, empty int) {
	if x.size == 0 {
		return -1, -1
	}
	var kb [64]byte
	mask := x.size - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := x.pages[i>>pkPageShift][i&pkPageMask]
		if e == 0 {
			return -1, i
		}
		if entryHash(e) != h {
			continue
		}
		if pos := entryPos(e); pos < t.rows && bytes.Equal(t.appendKeyAt(kb[:0], pos, t.pkPos), key) {
			return pos, -1
		}
	}
}
