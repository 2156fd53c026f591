package storage

import (
	"bytes"
	"hash/maphash"
)

// This file holds the primary-key index: an open-addressed, linear-probed
// table of row positions. A slot is one uint64 — the key's 32-bit hash in the
// high half, pos+1 in the low half, 0 for empty — so the array holds no
// pointer: the garbage collector never scans it, and a snapshot's private copy
// is one memmove. Key bytes are not stored; a probe confirms a candidate by
// re-encoding that row's key from the table's own columns (appendKeyAt), which
// also makes a frozen view confirm against its frozen rows.
//
// The home slot and the fingerprint both come from the stored hash, so growth
// and deletion move entries without reading a column. Deletion shifts the rest
// of the cluster back instead of leaving tombstones.
//
// Sharing: a frozen snapshot view holds the slot slice of the moment it froze.
// While shared, the array may only gain entries — an INSERT fills an empty
// slot with a position at or past every view's row count, which the views'
// probes skip — and growth allocates a fresh array. Removal and re-pointing
// run only after ownIndexes made the array private.

// pkSeed is the one hash seed of the process; hashes never leave memory.
var pkSeed = maphash.MakeSeed()

// pkHash hashes an encoded primary key.
func pkHash(key []byte) uint32 { return uint32(maphash.Bytes(pkSeed, key)) }

// pkIndex is the slot table. len(slots) is zero or a power of two; n counts
// the occupied slots.
type pkIndex struct {
	slots []uint64
	n     int
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
// the one change a shared array may take — or, when the entry would push the
// load past 3/4, first moves every entry into a fresh array twice the size.
func (x *pkIndex) add(h uint32, pos int) {
	if (x.n+1)*4 > len(x.slots)*3 {
		fresh := make([]uint64, pkSlotsFor(x.n+1))
		for _, e := range x.slots {
			if e != 0 {
				placeEntry(fresh, e)
			}
		}
		x.slots = fresh
	}
	placeEntry(x.slots, pkEntry(h, pos))
	x.n++
}

// placeEntry writes e into the first empty slot of its probe sequence.
func placeEntry(slots []uint64, e uint64) {
	mask := len(slots) - 1
	i := int(entryHash(e)) & mask
	for slots[i] != 0 {
		i = (i + 1) & mask
	}
	slots[i] = e
}

// slotOf returns the slot holding exactly e, or -1.
func (x *pkIndex) slotOf(e uint64) int {
	if len(x.slots) == 0 {
		return -1
	}
	mask := len(x.slots) - 1
	for i := int(entryHash(e)) & mask; x.slots[i] != 0; i = (i + 1) & mask {
		if x.slots[i] == e {
			return i
		}
	}
	return -1
}

// removeAt empties slot i and shifts the rest of its cluster back: an entry
// moves into the hole when the hole lies on its probe path (between its home
// slot and where it sits), so every remaining entry stays reachable with no
// tombstone. The array must be private.
func (x *pkIndex) removeAt(i int) {
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		e := x.slots[j]
		if (j-int(entryHash(e)))&mask >= (j-i)&mask {
			x.slots[i] = e
			i = j
		}
	}
	x.slots[i] = 0
	x.n--
}

// pkFind returns the position of the row visible to t whose primary key
// encodes to key (hash h), or -1. Positions at or past t's row count belong to
// rows committed after a frozen view — invisible to it. The re-encoding buffer
// stays on the stack: the call to appendKeyAt is direct. Concurrent callers
// hold idxMu for reading.
func (t *Table) pkFind(slots []uint64, key []byte, h uint32) int {
	if len(slots) == 0 {
		return -1
	}
	var kb [64]byte
	mask := len(slots) - 1
	for i := int(h) & mask; slots[i] != 0; i = (i + 1) & mask {
		e := slots[i]
		if entryHash(e) != h {
			continue
		}
		if pos := entryPos(e); pos < t.rows && bytes.Equal(t.appendKeyAt(kb[:0], pos, t.pkPos), key) {
			return pos
		}
	}
	return -1
}
