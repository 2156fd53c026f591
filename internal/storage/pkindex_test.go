package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// These tests drive the primary-key slot table with crafted hashes, so the
// clusters, wrap-arounds and shifts they check are the ones intended rather
// than whatever a real hash happens to produce.

// slotLayout renders the position held by every slot, -1 for empty.
func slotLayout(x *pkIndex) []int {
	out := make([]int, x.size)
	for i := range out {
		out[i] = -1
		if e := x.at(i); e != 0 {
			out[i] = entryPos(e)
		}
	}
	return out
}

// checkProbePaths proves the linear-probing invariant: no empty slot lies
// between any entry's home slot and the slot it sits in, and n counts the
// occupied slots.
func checkProbePaths(t *testing.T, x *pkIndex) {
	t.Helper()
	mask := x.size - 1
	occupied := 0
	for i := range x.size {
		e := x.at(i)
		if e == 0 {
			continue
		}
		occupied++
		for j := int(entryHash(e)) & mask; j != i; j = (j + 1) & mask {
			if x.at(j) == 0 {
				t.Fatalf("entry at slot %d (home %d) is cut off by empty slot %d", i, int(entryHash(e))&mask, j)
			}
		}
	}
	if occupied != x.n {
		t.Fatalf("%d slots occupied, n = %d", occupied, x.n)
	}
}

// checkPKIndex proves the primary-key slots index exactly the table's rows:
// one entry per row, and every row's key probing to its own position.
func checkPKIndex(t testing.TB, tbl *Table, step string) {
	t.Helper()
	if tbl.pkPos == nil {
		return
	}
	occupied := 0
	for i := range tbl.pk.size {
		if tbl.pk.at(i) != 0 {
			occupied++
		}
	}
	if occupied != tbl.Len() || tbl.pk.n != tbl.Len() {
		t.Fatalf("%s: primary key holds %d entries (n = %d) for %d rows", step, occupied, tbl.pk.n, tbl.Len())
	}
	var key []byte
	for pos := 0; pos < tbl.Len(); pos++ {
		key = tbl.appendKeyAt(key[:0], pos, tbl.pkPos)
		if got, ok := tbl.LookupPKPos(key); !ok || got != pos {
			t.Fatalf("%s: row %d's key probes to %d (found %v)", step, pos, got, ok)
		}
	}
}

func TestPKIndexClusterWrapsTheArrayEnd(t *testing.T) {
	x := &pkIndex{}
	*x = newPKIndex(8)
	// Three keys homed at slot 6 and one at slot 7: the cluster runs 6, 7,
	// 0, 1.
	for pos, h := range []uint32{6, 14, 22, 7} {
		x.add(h, pos)
	}
	if got, want := slotLayout(x), []int{2, 3, -1, -1, -1, -1, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("layout %v, want %v", got, want)
	}
	checkProbePaths(t, x)
	// Removing the head shifts every later entry back across the wrap, the
	// slot-7 key included: the hole at 0 lies on its path from 7.
	x.removeAt(6)
	if got, want := slotLayout(x), []int{3, -1, -1, -1, -1, -1, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after removing the head: layout %v, want %v", got, want)
	}
	checkProbePaths(t, x)
	for pos, h := range map[int]uint32{1: 14, 2: 22, 3: 7} {
		if x.slotOf(pkEntry(h, pos)) < 0 {
			t.Fatalf("entry (%d, %d) lost", h, pos)
		}
	}
}

func TestPKIndexBackwardShiftDeletion(t *testing.T) {
	// Positions 0..4 homed at slots 2, 2, 3, 5, 2 fill one cluster, slots 2-6.
	// Position 3 sits at its home and must never move back past it.
	hashes := []uint32{2, 18, 3, 5, 34}
	for _, tc := range []struct {
		name   string
		remove int // position
		want   []int
	}{
		{"head", 0, []int{-1, -1, 1, 2, 4, 3, -1, -1}},
		{"middle", 2, []int{-1, -1, 0, 1, 4, 3, -1, -1}},
		{"tail", 4, []int{-1, -1, 0, 1, 2, 3, -1, -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := &pkIndex{}
			*x = newPKIndex(16)
			for pos, h := range hashes {
				x.add(h, pos)
			}
			x.removeAt(x.slotOf(pkEntry(hashes[tc.remove], tc.remove)))
			if got := slotLayout(x)[:8]; !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("layout %v, want %v", got, tc.want)
			}
			checkProbePaths(t, x)
			if x.slotOf(pkEntry(hashes[tc.remove], tc.remove)) >= 0 {
				t.Fatal("the removed entry is still found")
			}
		})
	}
}

func TestPKIndexRepoint(t *testing.T) {
	x := &pkIndex{}
	*x = newPKIndex(8)
	for pos, h := range []uint32{3, 11, 19} {
		x.add(h, pos)
	}
	// unindexRows's move: the entry keeps its slot and hash, only its
	// position changes.
	slot := x.slotOf(pkEntry(11, 1))
	x.set(slot, pkEntry(11, 0))
	if x.slotOf(pkEntry(11, 1)) >= 0 || x.slotOf(pkEntry(11, 0)) != slot {
		t.Fatal("re-pointed entry not found at its new position")
	}
	checkProbePaths(t, x)
}

// TestPKIndexGrowthLeavesFrozenArray freezes a copy of the index — what a
// snapshot view holds — and keeps adding. Until growth the shared page only
// gains entries in empty slots; growth moves the live index to fresh pages
// and the frozen one stops changing.
func TestPKIndexGrowthLeavesFrozenArray(t *testing.T) {
	x := &pkIndex{}
	for pos := 0; pos < 5; pos++ {
		x.add(uint32(pos*8+7), pos) // all homed at slot 7: the cluster wraps
	}
	frozen := *x
	before := slices.Clone(frozen.pages[0])
	x.add(5*8+7, 5) // sixth entry: fills an empty slot of the shared page
	if &x.pages[0][0] != &frozen.pages[0][0] {
		t.Fatal("an add below the load limit reallocated")
	}
	for i, e := range before {
		if e != 0 && frozen.pages[0][i] != e {
			t.Fatalf("slot %d of the shared page changed", i)
		}
	}
	afterSix := slices.Clone(frozen.pages[0])
	x.add(6*8+7, 6) // seventh entry crosses 3/4 of 8 slots: growth
	if x.size != 16 || &x.pages[0][0] == &frozen.pages[0][0] {
		t.Fatalf("growth kept the shared page (size %d)", x.size)
	}
	if !reflect.DeepEqual(frozen.pages[0], afterSix) {
		t.Fatal("growth wrote into the frozen array")
	}
	checkProbePaths(t, x)
	for pos := 0; pos < 7; pos++ {
		if x.slotOf(pkEntry(uint32(pos*8+7), pos)) < 0 {
			t.Fatalf("position %d lost in growth", pos)
		}
	}
	for pos := 0; pos < 5; pos++ {
		if frozen.slotOf(pkEntry(uint32(pos*8+7), pos)) < 0 {
			t.Fatalf("frozen copy lost position %d", pos)
		}
	}
}

// TestPKIndexRandomOps runs adds, removals and re-points over a hash space of
// 24 values — collisions, long clusters and wraps everywhere — against a map
// oracle, checking every probe path after each step.
func TestPKIndexRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			x := &pkIndex{}
			oracle := map[int]uint32{} // position -> hash
			nextPos := 0
			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(10); {
				case op < 5 || len(oracle) == 0:
					h := uint32(rng.Intn(24))
					x.add(h, nextPos)
					oracle[nextPos] = h
					nextPos++
				case op < 8:
					pos := anyKey(rng, oracle)
					x.removeAt(x.slotOf(pkEntry(oracle[pos], pos)))
					delete(oracle, pos)
				default:
					pos := anyKey(rng, oracle)
					slot := x.slotOf(pkEntry(oracle[pos], pos))
					x.set(slot, pkEntry(oracle[pos], nextPos))
					oracle[nextPos] = oracle[pos]
					delete(oracle, pos)
					nextPos++
				}
				checkProbePaths(t, x)
				if x.n != len(oracle) || x.n*4 > x.size*3 {
					t.Fatalf("step %d: n = %d over %d slots, oracle %d", step, x.n, x.size, len(oracle))
				}
				for pos, h := range oracle {
					if x.slotOf(pkEntry(h, pos)) < 0 {
						t.Fatalf("step %d: entry (%d, %d) lost", step, h, pos)
					}
				}
			}
		})
	}
}

func anyKey(rng *rand.Rand, m map[int]uint32) int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys[rng.Intn(len(keys))]
}
