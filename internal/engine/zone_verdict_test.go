package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// This file holds every kernel's zone verdict to the kernel itself: for each
// predicate kernel_differential_test.go lowers, over zones of every kind the
// bounds summarize differently, a zone the kernel calls all-false must keep
// none of its rows, and one it calls all-true must keep them all. The kernel
// is the reference here because kernel_differential_test.go already holds it
// to the interpreter.

// verdictTestDB is vecTestDB's table V with one zone of each kind a verdict
// must get right: zone 0 is all NULL outside the key, zone 1 NULL-free, zone 2
// constant (one value per column, so its frame-of-reference deltas are all
// zero), zone 3 NULL-riddled with NaNs among its floats, and zone 4 a partial
// tail of extremes — NaN, ±0, ±Inf, ints around 2^53 and at the int64 limits,
// the empty string and bytes that are not UTF-8. The extremes drop the int
// column's frame-of-reference encoding; the date column's values stay within
// a byte of each zone's base, so it keeps it.
func verdictTestDB(t *testing.T) *storage.Database {
	t.Helper()
	db := vecTestDB(t, 0, 0)
	rng := rand.New(rand.NewSource(67))
	i, f, s, d, b := value.NewInt, value.NewFloat, value.NewText, value.NewDateDays, value.NewBool
	null := value.NewNull()
	maybe := func(v value.Value) value.Value {
		if rng.Intn(4) == 0 {
			return null
		}
		return v
	}
	nan, negZero, inf := math.NaN(), math.Copysign(0, -1), math.Inf(1)
	tail := [][]value.Value{
		{i(1 << 53), f(nan), s(""), d(-3), b(false)},
		{i(1<<53 + 1), f(negZero), s("tag-9"), d(7), b(true)},
		{i(-(1<<53 + 1)), f(0), s("zz\xff"), d(0), null},
		{i(math.MaxInt64), f(inf), s("tag-"), null, b(true)},
		{i(math.MinInt64), f(-inf), null, d(19), b(false)},
		{null, f(2), s("中文"), d(-20), b(true)},
		{i(0), null, s("tag-3"), d(5), null},
	}
	for r := 0; r < 4*storage.ZoneRows+200; r++ {
		tup := storage.Tuple{i(int64(r)), null, null, null, null, null}
		switch r >> storage.ZoneShift {
		case 1:
			copy(tup[1:], []value.Value{
				i(int64(rng.Intn(10))), f(float64(rng.Intn(8)) / 2), s(fmt.Sprintf("tag-%d", rng.Intn(6))),
				d(int64(rng.Intn(40) - 20)), b(rng.Intn(2) == 0),
			})
		case 2:
			copy(tup[1:], []value.Value{i(3), f(1.5), s("tag-3"), d(0), b(true)})
		case 3:
			x := f(float64(rng.Intn(8)) / 2)
			if rng.Intn(16) == 0 {
				x = f(nan)
			}
			copy(tup[1:], []value.Value{
				maybe(i(int64(rng.Intn(10)))), maybe(x), maybe(s(fmt.Sprintf("tag-%d", rng.Intn(6)))),
				maybe(d(int64(rng.Intn(40) - 20))), maybe(b(rng.Intn(2) == 0)),
			})
		case 4:
			copy(tup[1:], tail[r%len(tail)])
		}
		if err := db.Insert("V", tup); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// zoneVerdictNames prints a verdict.
var zoneVerdictNames = [...]string{zoneAllFalse: "all-false", zoneMixed: "mixed", zoneAllTrue: "all-true"}

// checkZoneVerdicts compiles each predicate over ex's table V into its kernel
// and holds the kernel's verdict on every zone to what keep does with the
// zone's rows. On zone 0, NULL outside the key, every kernel over another
// column must decide. It counts the verdicts given, per zone.
func checkZoneVerdicts(t *testing.T, ex *Engine, counts [][3]int) {
	t.Helper()
	tbl := ex.src.Table("V")
	n := tbl.Len()
	sel := make([]int32, storage.ZoneRows)
	for _, where := range kernelPredicates() {
		k := singleKernel(t, ex, where)
		for z := 0; z<<storage.ZoneShift < n; z++ {
			rows := zoneSel(sel, z<<storage.ZoneShift, min((z+1)<<storage.ZoneShift, n))
			want := len(rows)
			v := k.zone(z)
			kept := len(k.keep(rows))
			if v == zoneAllFalse && kept != 0 || v == zoneAllTrue && kept != want {
				t.Fatalf("%s, zone %d: verdict %s, but the kernel keeps %d of its %d rows",
					where.SQL(), z, zoneVerdictNames[v], kept, want)
			}
			if z == 0 && v == zoneMixed && !k.blind && k.col != tbl.Col(0) {
				t.Fatalf("%s: the all-NULL zone 0 left undecided", where.SQL())
			}
			counts[z][v]++
		}
	}
}

func TestZoneVerdictSound(t *testing.T) {
	db := verdictTestDB(t)
	ex := New(db)
	zones := db.Table("V").Col(0).ZoneCount()
	for _, sorted := range []bool{false, true} {
		if sorted {
			if err := db.EnableSortedDict("V", "s"); err != nil {
				t.Fatal(err)
			}
		}
		for _, fast := range []bool{true, false} {
			ex.SetZoneMapsEnabled(fast)
			counts := make([][3]int, zones)
			checkZoneVerdicts(t, ex, counts)
			// Every zone is decided both ways by some predicate, so a verdict
			// that gave up on a kind of zone would fail here.
			for z, c := range counts {
				if c[zoneAllFalse] == 0 || c[zoneAllTrue] == 0 {
					t.Errorf("sorted=%v fast=%v, zone %d: %d all-false, %d mixed, %d all-true verdicts",
						sorted, fast, z, c[zoneAllFalse], c[zoneMixed], c[zoneAllTrue])
				}
			}
			t.Logf("sorted=%v fast=%v: [all-false mixed all-true] per zone %v", sorted, fast, counts)
		}
	}
	ex.SetZoneMapsEnabled(true)

	// A frozen snapshot's boundary zone: the writer goes on extending it with
	// values outside every bound the snapshot saw, which its verdicts must not
	// see.
	snap := db.Snapshot()
	n := db.Table("V").Len()
	for r := 0; r < 50; r++ {
		if err := db.Insert("V", storage.Tuple{
			value.NewInt(int64(n + r)), value.NewInt(1000), value.NewFloat(-1000),
			value.NewText("late"), value.NewDateDays(100), value.NewBool(true),
		}); err != nil {
			t.Fatal(err)
		}
	}
	at := ex.At(snap)
	if got := at.src.Table("V").Len(); got != n {
		t.Fatalf("snapshot holds %d rows, want %d", got, n)
	}
	if got := db.Table("V").Col(0).ZoneCount(); got != zones {
		t.Fatalf("the late rows opened zone %d: the snapshot's last zone is not a boundary zone", got-1)
	}
	checkZoneVerdicts(t, at, make([][3]int, zones))
}
