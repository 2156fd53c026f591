package storage

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/catalog"
	"repro/internal/value"
)

// zoneSchema is one relation with one attribute per kind and no constraints,
// so random insert/delete/update sequences can run unrestricted.
func zoneSchema(t *testing.T) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema("zones")
	if err := s.AddRelation(&catalog.Relation{
		Name: "Z",
		Attributes: []*catalog.Attribute{
			{Name: "i", Type: catalog.Int},
			{Name: "f", Type: catalog.Float},
			{Name: "s", Type: catalog.Text},
			{Name: "d", Type: catalog.Date},
			{Name: "b", Type: catalog.Bool},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func newZoneDB(t *testing.T) (*Database, *Table) {
	t.Helper()
	db, err := NewDatabase(zoneSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	return db, db.Table("Z")
}

func randZTuple(rng *rand.Rand) Tuple {
	tup := make(Tuple, 5)
	if rng.Intn(8) == 0 {
		tup[0] = value.NewNull()
	} else {
		tup[0] = value.NewInt(int64(rng.Intn(2000) - 1000))
	}
	switch rng.Intn(12) {
	case 0:
		tup[1] = value.NewNull()
	case 1:
		tup[1] = value.NewFloat(math.NaN())
	case 2:
		tup[1] = value.NewFloat(math.Copysign(0, -1))
	case 3:
		tup[1] = value.NewFloat(0)
	default:
		tup[1] = value.NewFloat(float64(rng.Intn(400)-200) / 4)
	}
	if rng.Intn(8) == 0 {
		tup[2] = value.NewNull()
	} else {
		tup[2] = value.NewText(fmt.Sprintf("w%03d", rng.Intn(300)))
	}
	if rng.Intn(8) == 0 {
		tup[3] = value.NewNull()
	} else {
		tup[3] = value.NewDateDays(int64(rng.Intn(5000) + 10000))
	}
	if rng.Intn(8) == 0 {
		tup[4] = value.NewNull()
	} else {
		tup[4] = value.NewBool(rng.Intn(2) == 0)
	}
	return tup
}

// checkZones verifies every column's zone maps against a brute-force rescan:
// per-zone null counts, typed bounds, NaN flags, the null-count-vs-bitmap
// consistency, and frame-of-reference decode parity.
func checkZones(t *testing.T, tbl *Table) {
	t.Helper()
	n := tbl.Len()
	for p := range tbl.cols {
		col := tbl.Col(p)
		if !col.ZonesSynced(n) {
			t.Fatalf("col %d: zones cover %d rows, table has %d", p, tbl.cols[p].zrows, n)
		}
		wantZones := (n + ZoneRows - 1) / ZoneRows
		if col.ZoneCount() != wantZones {
			t.Fatalf("col %d: %d zones, want %d", p, col.ZoneCount(), wantZones)
		}
		totalNulls := 0
		for z := 0; z < col.ZoneCount(); z++ {
			lo, hi := z*ZoneRows, (z+1)*ZoneRows
			if hi > n {
				hi = n
			}
			nulls := 0
			first := true
			var loI, hiI int64
			var loF, hiF float64
			var loS, hiS string
			hasNaN := false
			for i := lo; i < hi; i++ {
				if col.Null(i) {
					nulls++
					continue
				}
				switch col.Kind() {
				case value.Int, value.Date:
					x := col.Ints(i >> ZoneShift)[i&ZoneMask]
					if first {
						loI, hiI, first = x, x, false
					} else if x < loI {
						loI = x
					} else if x > hiI {
						hiI = x
					}
				case value.Float:
					x := col.Floats(i >> ZoneShift)[i&ZoneMask]
					if math.IsNaN(x) {
						hasNaN = true
						continue
					}
					if first {
						loF, hiF, first = x, x, false
					} else if x < loF {
						loF = x
					} else if x > hiF {
						hiF = x
					}
				case value.Text:
					s := col.DictString(col.Codes(i >> ZoneShift)[i&ZoneMask])
					if first {
						loS, hiS, first = s, s, false
					} else if s < loS {
						loS = s
					} else if s > hiS {
						hiS = s
					}
				case value.Bool:
					var x int64
					if col.Bools(i >> ZoneShift)[i&ZoneMask] {
						x = 1
					}
					if first {
						loI, hiI, first = x, x, false
					} else if x < loI {
						loI = x
					} else if x > hiI {
						hiI = x
					}
				}
			}
			if got := col.ZoneNulls(z); got != nulls {
				t.Fatalf("col %d zone %d: %d nulls, want %d", p, z, got, nulls)
			}
			totalNulls += nulls
			switch col.Kind() {
			case value.Int, value.Date, value.Bool:
				gl, gh, ok := col.ZoneIntBounds(z)
				if ok == first {
					t.Fatalf("col %d zone %d: bounds ok=%v, want %v", p, z, ok, !first)
				}
				if ok && (gl != loI || gh != hiI) {
					t.Fatalf("col %d zone %d: bounds [%d,%d], want [%d,%d]", p, z, gl, gh, loI, hiI)
				}
			case value.Float:
				gl, gh, ok := col.ZoneFloatBounds(z)
				if ok == first {
					t.Fatalf("col %d zone %d: bounds ok=%v, want %v", p, z, ok, !first)
				}
				if col.ZoneHasNaN(z) != hasNaN {
					t.Fatalf("col %d zone %d: hasNaN=%v, want %v", p, z, col.ZoneHasNaN(z), hasNaN)
				}
				if ok && (gl != loF || gh != hiF) {
					t.Fatalf("col %d zone %d: bounds [%v,%v], want [%v,%v]", p, z, gl, gh, loF, hiF)
				}
			case value.Text:
				gl, gh, ok := col.ZoneTextBounds(z)
				if ok == first {
					t.Fatalf("col %d zone %d: bounds ok=%v, want %v", p, z, ok, !first)
				}
				if ok && (gl != loS || gh != hiS) {
					t.Fatalf("col %d zone %d: bounds [%q,%q], want [%q,%q]", p, z, gl, gh, loS, hiS)
				}
			}
		}
		if got := tbl.cols[p].nulls.count(n); got != totalNulls {
			t.Fatalf("col %d: bitmap counts %d nulls, zones say %d", p, got, totalNulls)
		}
		if base, d8, ok := col.FORInts(); ok {
			for i := 0; i < n; i++ {
				if col.Null(i) {
					continue
				}
				if got := base[i>>ZoneShift] + int64(d8[i>>ZoneShift][i&ZoneMask]); got != col.Ints(i >> ZoneShift)[i&ZoneMask] {
					t.Fatalf("col %d row %d: FOR decodes %d, payload %d", p, i, got, col.Ints(i >> ZoneShift)[i&ZoneMask])
				}
			}
		}
		// Whatever mix of appends, subtractions, out-of-order arrivals and
		// rescans produced the zones, they must equal the zones of the same
		// values rescanned from scratch, row by row.
		fresh := rescannedColumn(col, n)
		if !reflect.DeepEqual(fresh.zones, tbl.cols[p].zones) {
			t.Fatalf("col %d: zones differ from a from-scratch rebuild", p)
		}
		if c := &tbl.cols[p]; !c.forOff && !fresh.forOff && !reflect.DeepEqual(fresh.fb, c.fb) {
			t.Fatalf("col %d: frame-of-reference bases %v, a from-scratch rebuild has %v", p, c.fb, fresh.fb)
		}
		// DeepEqual holds -0.0 and +0.0 equal; a printed bound does not.
		for z := range fresh.zones {
			f, g := &fresh.zones[z], &tbl.cols[p].zones[z]
			if math.Float64bits(f.minF) != math.Float64bits(g.minF) || math.Float64bits(f.maxF) != math.Float64bits(g.maxF) {
				t.Fatalf("col %d zone %d: float bounds [%v,%v], a from-scratch rebuild has [%v,%v]", p, z, g.minF, g.maxF, f.minF, f.maxF)
			}
		}
	}
}

// rescannedColumn holds col's first n values with zones built from scratch
// by the one-row fold of the stale-zone rescan (rederive), independently of
// the range builder appends and loads use.
func rescannedColumn(col Col, n int) *column {
	fresh := newColumn(col.Kind(), nil)
	vals, rows := make([]value.Value, n), make([]Tuple, n)
	for i := range rows {
		vals[i] = col.Value(i)
		rows[i] = vals[i : i+1 : i+1]
	}
	fresh.appendPayloads(rows, 0, 0, false)
	k := chunksFor(n)
	if k == 0 {
		return &fresh
	}
	fresh.zones, fresh.zrows = make([]zone, k), n
	if !fresh.forOff {
		fresh.fb, fresh.d8, fresh.d8Own = make([]int64, k), make([][]uint8, k), make([]uint64, k)
	}
	for z := range k {
		fresh.rederive(z, n)
	}
	return &fresh
}

// oracleStats derives every attribute's statistics from the rows alone — the
// one statistics oracle: exact non-NULL counts, distinct counts under
// value.AppendKey's identity, and bounds over the comparable values (NaN
// excluded) ordered within the column's kind, so ints compare as ints.
func oracleStats(tbl *Table) []AttrStats {
	out := make([]AttrStats, len(tbl.cols))
	var buf []byte
	for p := range tbl.cols {
		col := tbl.Col(p)
		a := &out[p]
		a.Min, a.Max = value.NewNull(), value.NewNull()
		distinct := map[string]bool{}
		for i := 0; i < tbl.Len(); i++ {
			if col.Null(i) {
				continue
			}
			v := col.Value(i)
			a.NonNull++
			buf = v.AppendKey(buf[:0])
			distinct[string(buf)] = true
			if v.Kind() == value.Float && math.IsNaN(v.Float()) {
				continue
			}
			if a.Min.IsNull() || kindLess(v, a.Min) {
				a.Min = v
			}
			if a.Max.IsNull() || kindLess(a.Max, v) {
				a.Max = v
			}
		}
		a.Distinct = len(distinct)
	}
	return out
}

// kindLess orders two non-NULL values of one kind. value.Compare orders ints
// by their float64 images, which cannot tell 2^53 from 2^53+1.
func kindLess(a, b value.Value) bool {
	if a.Kind() == value.Int {
		return a.Int() < b.Int()
	}
	c, _ := a.Compare(b)
	return c < 0
}

// sameBound reports whether two bounds are the same value (-0.0 and +0.0 are).
func sameBound(a, b value.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	return a.Equal(b)
}

// checkStats holds tbl.Stats() — a live table's derivation or a frozen view's
// captured statistics — to the oracle over the rows the table shows.
func checkStats(t *testing.T, tbl *Table) {
	t.Helper()
	got := tbl.Stats()
	if got.Rows != tbl.Len() {
		t.Fatalf("stats rows %d, want %d", got.Rows, tbl.Len())
	}
	if want := (tbl.Len() + ZoneRows - 1) / ZoneRows; got.Zones != want {
		t.Fatalf("stats zones %d, want %d", got.Zones, want)
	}
	for p, want := range oracleStats(tbl) {
		a := got.Attrs[p]
		if a.NonNull != want.NonNull {
			t.Fatalf("attr %d: NonNull %d, want %d", p, a.NonNull, want.NonNull)
		}
		if a.Distinct != want.Distinct {
			t.Fatalf("attr %d: Distinct %d, want %d", p, a.Distinct, want.Distinct)
		}
		if !sameBound(a.Min, want.Min) || !sameBound(a.Max, want.Max) {
			t.Fatalf("attr %d: bounds [%v,%v], want [%v,%v]", p, a.Min, a.Max, want.Min, want.Max)
		}
	}
}

// TestZoneMapsRandomOps drives random insert/delete/update sequences across
// every column kind (with NULLs, NaN, and -0.0 in the mix) and checks zone
// maps, frame-of-reference parity, and statistics against brute force after
// every write batch.
func TestZoneMapsRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db, tbl := newZoneDB(t)
	insertN := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			if err := db.Insert("Z", randZTuple(rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	insertN(2*ZoneRows + 500)
	checkZones(t, tbl)
	checkStats(t, tbl)
	for round := 0; round < 4; round++ {
		m := int64(rng.Intn(5) + 3)
		r := rng.Int63n(m)
		if _, err := db.Delete("Z", func(tup Tuple) bool {
			return !tup[0].IsNull() && ((tup[0].Int()%m)+m)%m == r
		}); err != nil {
			t.Fatal(err)
		}
		checkZones(t, tbl)
		checkStats(t, tbl)
		if _, err := db.Update("Z", func(tup Tuple) bool {
			return !tup[4].IsNull() && tup[4].Bool()
		}, func(tup Tuple) Tuple {
			repl := tup.Clone()
			repl[1] = randZTuple(rng)[1]
			repl[2] = randZTuple(rng)[2]
			return repl
		}); err != nil {
			t.Fatal(err)
		}
		checkZones(t, tbl)
		checkStats(t, tbl)
		insertN(700)
		checkZones(t, tbl)
		checkStats(t, tbl)
	}
}

// TestStatsNaNBounds pins the stats fix: NaN is excluded from min/max (it is
// incomparable), so a NaN arriving first no longer poisons the bounds, and
// removing it leaves them intact.
func TestStatsNaNBounds(t *testing.T) {
	db, tbl := newZoneDB(t)
	nan := Tuple{value.NewNull(), value.NewFloat(math.NaN()), value.NewNull(), value.NewNull(), value.NewNull()}
	five := Tuple{value.NewInt(1), value.NewFloat(5), value.NewNull(), value.NewNull(), value.NewNull()}
	for _, tup := range []Tuple{nan.Clone(), five.Clone()} {
		if err := db.Insert("Z", tup); err != nil {
			t.Fatal(err)
		}
	}
	if a := tbl.Stats().Attrs[1]; !a.Min.Equal(value.NewFloat(5)) || !a.Max.Equal(value.NewFloat(5)) {
		t.Fatalf("bounds with NaN present: [%v,%v], want [5,5]", a.Min, a.Max)
	}
	if _, err := db.Delete("Z", func(tup Tuple) bool { return tup[0].IsNull() }); err != nil {
		t.Fatal(err)
	}
	if a := tbl.Stats().Attrs[1]; !a.Min.Equal(value.NewFloat(5)) || !a.Max.Equal(value.NewFloat(5)) {
		t.Fatalf("bounds after NaN removal: [%v,%v], want [5,5]", a.Min, a.Max)
	}
	// An all-NaN column has no comparable values: NULL bounds.
	if _, err := db.Delete("Z", func(Tuple) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Z", nan.Clone()); err != nil {
		t.Fatal(err)
	}
	if a := tbl.Stats().Attrs[1]; !a.Min.IsNull() || !a.Max.IsNull() {
		t.Fatalf("all-NaN bounds: [%v,%v], want NULLs", a.Min, a.Max)
	}
}

// TestStatsEdgeCases walks the cases duplicated bounds bookkeeping once got
// wrong, holding the live table and the published snapshot to the oracle
// after every statement: a NaN arriving first, both zero signs, an UPDATE and
// a DELETE taking away the sole max and min, NULL-only and NaN removals, an
// all-NULL column, a BOOL column losing one of its values, ints at 2^53 and
// 2^53+1 (one key under value.AppendKey, two bounds), TEXT across dictionary
// compaction, and a pinned snapshot's statistics after later writes.
func TestStatsEdgeCases(t *testing.T) {
	db, tbl := newZoneDB(t)
	null := value.NewNull()
	row := func(i int64, f float64, s string, b bool) Tuple {
		return Tuple{value.NewInt(i), value.NewFloat(f), value.NewText(s), null, value.NewBool(b)}
	}
	attr := func(p int) AttrStats { return tbl.Stats().Attrs[p] }
	check := func(t *testing.T) {
		t.Helper()
		checkStats(t, tbl)
		checkStats(t, db.Snapshot().Table("Z"))
	}
	insert := func(t *testing.T, tups ...Tuple) {
		t.Helper()
		for _, tup := range tups {
			if err := db.Insert("Z", tup); err != nil {
				t.Fatal(err)
			}
		}
	}
	where := func(t *testing.T, pred func(Tuple) bool, set func(Tuple) Tuple) {
		t.Helper()
		var err error
		if set == nil {
			_, err = db.Delete("Z", pred)
		} else {
			_, err = db.Update("Z", pred, set)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	id := func(i int64) func(Tuple) bool {
		return func(tup Tuple) bool { return !tup[0].IsNull() && tup[0].Int() == i }
	}
	floatIs := func(t *testing.T, a AttrStats, lo, hi float64, distinct int) {
		t.Helper()
		if !sameBound(a.Min, value.NewFloat(lo)) || !sameBound(a.Max, value.NewFloat(hi)) || a.Distinct != distinct {
			t.Fatalf("f stats [%v,%v] distinct %d, want [%v,%v] distinct %d", a.Min, a.Max, a.Distinct, lo, hi, distinct)
		}
	}

	t.Run("nan-first", func(t *testing.T) {
		insert(t, row(1, math.NaN(), "b", true), row(2, 5, "a", false))
		check(t)
		floatIs(t, attr(1), 5, 5, 2)
	})
	t.Run("both-zero-signs", func(t *testing.T) {
		insert(t, row(3, math.Copysign(0, -1), "c", true), row(4, 0, "c", true))
		check(t)
		floatIs(t, attr(1), 0, 5, 3) // NaN, 5 and one zero
	})
	t.Run("update-removes-sole-max", func(t *testing.T) {
		where(t, id(2), func(tup Tuple) Tuple { tup[1] = value.NewFloat(1); return tup })
		check(t)
		floatIs(t, attr(1), 0, 1, 3)
	})
	t.Run("delete-removes-sole-min-and-the-nan", func(t *testing.T) {
		where(t, id(1), nil)
		check(t)
		if a := attr(0); a.Min.Int() != 2 {
			t.Fatalf("i min %v after deleting the sole 1, want 2", a.Min)
		}
		floatIs(t, attr(1), 0, 1, 2)
	})
	t.Run("delete-one-zero-sign", func(t *testing.T) {
		where(t, id(3), nil)
		check(t)
		floatIs(t, attr(1), 0, 1, 2)
	})
	t.Run("null-only-removal", func(t *testing.T) {
		insert(t, Tuple{null, null, null, null, null})
		where(t, func(tup Tuple) bool { return tup[0].IsNull() }, nil)
		check(t)
	})
	t.Run("all-null-column", func(t *testing.T) {
		if a := attr(3); a.NonNull != 0 || a.Distinct != 0 || !a.Min.IsNull() || !a.Max.IsNull() {
			t.Fatalf("all-NULL d stats %+v", a)
		}
	})
	t.Run("bool-loses-a-value", func(t *testing.T) {
		if a := attr(4); a.Distinct != 2 {
			t.Fatalf("b distinct %d with both values present, want 2", a.Distinct)
		}
		where(t, func(tup Tuple) bool { return tup[4].Bool() }, nil)
		check(t)
		if a := attr(4); a.Distinct != 1 || a.Max.Bool() {
			t.Fatalf("b stats %+v after deleting every true, want only false", a)
		}
	})
	t.Run("ints-at-2^53", func(t *testing.T) {
		insert(t, row(1<<53, 2, "d", true), row(1<<53+1, 2, "d", true))
		check(t)
		if a := attr(0); a.Distinct != 2 || a.Max.Int() != 1<<53+1 {
			t.Fatalf("i stats %+v, want distinct 2 (2 and one key for 2^53, 2^53+1) and max 2^53+1", a)
		}
		where(t, id(1<<53+1), nil)
		check(t)
		if a := attr(0); a.Distinct != 2 || a.Max.Int() != 1<<53 {
			t.Fatalf("i stats %+v after deleting 2^53+1, want distinct 2 and max 2^53", a)
		}
	})
	t.Run("text-across-compaction", func(t *testing.T) {
		for k := int64(0); k < 2*dictCompactMin; k++ {
			insert(t, row(100+k, 3, fmt.Sprintf("unique-%03d", k), false))
		}
		check(t)
		before := tbl.Col(2).DictLen()
		where(t, func(tup Tuple) bool { return tup[0].Int() >= 100 }, func(tup Tuple) Tuple { tup[2] = value.NewText("a"); return tup })
		if after := tbl.Col(2).DictLen(); after >= before {
			t.Fatalf("dictionary of %d entries did not compact (%d before)", after, before)
		}
		check(t)
	})
	t.Run("pinned-snapshot-after-writes", func(t *testing.T) {
		view := db.Snapshot().Table("Z")
		want := view.Stats()
		where(t, func(Tuple) bool { return true }, nil)
		insert(t, row(7, math.NaN(), "q", true))
		check(t)
		checkStats(t, view)
		if got := view.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("pinned snapshot's stats moved with later writes:\n%+v\nwant\n%+v", got, want)
		}
	})
}

// count returns the number of set bits below position n.
func (b *bitmap) count(n int) int {
	total := 0
	full := min(n>>6, len(b.words))
	for _, w := range b.words[:full] {
		total += bits.OnesCount64(w)
	}
	if rem := n & 63; rem != 0 && full < len(b.words) {
		total += bits.OnesCount64(b.words[full] & ((1 << uint(rem)) - 1))
	}
	return total
}

// TestBitmapBoundaries exhaustively exercises set/truncate/get around word
// boundaries (63/64/65 and every other count up to two words plus change): a
// stale bit after truncate would corrupt null counts and zone maps.
func TestBitmapBoundaries(t *testing.T) {
	for n := 0; n <= 130; n++ {
		for trunc := 0; trunc <= n; trunc++ {
			var b bitmap
			for i := 0; i < n; i++ {
				b.set(i, true)
			}
			b.truncate(trunc)
			for i := 0; i < trunc; i++ {
				if !b.get(i) {
					t.Fatalf("n=%d trunc=%d: bit %d lost", n, trunc, i)
				}
			}
			for i := trunc; i <= n+64; i++ {
				if b.get(i) {
					t.Fatalf("n=%d trunc=%d: stale bit %d", n, trunc, i)
				}
			}
			if got := b.count(n + 64); got != trunc {
				t.Fatalf("n=%d trunc=%d: count %d, want %d", n, trunc, got, trunc)
			}
			// Re-grow over the truncated tail: false stores must not
			// resurrect stale words, true stores must land exactly.
			b.set(trunc+2, true)
			for i := trunc; i <= trunc+3; i++ {
				if b.get(i) != (i == trunc+2) {
					t.Fatalf("n=%d trunc=%d: regrow bit %d = %v", n, trunc, i, b.get(i))
				}
			}
		}
	}
	// Alternating patterns across truncate, checked against a model.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var b bitmap
		model := make([]bool, 140)
		for i := range model {
			model[i] = rng.Intn(2) == 0
			b.set(i, model[i])
		}
		cut := rng.Intn(len(model) + 1)
		b.truncate(cut)
		want := 0
		for i := 0; i < len(model)+64; i++ {
			exp := i < cut && model[i]
			if b.get(i) != exp {
				t.Fatalf("trial %d cut %d: bit %d = %v, want %v", trial, cut, i, b.get(i), exp)
			}
			if exp {
				want++
			}
		}
		if got := b.count(len(model) + 64); got != want {
			t.Fatalf("trial %d cut %d: count %d, want %d", trial, cut, got, want)
		}
	}
}

// TestDictCompactionOnChurn pins the dictionary-churn fix: after updates
// retire most of the vocabulary, the dictionary compacts down to the live
// strings, so DictLen — the bound on every per-entry verdict loop in the
// vectorized engine — shrinks back instead of growing forever.
func TestDictCompactionOnChurn(t *testing.T) {
	db, tbl := newZoneDB(t)
	for i := 0; i < 1000; i++ {
		tup := Tuple{value.NewInt(int64(i)), value.NewNull(), value.NewText(fmt.Sprintf("unique-%04d", i)), value.NewNull(), value.NewNull()}
		if err := db.Insert("Z", tup); err != nil {
			t.Fatal(err)
		}
	}
	col := tbl.Col(2)
	if col.DictLen() != 1000 {
		t.Fatalf("pre-churn DictLen %d, want 1000", col.DictLen())
	}
	if _, err := db.Update("Z", func(Tuple) bool { return true }, func(tup Tuple) Tuple {
		repl := tup.Clone()
		repl[2] = value.NewText(fmt.Sprintf("w%d", tup[0].Int()%8))
		return repl
	}); err != nil {
		t.Fatal(err)
	}
	if col.DictLen() != 8 {
		t.Fatalf("post-churn DictLen %d, want 8 (dict not compacted)", col.DictLen())
	}
	if col.DictLive() != 8 {
		t.Fatalf("post-churn DictLive %d, want 8", col.DictLive())
	}
	// Codes were remapped: every row still reads back its string.
	for i := 0; i < tbl.Len(); i++ {
		want := fmt.Sprintf("w%d", tbl.Col(0).Ints(i >> ZoneShift)[i&ZoneMask]%8)
		if got := col.Value(i).Text(); got != want {
			t.Fatalf("row %d reads %q after compaction, want %q", i, got, want)
		}
	}
	checkZones(t, tbl)
	checkStats(t, tbl)

	// Delete-driven churn compacts too.
	db2, tbl2 := newZoneDB(t)
	for i := 0; i < 2000; i++ {
		tup := Tuple{value.NewInt(int64(i)), value.NewNull(), value.NewText(fmt.Sprintf("only-%04d", i)), value.NewNull(), value.NewNull()}
		if err := db2.Insert("Z", tup); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db2.Delete("Z", func(tup Tuple) bool { return tup[0].Int() >= 100 }); err != nil {
		t.Fatal(err)
	}
	if col2 := tbl2.Col(2); col2.DictLen() != 100 {
		t.Fatalf("post-delete DictLen %d, want 100", col2.DictLen())
	}
	checkZones(t, tbl2)
	checkStats(t, tbl2)
}

// TestSortedDictRanks checks the opt-in sorted dictionary: ranks order codes
// exactly like their strings, LowerBoundRank matches a naive count, and both
// survive vocabulary growth and compaction.
func TestSortedDictRanks(t *testing.T) {
	db, tbl := newZoneDB(t)
	if err := db.EnableSortedDict("Z", "s"); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableSortedDict("Z", "i"); err == nil {
		t.Fatal("sorted dict on an INT attribute should fail")
	}
	rng := rand.New(rand.NewSource(11))
	words := []string{"delta", "alpha", "echo", "bravo", "charlie", "Æon", "zulu", "año", "apple"}
	for i := 0; i < 500; i++ {
		tup := Tuple{value.NewInt(int64(i)), value.NewNull(), value.NewText(words[rng.Intn(len(words))]), value.NewNull(), value.NewNull()}
		if err := db.Insert("Z", tup); err != nil {
			t.Fatal(err)
		}
	}
	col := tbl.Col(2)
	verify := func() {
		t.Helper()
		if !col.SortedDict() {
			t.Fatal("SortedDict() false after enable")
		}
		ranks := col.Ranks()
		for a := 0; a < col.DictLen(); a++ {
			for b := 0; b < col.DictLen(); b++ {
				sa, sb := col.DictString(uint32(a)), col.DictString(uint32(b))
				if (ranks[a] < ranks[b]) != (sa < sb) {
					t.Fatalf("ranks disagree with strings: %q->%d vs %q->%d", sa, ranks[a], sb, ranks[b])
				}
			}
		}
		for _, probe := range append(append([]string{}, words...), "", "aaaa", "zzzz", "éclair") {
			want := 0
			for c := 0; c < col.DictLen(); c++ {
				if col.DictString(uint32(c)) < probe {
					want++
				}
			}
			if got := col.LowerBoundRank(probe); got != want {
				t.Fatalf("LowerBoundRank(%q) = %d, want %d", probe, got, want)
			}
		}
	}
	verify()
	// Grow the vocabulary: ranks refresh at write completion.
	for i := 0; i < 100; i++ {
		tup := Tuple{value.NewInt(int64(1000 + i)), value.NewNull(), value.NewText(fmt.Sprintf("grow-%03d", 99-i)), value.NewNull(), value.NewNull()}
		if err := db.Insert("Z", tup); err != nil {
			t.Fatal(err)
		}
	}
	verify()
	// Churn away the grown vocabulary: compaction rebuilds ranks over the
	// survivors.
	if _, err := db.Update("Z", func(tup Tuple) bool { return tup[0].Int() >= 1000 }, func(tup Tuple) Tuple {
		repl := tup.Clone()
		repl[2] = value.NewText(words[0])
		return repl
	}); err != nil {
		t.Fatal(err)
	}
	verify()
	checkZones(t, tbl)
}

// TestFrameOfReference checks the Int/Date byte-delta encoding directly:
// decode parity for clustered data (including the rebase path for descending
// values), survival across delete-rebuilds, and the permanent drop once a
// zone's span overflows a byte.
func TestFrameOfReference(t *testing.T) {
	db, tbl := newZoneDB(t)
	null := value.NewNull()
	insInt := func(x int64) {
		t.Helper()
		if err := db.Insert("Z", Tuple{value.NewInt(x), null, null, null, null}); err != nil {
			t.Fatal(err)
		}
	}
	// Clustered: each value repeats 32x, so per-zone span = ZoneRows/32 = 128.
	n := 2*ZoneRows + 300
	for i := 0; i < n; i++ {
		insInt(int64(i >> 5))
	}
	col := tbl.Col(0)
	if _, _, ok := col.FORInts(); !ok {
		t.Fatal("clustered column should keep frame-of-reference encoding")
	}
	checkZones(t, tbl)
	// Descending values exercise the rebase path inside one zone.
	db2, tbl2 := newZoneDB(t)
	for i := 0; i < 200; i++ {
		if err := db2.Insert("Z", Tuple{value.NewInt(int64(200 - i)), null, null, null, null}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := tbl2.Col(0).FORInts(); !ok {
		t.Fatal("descending-in-byte-span column should keep the encoding")
	}
	checkZones(t, tbl2)
	// Delete a middle chunk: the suffix rebuild keeps decode parity.
	if _, err := db.Delete("Z", func(tup Tuple) bool {
		x := tup[0].Int()
		return x >= 40 && x < 80
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := col.FORInts(); !ok {
		t.Fatal("encoding lost across delete-rebuild")
	}
	checkZones(t, tbl)
	// A wide value overflows the zone span: the encoding drops for good.
	insInt(1 << 40)
	if _, _, ok := col.FORInts(); ok {
		t.Fatal("encoding should drop after a byte-span overflow")
	}
	checkZones(t, tbl)
}

// TestMinMaxZoneFold checks that the zone fold the statistics read their
// bounds from agrees with the oracle on every kind, NaN-bearing floats
// included.
func TestMinMaxZoneFold(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	db, tbl := newZoneDB(t)
	for i := 0; i < ZoneRows+700; i++ {
		if err := db.Insert("Z", randZTuple(rng)); err != nil {
			t.Fatal(err)
		}
	}
	for p, want := range oracleStats(tbl) {
		lo, hi := tbl.cols[p].minMaxZones()
		if !sameBound(lo, want.Min) || !sameBound(hi, want.Max) {
			t.Fatalf("col %d: zone fold [%v,%v], oracle [%v,%v]", p, lo, hi, want.Min, want.Max)
		}
	}
}

// zoneFuzzRows is FuzzZoneMaintenance's table size: two full zones and a
// short third one.
const zoneFuzzRows = 2*ZoneRows + 37

// zoneFuzzRow is base row r of FuzzZoneMaintenance's table. Each zone z holds
// i in [1000z, 1000z+199] and d in [20000+100z, 20000+100z+49], both inside a
// byte, so the frame-of-reference encoding is on; f's minimum is +0.0, first
// at row 4, and rows 10 and 4100 hold the only NaN of their zones; in the
// short last zone i, s and b each hold a single bounded value.
func zoneFuzzRow(r int) Tuple {
	z := r >> ZoneShift
	tup := Tuple{
		value.NewInt(int64(1000*z + r%200)),
		value.NewFloat(float64((r + 3) % 7)),
		value.NewText(fmt.Sprintf("w%02d", r%23)),
		value.NewDateDays(int64(20000 + 100*z + r%50)),
		value.NewBool(r%3 == 0),
	}
	if r%20 == 7 || z == 2 && r != 2*ZoneRows+5 {
		tup[0] = value.NewNull()
	}
	if r == 10 || r == 4100 {
		tup[1] = value.NewFloat(math.NaN())
	} else if r%13 == 5 {
		tup[1] = value.NewNull()
	}
	if r%17 == 2 || z == 2 && r != 2*ZoneRows+5 {
		tup[2] = value.NewNull()
	}
	if r%19 == 0 {
		tup[3] = value.NewNull()
	}
	if r%29 == 1 || z == 2 && r != 2*ZoneRows+8 {
		tup[4] = value.NewNull()
	}
	return tup
}

// zoneFuzzValue is column p's value for selector v in zone z: values on and
// between the zone's bounds, one below the minimum (a frame-of-reference
// rebase), one past a byte above it (an overflow), a small i whatever the
// zone, the two zeros, NaN and NULL.
func zoneFuzzValue(p, z int, v byte) value.Value {
	null := value.NewNull()
	switch p {
	case 0:
		switch k := int(v) % 8; k {
		case 6:
			return value.NewInt(7)
		case 7:
			return null
		default:
			return value.NewInt(int64(1000*z) + []int64{-1, 0, 100, 199, 200, 300}[k])
		}
	case 1:
		return []value.Value{null, value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0),
			value.NewFloat(math.NaN()), value.NewFloat(6), value.NewFloat(7), value.NewFloat(3)}[int(v)%7]
	case 2:
		return []value.Value{null, value.NewText("w00"), value.NewText("w22"), value.NewText("w10"),
			value.NewText("a"), value.NewText("z")}[int(v)%6]
	case 3:
		days := []int64{-1, 0, 49, 300}
		if int(v)%5 == 4 {
			return null
		}
		return value.NewDateDays(int64(20000+100*z) + days[int(v)%5])
	}
	return []value.Value{null, value.NewBool(true), value.NewBool(false)}[int(v)%3]
}

// zoneFuzzOp encodes one FuzzZoneMaintenance op: kind 0 inserts, 1 deletes
// row pos, 2 updates row pos's column col (5: every column) to the selector v,
// 3 inserts the batch zoneFuzzBatch draws from pos and v, 4 runs the
// multi-row update zoneFuzzUpdate draws from pos, col and v.
func zoneFuzzOp(kind, col, pos int, v byte) []byte {
	return []byte{byte(kind + 5*col), byte(pos >> 8), byte(pos), v}
}

// zoneFuzzUpdate is the multi-row column update of FuzzZoneMaintenance's op
// kind 4: column col (5: every column) over 2 to 33 rows spaced 1 to 8 apart
// (by v) that straddle the zone boundary after row sel, set to selector-drawn
// values for the zones they sit in; when it sets i and v%4 == 3, the row at
// v%n fails INT coercion. It returns the statement and how many rows the
// update must accept.
func zoneFuzzUpdate(tableRows, sel, col int, v byte) (positions, attrs []int, vals []value.Value, want int) {
	m, step := 2+int(v)%32, 1+int(v>>5)
	b := (sel>>ZoneShift + 1) << ZoneShift
	if b >= tableRows {
		b = ZoneRows
	}
	for p := max(0, b-m/2*step); len(positions) < m && p < tableRows; p += step {
		positions = append(positions, p)
	}
	attrs = []int{col}
	if col == 5 {
		attrs = []int{0, 1, 2, 3, 4}
	}
	n := len(positions)
	vals = make([]value.Value, len(attrs)*n)
	for c, a := range attrs {
		for k, p := range positions {
			vals[c*n+k] = zoneFuzzValue(a, p>>ZoneShift, v+byte(k*(a+1)))
		}
	}
	if attrs[0] != 0 || v%4 != 3 {
		return positions, attrs, vals, n
	}
	want = int(v) % n
	vals[want] = value.NewText("x")
	return positions, attrs, vals, want
}

// zoneFuzzBatch is the multi-row InsertRows of FuzzZoneMaintenance's op kind
// 3: 2 to 300 rows, by sel, of selector-drawn values for the zones they land
// in, and a row that fails INT coercion at v%n when v%4 == 3. It returns the
// rows and how many of them the insert must accept.
func zoneFuzzBatch(tableRows, sel int, v byte) ([]Tuple, int) {
	n := 2 + sel%299
	rows := make([]Tuple, n)
	for r := range rows {
		rows[r] = make(Tuple, 5)
		for p := range rows[r] {
			rows[r][p] = zoneFuzzValue(p, (tableRows+r)>>ZoneShift, v+byte(r*(p+1)))
		}
	}
	if v%4 != 3 {
		return rows, n
	}
	k := int(v) % n
	rows[k][0] = value.NewText("x")
	return rows, k
}

// zoneView hashes everything a frozen view reads of its zones: coverage,
// every zone's summary (floats by their bits), and each row's value and
// frame-of-reference decoding.
func zoneView(tbl *Table) uint64 {
	h := fnv.New64a()
	n := tbl.Len()
	var buf []byte
	for p := range tbl.cols {
		col := tbl.Col(p)
		fmt.Fprintf(h, "col %d synced=%v zones=%d\n", p, col.ZonesSynced(n), col.ZoneCount())
		for z := 0; z < col.ZoneCount(); z++ {
			il, ih, iok := col.ZoneIntBounds(z)
			fl, fh, fok := col.ZoneFloatBounds(z)
			tl, th, tok := col.ZoneTextBounds(z)
			fmt.Fprintf(h, " [%d %v %d:%d:%v %x:%x:%v %q:%q:%v]", col.ZoneNulls(z), col.ZoneHasNaN(z),
				il, ih, iok, math.Float64bits(fl), math.Float64bits(fh), fok, tl, th, tok)
		}
		base, d8, forOK := col.FORInts()
		fmt.Fprintf(h, "\n for=%v", forOK)
		buf = buf[:0]
		for i := 0; i < n; i++ {
			buf = append(col.Value(i).AppendKey(buf), ' ')
			if forOK && !col.Null(i) {
				buf = strconv.AppendInt(buf, base[i>>ZoneShift]+int64(d8[i>>ZoneShift][i&ZoneMask]), 10)
			}
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// FuzzZoneMaintenance applies single-row Insert, DeleteAt and UpdateAt ops,
// multi-row InsertRows ops (2 to 300 rows, some refused partway) and
// multi-row column UpdateAt ops across a zone boundary (2 to 33 rows, some
// refused partway) to a three-zone table of every kind, decoded four bytes
// an op. After each op
// the zones must equal a from-scratch rebuild (frame-of-reference parity
// included), the statistics the oracle's, and the version published before
// the op must still read its old zones and bytes.
func FuzzZoneMaintenance(f *testing.F) {
	z2 := 2 * ZoneRows
	seeds := [][][]byte{
		// A bound leaving: row 199 holds zone 0's max i, row 200 its min.
		{zoneFuzzOp(2, 0, 199, 2), zoneFuzzOp(1, 0, 200, 0), zoneFuzzOp(1, 0, 4295, 0)},
		// A -0.0 arriving before the zone's first +0.0 minimum, then +0.0
		// arriving where the -0.0 bound is.
		{zoneFuzzOp(2, 1, 1, 1), zoneFuzzOp(2, 1, 0, 2), zoneFuzzOp(2, 1, 1, 2)},
		// NaN leaving: the only NaN of zones 0 and 1, one updated, one deleted.
		{zoneFuzzOp(2, 1, 10, 4), zoneFuzzOp(1, 0, 4100, 0), zoneFuzzOp(2, 1, 12, 3)},
		// NULL to value and back, across kinds.
		{zoneFuzzOp(2, 0, 7, 2), zoneFuzzOp(2, 2, 2, 4), zoneFuzzOp(2, 4, 0, 0),
			zoneFuzzOp(2, 3, 19, 2), zoneFuzzOp(2, 1, 5, 5), zoneFuzzOp(2, 0, 8, 6)},
		// A frame-of-reference rebase by update and by append, then an
		// overflow that drops the encoding.
		{zoneFuzzOp(2, 0, 50, 0), zoneFuzzOp(2, 3, 51, 0), zoneFuzzOp(0, 0, 0, 0),
			zoneFuzzOp(2, 0, 60, 5), zoneFuzzOp(1, 0, 61, 0)},
		// Mid-table deletes: rows slide from zone 1 to 0 and 2 to 1.
		{zoneFuzzOp(1, 0, 100, 0), zoneFuzzOp(1, 0, 4096, 0), zoneFuzzOp(1, 0, 0, 0),
			zoneFuzzOp(2, 5, 4095, 3), zoneFuzzOp(1, 0, 4094, 0)},
		// The last zone's only bounded i, s and b leaving; a small i then
		// arrives in the zone left without one.
		{zoneFuzzOp(2, 2, z2+5, 0), zoneFuzzOp(1, 0, z2+8, 0), zoneFuzzOp(2, 5, z2+1, 7),
			zoneFuzzOp(2, 0, z2+5, 7), zoneFuzzOp(2, 0, z2+2, 6)},
		// Batches: 300 rows filling the last zone and opening the next, one
		// refused at its eighth row, a delete sliding rows back, two rows.
		{zoneFuzzOp(3, 0, 298, 0), zoneFuzzOp(3, 0, 100, 7), zoneFuzzOp(1, 0, 4090, 0),
			zoneFuzzOp(3, 0, 0, 2)},
		// Column updates across the boundaries of zones 0|1 and 1|2: every
		// column over 16 rows three apart, i over 21 rows two apart refused
		// at the tenth (the nine before it apply), d over 33 adjacent rows.
		{zoneFuzzOp(4, 5, 100, 0x4e), zoneFuzzOp(4, 0, ZoneRows+9, 0x33), zoneFuzzOp(4, 3, 0, 0x1f),
			zoneFuzzOp(4, 1, 5, 0x02), zoneFuzzOp(4, 2, ZoneRows, 0xe0)},
		// Everything at once, on every column.
		{zoneFuzzOp(0, 0, 0, 1), zoneFuzzOp(2, 5, 4096, 5), zoneFuzzOp(1, 0, 3, 0),
			zoneFuzzOp(2, 5, z2, 3), zoneFuzzOp(0, 0, 0, 6), zoneFuzzOp(1, 0, z2-1, 0)},
	}
	for _, ops := range seeds {
		var in []byte
		for _, op := range ops {
			in = append(in, op...)
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 24 {
			in = in[:24] // six ops: every op rechecks the whole table
		}
		db, tbl := newZoneDB(t)
		base := make([]Tuple, zoneFuzzRows)
		for r := range base {
			base[r] = zoneFuzzRow(r)
		}
		if _, err := db.InsertRows(context.Background(), "Z", base); err != nil {
			t.Fatal(err)
		}
		for ; len(in) >= 4; in = in[4:] {
			kind, col := int(in[0])%5, int(in[0])/5%6
			pos, v := (int(in[1])<<8|int(in[2]))%tbl.Len(), in[3]
			frozen := db.Snapshot().Table("Z")
			before := zoneView(frozen)
			var err error
			switch kind {
			case 0:
				tup := make(Tuple, len(tbl.cols))
				for p := range tup {
					tup[p] = zoneFuzzValue(p, tbl.Len()>>ZoneShift, v)
				}
				err = db.Insert("Z", tup)
			case 1:
				_, err = db.DeleteAt(context.Background(), "Z", []int{pos})
			case 2:
				attrs := []int{col}
				if col == 5 {
					attrs = []int{0, 1, 2, 3, 4}
				}
				vals := make([]value.Value, len(attrs))
				for c, a := range attrs {
					vals[c] = zoneFuzzValue(a, pos>>ZoneShift, v)
				}
				_, err = db.UpdateAt(context.Background(), "Z", []int{pos}, attrs, vals)
			case 3:
				rows, want := zoneFuzzBatch(tbl.Len(), int(in[1])<<8|int(in[2]), v)
				var n int
				n, err = db.InsertRows(context.Background(), "Z", rows)
				if n != want || (err == nil) != (want == len(rows)) {
					t.Fatalf("batch of %d rows: %d inserted (%v), want %d", len(rows), n, err, want)
				}
				err = nil
			case 4:
				positions, attrs, vals, want := zoneFuzzUpdate(tbl.Len(), pos, col, v)
				var n int
				n, err = db.UpdateAt(context.Background(), "Z", positions, attrs, vals)
				if n != want || (err == nil) != (want == len(positions)) {
					t.Fatalf("update of %d rows: %d updated (%v), want %d", len(positions), n, err, want)
				}
				err = nil
			}
			if err != nil {
				t.Fatal(err)
			}
			checkZones(t, tbl)
			checkStats(t, tbl)
			if after := zoneView(frozen); after != before {
				t.Fatalf("op %d on row %d changed the zones of the version published before it", kind, pos)
			}
		}
	})
}
