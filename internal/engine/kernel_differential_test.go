package engine

import (
	"math"
	"slices"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file holds every selection kernel to the interpreter's WHERE: each
// predicate shape lowerVecFilter admits — every column kind under every
// operator, [NOT] BETWEEN, [NOT] IN with NULL entries, IS [NOT] NULL, LIKE with
// and without a sorted dictionary — is compiled into its kernel, with the
// encoded paths (frame-of-reference deltas, dictionary ranks) on and off. Its
// selection form runs over empty, one-row, sparse, full-zone,
// partial-tail-zone and frozen snapshot boundary-zone selections, and its
// range form over ranges that start at a zone's head or mid-zone and that end
// a full or a partial last zone, on NULL-riddled columns and on NULL-free
// ones, where the range form reads the payload itself. Each must keep exactly
// the rows the interpreter keeps, in position order.

// kernelTestDB is vecTestDB's NULL-riddled table spanning a full zone and a
// partial tail zone, whose tail also holds the values comparisons get wrong
// most easily (see addKernelEdgeRows).
func kernelTestDB(t *testing.T) *storage.Database {
	t.Helper()
	db := vecTestDB(t, storage.ZoneRows+200, 61)
	addKernelEdgeRows(t, db, storage.ZoneRows+200)
	return db
}

// addKernelEdgeRows appends to V, from id first on, the values comparisons
// get wrong most easily: NaN, -0.0 and +0.0, infinities, and ints around and
// beyond 2^53, where several share one float64 image.
func addKernelEdgeRows(t *testing.T, db *storage.Database, first int) {
	t.Helper()
	nan, negZero, inf := math.NaN(), math.Copysign(0, -1), math.Inf(1)
	ints := []int64{1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64, 0}
	floats := []float64{nan, negZero, 0, inf, -inf, 2}
	for i := range ints {
		if err := db.Insert("V", storage.Tuple{
			value.NewInt(int64(first + i)), value.NewInt(ints[i]), value.NewFloat(floats[i]),
			value.NewText("tag-9"), value.NewDateDays(int64(i)), value.NewBool(i%2 == 0),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// kernelPredicates lists one conjunct per lowered shape over kernelTestDB's
// columns.
func kernelPredicates() []sqlparser.Expr {
	col := func(name string) sqlparser.Expr { return &sqlparser.ColumnRef{Table: "v", Column: name} }
	lit := func(v value.Value) sqlparser.Expr { return &sqlparser.Literal{Value: v} }
	i, f, s, d := value.NewInt, value.NewFloat, value.NewText, value.NewDateDays
	nan, negZero, inf := math.NaN(), math.Copysign(0, -1), math.Inf(1)
	lits := map[string][]value.Value{
		"n":  {i(3), i(9), i(1 << 53), i(1<<53 + 1), i(math.MaxInt64), i(math.MinInt64), f(4.5), f(negZero), f(nan), f(inf), f(-inf), f(1 << 53)},
		"id": {i(0), i(100), i(storage.ZoneRows - 1), i(storage.ZoneRows), i(storage.ZoneRows + 203), f(2047.5), f(-1)},
		"f":  {f(1.5), f(0), f(negZero), f(nan), f(inf), f(-inf), i(2), i(0)},
		"s":  {s("tag-3"), s("tag-0"), s("tag-9"), s("no-such"), s(""), s("tag-")},
		"d":  {d(-5), d(0), d(19), d(-21), d(25)},
		"b":  {value.NewBool(true), value.NewBool(false)},
	}
	ops := []sqlparser.BinaryOp{sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe}
	var preds []sqlparser.Expr
	for _, c := range []string{"n", "id", "f", "s", "d", "b"} {
		for _, l := range lits[c] {
			for _, op := range ops {
				preds = append(preds, &sqlparser.BinaryExpr{Op: op, Left: col(c), Right: lit(l)})
			}
			// The flipped orientation, literal first.
			preds = append(preds, &sqlparser.BinaryExpr{Op: sqlparser.OpLt, Left: lit(l), Right: col(c)})
		}
		// Comparisons with NULL, and NULL BETWEEN bounds.
		null := lit(value.NewNull())
		preds = append(preds,
			&sqlparser.BinaryExpr{Op: sqlparser.OpEq, Left: col(c), Right: null},
			&sqlparser.BetweenExpr{Subject: col(c), Lo: null, Hi: lit(lits[c][0])},
			&sqlparser.IsNullExpr{Inner: col(c)},
			&sqlparser.IsNullExpr{Inner: col(c), Negate: true})
		for a := range lits[c] {
			for b := range lits[c] {
				for _, neg := range []bool{false, true} {
					preds = append(preds, &sqlparser.BetweenExpr{Subject: col(c), Lo: lit(lits[c][a]), Hi: lit(lits[c][b]), Negate: neg})
				}
			}
		}
		lists := [][]sqlparser.Expr{
			{},
			{lit(lits[c][0])},
			{lit(lits[c][0]), lit(lits[c][len(lits[c])-1]), null},
			{lit(lits[c][1]), lit(s("foreign")), lit(i(1))},
		}
		for _, l := range lists {
			for _, neg := range []bool{false, true} {
				preds = append(preds, &sqlparser.InExpr{Subject: col(c), List: l, Negate: neg})
			}
		}
	}
	// = and <> across incomparable kinds.
	for _, op := range []sqlparser.BinaryOp{sqlparser.OpEq, sqlparser.OpNe} {
		preds = append(preds,
			&sqlparser.BinaryExpr{Op: op, Left: col("s"), Right: lit(i(5))},
			&sqlparser.BinaryExpr{Op: op, Left: col("n"), Right: lit(s("tag-1"))},
			&sqlparser.BinaryExpr{Op: op, Left: col("b"), Right: lit(d(0))})
	}
	for _, p := range []string{"tag-%", "tag-1%", "%3", "tag_2", "", "%", "no%", "tag-9"} {
		preds = append(preds, &sqlparser.BinaryExpr{Op: sqlparser.OpLike, Left: col("s"), Right: lit(s(p))})
	}
	return preds
}

// kernelSelections returns the selections a kernel runs over in a table of n
// rows: empty, every tail row alone, a sparse run and the whole of zone 0,
// and the partial tail zone.
func kernelSelections(n int) [][]int32 {
	span := func(lo, hi, step int) []int32 {
		var sel []int32
		for p := lo; p < hi; p += step {
			sel = append(sel, int32(p))
		}
		return sel
	}
	tail := n &^ storage.ZoneMask
	sels := [][]int32{{}, span(0, storage.ZoneRows, 3), span(0, storage.ZoneRows, 1), span(tail, n, 1)}
	for p := tail; p < n; p++ {
		sels = append(sels, []int32{int32(p)})
	}
	return sels
}

// singleKernel compiles where over ex's table V as the single kernel of a
// scan.
func singleKernel(t *testing.T, ex *Engine, where sqlparser.Expr) *vecKernel {
	t.Helper()
	sel := &sqlparser.SelectStmt{
		Items: []sqlparser.SelectItem{{Expr: &sqlparser.Star{}}},
		From:  []*sqlparser.TableRef{{Relation: "V", Alias: "v"}},
		Where: where,
		Limit: -1,
	}
	entries, err := ex.flattenFrom(sel.From)
	if err != nil {
		t.Fatal(err)
	}
	pq := ex.compilePlan(ex.planFor(sel, entries, false), nil)
	if len(pq.plan.Steps) != 1 || len(pq.steps[0].vec) != 1 {
		t.Fatalf("%s: lowered to %d kernels, want 1", where.SQL(), len(pq.steps[0].vec))
	}
	return &pq.steps[0].vec[0]
}

// kernelRanges returns the ranges a kernel's range form runs over in a table
// of n rows, each within one zone and at most selRows long: empty, a zone's
// head, one starting mid-zone, the end of a full zone, the partial last zone
// from its head and from mid-way to its last row, and each of the last rows
// alone.
func kernelRanges(n int) [][2]int {
	last := n &^ storage.ZoneMask // the first row of the partial last zone
	rs := [][2]int{{0, 0}, {0, min(n, selRows)}, {13, min(n, 13+selRows/2)},
		{max(last, n-selRows), n}, {max(last, n-150), n}}
	if last > 0 {
		rs = append(rs, [2]int{last - 300, last}, [2]int{last, min(n, last+selRows)})
	}
	for p := max(last, n-8); p < n; p++ {
		rs = append(rs, [2]int{p, p + 1})
	}
	return rs
}

// checkKernel compiles where over ex's table V as the single kernel of a
// scan, runs its selection form over each selection and its range form over
// each range, and holds the kept rows to the interpreter's positions want —
// and, over a range, to the selection form over the range's positions.
func checkKernel(t *testing.T, ex *Engine, where sqlparser.Expr, want map[int32]bool, sels [][]int32, ranges [][2]int) {
	t.Helper()
	k := singleKernel(t, ex, where)
	wanted := func(s []int32) []int32 {
		var exp []int32
		for _, p := range s {
			if want[p] {
				exp = append(exp, p)
			}
		}
		return exp
	}
	for _, s := range sels {
		if got, exp := k.keep(slices.Clone(s)), wanted(s); !slices.Equal(got, exp) {
			t.Fatalf("%s over %d positions from %v: kernel kept %v, interpreter %v",
				where.SQL(), len(s), s[:min(len(s), 1)], got, exp)
		}
	}
	buf, sel := make([]int32, selRows), make([]int32, selRows)
	for _, r := range ranges {
		exp := wanted(zoneSel(sel, r[0], r[1]))
		got := k.selectRange(buf, r[0], r[1])
		kept := k.keep(zoneSel(sel, r[0], r[1]))
		if !slices.Equal(got, exp) || !slices.Equal(kept, exp) {
			t.Fatalf("%s over [%d, %d): range form kept %v, selection form %v, interpreter %v",
				where.SQL(), r[0], r[1], got, kept, exp)
		}
	}
}

// interpKeeps is the set of V's positions the interpreter's WHERE keeps.
func interpKeeps(t *testing.T, ex *Engine, where sqlparser.Expr) map[int32]bool {
	t.Helper()
	tbl := ex.src.Table("V")
	positions, err := interpPositions(ex, tbl, "v", where)
	if err != nil {
		t.Fatalf("%s: interpreter: %v", where.SQL(), err)
	}
	keep := make(map[int32]bool, len(positions))
	for _, p := range positions {
		keep[int32(p)] = true
	}
	return keep
}

// readsText reports whether predicate p reads V's text column s, the only one
// whose kernels read a sorted dictionary's ranks.
func readsText(p sqlparser.Expr) bool {
	text := false
	sqlparser.WalkExpr(p, func(x sqlparser.Expr) bool {
		if ref, ok := x.(*sqlparser.ColumnRef); ok && ref.Column == "s" {
			text = true
		}
		return true
	})
	return text
}

// checkKernels runs checkKernel for every predicate over ex's table V with
// the encoded paths on and off, and again for the text predicates once s
// keeps a sorted dictionary.
func checkKernels(t *testing.T, db *storage.Database, ex *Engine, preds []sqlparser.Expr, wants []map[int32]bool, sels [][]int32, ranges [][2]int) {
	t.Helper()
	for _, sorted := range []bool{false, true} {
		if sorted {
			if err := db.EnableSortedDict("V", "s"); err != nil {
				t.Fatal(err)
			}
		}
		for _, fast := range []bool{true, false} {
			ex.SetZoneMapsEnabled(fast)
			for i, p := range preds {
				if sorted && !readsText(p) {
					continue
				}
				checkKernel(t, ex, p, wants[i], sels, ranges)
			}
		}
	}
	ex.SetZoneMapsEnabled(true)
}

func TestKernelDifferential(t *testing.T) {
	db := kernelTestDB(t)
	ex := New(db)
	n := db.Table("V").Len()
	preds := kernelPredicates()
	wants := make([]map[int32]bool, len(preds))
	for i, p := range preds {
		wants[i] = interpKeeps(t, ex, p)
	}
	checkKernels(t, db, ex, preds, wants, kernelSelections(n), kernelRanges(n))

	// A frozen snapshot's boundary zone: the writer keeps extending the zone
	// past the snapshot, whose kernels must see only its own rows.
	snap := db.Snapshot()
	for k := 0; k < 50; k++ {
		if err := db.Insert("V", storage.Tuple{
			value.NewInt(int64(n + k)), value.NewInt(int64(k % 7)), value.NewFloat(-1),
			value.NewText("late"), value.NewDateDays(100), value.NewBool(true),
		}); err != nil {
			t.Fatal(err)
		}
	}
	at := ex.At(snap)
	if got := at.src.Table("V").Len(); got != n {
		t.Fatalf("snapshot holds %d rows, want %d", got, n)
	}
	boundary := [][]int32{kernelSelections(n)[3]}
	for _, p := range preds {
		checkKernel(t, at, p, interpKeeps(t, at, p), boundary, [][2]int{{n &^ storage.ZoneMask, n}})
	}
}

// TestKernelRangeFormNullFree holds every kernel shape to the interpreter on
// a table without NULLs, where no NULL pre-pass runs and the range form's
// payload loop reads the range itself: one partial zone, its edge rows last.
func TestKernelRangeFormNullFree(t *testing.T) {
	const rows = 1500
	db := vecTestTable(t, rows, 67, false)
	addKernelEdgeRows(t, db, rows)
	ex := New(db)
	tbl := db.Table("V")
	for pos := range 6 {
		if tbl.Col(pos).HasNulls() {
			t.Fatalf("column %d holds NULLs", pos)
		}
	}
	if _, _, ok := tbl.Col(4).FORInts(); !ok {
		t.Fatal("d keeps no frame-of-reference deltas")
	}
	preds := kernelPredicates()
	wants := make([]map[int32]bool, len(preds))
	for i, p := range preds {
		wants[i] = interpKeeps(t, ex, p)
	}
	checkKernels(t, db, ex, preds, wants, nil, kernelRanges(tbl.Len()))
}
