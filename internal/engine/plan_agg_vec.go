package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file is the engine's one aggregator. Its group table and
// accumulators are fed one of two ways. Grouped queries that compile onto the
// fused pipeline run scan → joins → grouping over batches of table
// positions, never materializing a joined row, and the plan's aggregate step
// becomes vec-aggregate to say so: group keys and aggregate arguments read
// typed column vectors directly, and accumulators are unboxed typed arrays
// indexed by a dense group number. The state takes one batch of rows per
// call (updateBatch), in the manner of MonetDB/X100 (Boncz, Zukowski & Nes,
// CIDR 2005): a scan-only plan's kept selection vectors as they are, a
// primary-key probe's positions, a join plan's joined rows gathered in a
// small per-worker tail batch. Each batch runs in passes of one typed loop
// per key or aggregate: the rows' group numbers, their row counts, the
// accumulators. Two tiers map a row to its group: when every key is
// dictionary- or range-codeable with a small combined domain, a flat array
// indexed by the composed code; otherwise a hash table over fixed-width
// packed key bytes. DISTINCT aggregates track per-group bitsets over the
// argument's code domain. Every other grouped
// query feeds the join pipeline's rows (aggregateRows): the hash tier keyed
// by value.AppendKey over the evaluated GROUP BY values, and boxed argument
// values (updateRow). Either way the groups finish alike (finishVecAgg).
//
// Parallelism runs on the engine's one scheduler (fanOut): the base scan
// splits into contiguous position ranges, one per worker, each aggregating
// into a private state, and the states merge in range order — worker 0's
// groups first, each part's in creation order — which is the order a serial
// scan creates them in, so parallel output is byte-identical to serial
// execution. The worker count is decided once, at compile time, and the plan
// gains a parallel-scan step exactly when it is above one: only when every
// aggregate's partial states merge exactly (integer sums are associative;
// float sums qualify only when provably free of rounding) and the engine's
// parallel gate passes. The fused pipeline as a whole runs only when no
// predicate can raise an error, so the worker count can never change results
// or error behavior.
//
// Both feeds answer as the interpreter oracle does: integer group keys and
// MIN/MAX comparisons go through float64 images, because that is how
// value.AppendKey and value.Compare treat integers; MIN/MAX ties keep the
// first-seen value (a merge replaces only on a strict improvement); AVG
// divides a float sum built row by row in serial mode and merged only when
// merging is exact; groups come out in first-seen order over rows in
// pipeline order (the oracle's wherever the plan keeps FROM order). The row feed also checks the
// grouping rule before it evaluates any group key, and a boxed aggregate's
// error surfaces only when the query reads the aggregate: HAVING before the
// select items, ORDER BY keys last.

const (
	// maxArrayDomain bounds the composed group-code domain of the flat
	// array tier (the per-state lookup array is this long at worst).
	maxArrayDomain = uint64(1) << 16
	// maxBitsetDomain bounds the value-domain width a DISTINCT aggregate may
	// track with a per-group bitset (dictionary size for text, min..max span
	// for integers and dates).
	maxBitsetDomain = int64(1) << 16
	// exactInt bounds the float64-exact integer range: distinct int64
	// payloads beyond it can share one float image.
	exactInt = int64(1) << 53
)

// ---------------------------------------------------------------------------
// Compiled form
// ---------------------------------------------------------------------------

// vecCol is a column the fused pipeline reads: its owning step, attribute
// position and handle, and whether its zone maps cover the table (zoned), so
// that a zone's NULL count can stand in for its NULL bitmap.
type vecCol struct {
	si, pos int
	col     storage.Col
	kind    value.Kind
	zoned   bool
}

// vecColumn compiles a plain column reference of the query onto the column it
// reads; ok is false for anything else, or a column without a typed payload
// vector.
func (pq *plannedQuery) vecColumn(e sqlparser.Expr) (vecCol, bool) {
	ref, ok := e.(*sqlparser.ColumnRef)
	if !ok || ref.Column == "*" {
		return vecCol{}, false
	}
	slot, ok := pq.slotOf(ref)
	if !ok {
		return vecCol{}, false
	}
	si, pos := pq.slotOwner(slot)
	if si < 0 {
		return vecCol{}, false
	}
	tbl := pq.plan.Steps[si].Input.Tbl
	col := tbl.Col(pos)
	c := vecCol{si: si, pos: pos, col: col, kind: col.Kind(), zoned: col.ZonesSynced(tbl.Len())}
	return c, vecKind(c.kind)
}

// nullsIn reports whether zone z may hold a NULL, which a typed loop must
// then read off the bitmap row by row.
func (c *vecCol) nullsIn(z int) bool { return !c.zoned || c.col.ZoneNulls(z) > 0 }

// vecKey is one GROUP BY column with its array-tier coding parameters (code
// 0 is reserved for NULL).
type vecKey struct {
	vecCol
	// array tier: code = payload - base + 1, stride its positional weight.
	base   int64
	stride int32
}

// addCodes adds the key's weighted array-tier code at each position of pos
// to the composed code in the same place of g: one typed loop per zone the
// positions visit.
func (k *vecKey) addCodes(pos, g []int32) {
	col, stride := k.col, k.stride
	for len(pos) > 0 {
		n := zoneRun(pos)
		z := int(pos[0]) >> storage.ZoneShift
		run, out := pos[:n], g[:n]
		nulls := k.nullsIn(z)
		switch k.kind {
		case value.Int, value.Date:
			chunk, base := col.Ints(z), k.base-1
			for r, ti := range run {
				if !nulls || !col.Null(int(ti)) {
					out[r] += int32(chunk[ti&storage.ZoneMask]-base) * stride
				}
			}
		case value.Text:
			chunk := col.Codes(z)
			for r, ti := range run {
				if !nulls || !col.Null(int(ti)) {
					out[r] += int32(chunk[ti&storage.ZoneMask]+1) * stride
				}
			}
		default: // Bool (Float never reaches the array tier)
			chunk := col.Bools(z)
			for r, ti := range run {
				if !nulls || !col.Null(int(ti)) {
					c := int32(1)
					if chunk[ti&storage.ZoneMask] {
						c = 2
					}
					out[r] += c * stride
				}
			}
		}
		pos, g = pos[n:], g[n:]
	}
}

// pack appends the key's fixed-width (tag + 8 payload bytes) encoding at
// position ti. Integers pack their float64 image — the same identity the
// interpreter's encoded group keys use — and -0.0 collapses onto +0.0.
func (k *vecKey) pack(buf []byte, ti int) []byte {
	var tag byte
	var b uint64
	if !k.col.Null(ti) {
		tag = 1
		z, off := ti>>storage.ZoneShift, ti&storage.ZoneMask
		switch k.kind {
		case value.Int:
			b = math.Float64bits(float64(k.col.Ints(z)[off]))
		case value.Date:
			b = uint64(k.col.Ints(z)[off])
		case value.Float:
			f := k.col.Floats(z)[off]
			if f == 0 {
				f = 0 // collapse -0 and +0, like value.AppendKey
			}
			b = math.Float64bits(f)
		case value.Text:
			b = uint64(k.col.Codes(z)[off])
		case value.Bool:
			if k.col.Bools(z)[off] {
				b = 1
			}
		}
	}
	return append(buf, tag,
		byte(b>>56), byte(b>>48), byte(b>>40), byte(b>>32),
		byte(b>>24), byte(b>>16), byte(b>>8), byte(b))
}

// vecAgg is one distinct aggregate expression compiled onto a column, or,
// row-fed, onto its argument's evaluation over the joined row (arg).
type vecAgg struct {
	fn       sqlparser.AggFunc
	star     bool // no argument: the group row count
	distinct bool // a per-group bitset; row-fed, a set of value.AppendKey keys
	arg      rowEval
	vecCol
	// exact reports the accumulator merges across partial states without
	// rounding — the per-aggregate condition for a parallel scan.
	exact bool
	// DISTINCT bitset geometry: one bit per code, code = payload - setBase
	// (dictionary code for text, 0/1 for bool).
	setWords int
	setBase  int64
}

// boxed reports a row-fed aggregate with an argument.
func (a *vecAgg) boxed() bool { return a.arg != nil }

// vecAggExec is a grouped query compiled for the aggregator: for the fused
// pipeline, or row-fed (rowFed, with gbEvals evaluating the GROUP BY
// expressions over a joined row).
type vecAggExec struct {
	pq      *plannedQuery
	keys    []vecKey
	rowFed  bool
	gbEvals []rowEval
	aggs    []*vecAgg
	aggIdx  map[string]int
	stats   []*storage.TableStats // lazy per-step snapshots
	// arrayTier selects the flat composed-code lookup; domain is its size.
	arrayTier bool
	domain    uint64
	keyW      int // hash tier: packed bytes per key vector
	// workers is the base scan's worker count, decided at compile time.
	workers int
	// outside records that compilePost met an expression outside the
	// fused dialect.
	outside bool
	// Post-aggregation program over the group row [prefix...,
	// aggregate results...], whose prefix is pw values wide: the key values
	// when column-fed, the representative (first) joined row when row-fed.
	pw       int
	having   rowEval
	items    []rowEval
	sortKeys []plannedSortKey
}

func (va *vecAggExec) statsOf(si int) *storage.TableStats {
	if va.stats[si] == nil {
		s := va.pq.plan.Steps[si].Input.Tbl.Stats()
		va.stats[si] = &s
	}
	return va.stats[si]
}

func (va *vecAggExec) allExact() bool {
	for _, a := range va.aggs {
		if !a.exact {
			return false
		}
	}
	return true
}

// slotOwner maps an absolute slot to its owning step and attribute position.
func (pq *plannedQuery) slotOwner(slot int) (int, int) {
	for si, st := range pq.plan.Steps {
		n := len(st.Input.Rel.Attributes)
		if slot >= st.Offset && slot < st.Offset+n {
			return si, slot - st.Offset
		}
	}
	return -1, -1
}

// vecKind reports whether a column of the given kind has a typed payload
// vector the fused pipeline reads.
func vecKind(kind value.Kind) bool {
	switch kind {
	case value.Int, value.Date, value.Float, value.Text, value.Bool:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

// tryVecAgg runs the fused vectorized aggregation when the grouped query
// compiles onto it. ok=false leaves the query to the row feeder
// (aggregateRows).
func (ex *Engine) tryVecAgg(sel *sqlparser.SelectStmt, entries []fromEntry, pq *plannedQuery) (*Result, bool, error) {
	va, cols, ok := pq.compileVecAgg(sel, entries)
	if !ok {
		return nil, false, nil
	}
	res, err := ex.runVecAgg(sel, pq, va, cols)
	return res, true, err
}

// compileVecAgg compiles a grouped query for the fused pipeline and, when it
// fits, records that on the plan: the aggregate shape step becomes
// vec-aggregate, preceded by a parallel-scan step when the base scan will
// run on more than one worker — every aggregate merges exactly and the
// engine's parallel gate passes for the full scan. ok=false — a predicate,
// group key or grouped expression is outside its dialect — leaves the plan
// as the planner built it.
func (pq *plannedQuery) compileVecAgg(sel *sqlparser.SelectStmt, entries []fromEntry) (*vecAggExec, []string, bool) {
	plan := pq.plan
	va, ok := pq.compileVecKeys(sel)
	if !ok {
		return nil, nil, false
	}
	items, cols, err := expandItems(sel, entries)
	if err != nil {
		// The row feeder raises the identical error (its join phase cannot
		// fail when every filter is vectorized), so just decline.
		return nil, nil, false
	}
	if !va.compilePost(sel, newGrouping(sel, entries), items) {
		return nil, nil, false
	}
	// Every grouped plan has its aggregate step (planner.Build).
	i := slices.IndexFunc(plan.Shape, func(sh *planner.ShapeStep) bool { return sh.Kind == planner.ShapeAggregate })
	plan.Shape[i].Kind = planner.ShapeVecAggregate
	va.workers = 1
	if st0 := plan.Steps[0]; st0.Access == planner.ScanFull && va.allExact() {
		va.workers = pq.ex.workersFor(st0.Input.Tbl.Len())
	}
	if va.workers > 1 {
		plan.Shape = slices.Insert(plan.Shape, i, &planner.ShapeStep{
			Kind:       planner.ShapeParallelScan,
			K:          va.workers,
			EstRows:    plan.Steps[0].EstRows,
			ActualRows: -1,
		})
	}
	return va, cols, true
}

// compileVecKeys builds the structural half: pipeline invariants and the
// group-key columns with their tier parameters.
func (pq *plannedQuery) compileVecKeys(sel *sqlparser.SelectStmt) (*vecAggExec, bool) {
	plan := pq.plan
	if len(pq.postEvals) > 0 || len(plan.Steps) == 0 {
		return nil, false
	}
	for si, st := range plan.Steps {
		if len(pq.steps[si].self) > 0 || len(pq.steps[si].post) > 0 || st.Join != sqlparser.JoinInner {
			return nil, false
		}
	}
	va := &vecAggExec{
		pq:     pq,
		aggIdx: map[string]int{},
		stats:  make([]*storage.TableStats, len(plan.Steps)),
	}
	for _, g := range sel.GroupBy {
		c, ok := pq.vecColumn(g)
		if !ok {
			return nil, false
		}
		va.keys = append(va.keys, vecKey{vecCol: c})
	}
	va.pw = len(va.keys)

	// Tier decision: composed-code array when every key codes into a small
	// dense domain, packed-key hash otherwise.
	va.arrayTier = true
	va.domain = 1
	for i := range va.keys {
		k := &va.keys[i]
		card := va.keyCard(k)
		if card == 0 || va.domain > maxArrayDomain/card {
			va.arrayTier = false
			va.domain = 0
			break
		}
		k.stride = int32(va.domain)
		va.domain *= card
	}
	va.keyW = 9 * len(va.keys)
	return va, true
}

// keyCard computes the array-tier cardinality (values + the NULL slot) of
// one key and stores its code base. Zero means the key is outside the array
// dialect: floats, an unbounded integer span, or integer bounds past the
// float64-exact range (beyond it distinct int64 payloads can share one float
// image — one group under the interpreter's encoded keys, which dense
// integer codes would wrongly split).
func (va *vecAggExec) keyCard(k *vecKey) uint64 {
	switch k.kind {
	case value.Text:
		return uint64(k.col.DictLen()) + 1
	case value.Bool:
		return 3
	case value.Int, value.Date:
		at := &va.statsOf(k.si).Attrs[k.pos]
		if at.Min.IsNull() {
			return 1 // empty column: only the NULL code can occur
		}
		var lo, hi int64
		if k.kind == value.Int {
			lo, hi = at.Min.Int(), at.Max.Int()
			if lo <= -exactInt || hi >= exactInt {
				return 0
			}
		} else {
			lo, hi = at.Min.DateDays(), at.Max.DateDays()
		}
		span := uint64(hi - lo)
		if span >= maxArrayDomain {
			return 0
		}
		k.base = lo
		return span + 2
	default:
		return 0
	}
}

// addAgg registers (or reuses) the accumulator for one aggregate expression:
// row-fed, its argument compiled over the joined row; column-fed, a typed
// accumulator over its column, where ok=false means it is outside the
// typed-accumulator dialect.
func (va *vecAggExec) addAgg(a *sqlparser.AggregateExpr) (int, bool) {
	key := a.SQL()
	if idx, ok := va.aggIdx[key]; ok {
		return idx, true
	}
	spec := &vecAgg{fn: a.Func, distinct: a.Distinct}
	if a.Arg == nil {
		spec.star, spec.exact, spec.distinct = true, true, false
	} else if va.rowFed {
		spec.arg = va.pq.compile(a.Arg)
	} else {
		c, ok := va.pq.vecColumn(a.Arg)
		if !ok {
			return 0, false
		}
		spec.vecCol = c
		switch a.Func {
		case sqlparser.AggCount:
			spec.exact = true
			if spec.distinct && !va.distinctSetup(spec) {
				return 0, false
			}
		case sqlparser.AggMin, sqlparser.AggMax:
			// MIN/MAX over distinct values is MIN/MAX: drop the bitset.
			spec.distinct = false
			spec.exact = true
		case sqlparser.AggSum, sqlparser.AggAvg:
			switch spec.kind {
			case value.Int:
				if spec.distinct {
					if !va.distinctSetup(spec) {
						return 0, false
					}
					// The distinct sum is recomputed from the value set in
					// code order; integer sums are order-free, float (AVG)
					// sums must be provably exact to match the oracle's
					// first-seen accumulation.
					if a.Func == sqlparser.AggAvg && !va.avgExact(spec, true) {
						return 0, false
					}
					spec.exact = true
				} else {
					spec.exact = a.Func == sqlparser.AggSum || va.avgExact(spec, false)
				}
			case value.Float:
				if spec.distinct {
					return 0, false
				}
				spec.exact = false // float sums replicate the pipeline's row order: serial only
			default:
				return 0, false // non-numeric SUM/AVG errors; leave it to the row feeder
			}
		default:
			return 0, false
		}
	}
	idx := len(va.aggs)
	va.aggIdx[key] = idx
	va.aggs = append(va.aggs, spec)
	return idx, true
}

// distinctSetup sizes the DISTINCT bitset from the argument's value domain:
// dictionary size for text, min..max span for integers and dates.
func (va *vecAggExec) distinctSetup(spec *vecAgg) bool {
	switch spec.kind {
	case value.Text:
		n := int64(spec.col.DictLen())
		if n > maxBitsetDomain {
			return false
		}
		spec.setWords = int(n+63) / 64
	case value.Bool:
		spec.setWords = 1
	case value.Int, value.Date:
		at := &va.statsOf(spec.si).Attrs[spec.pos]
		if at.Min.IsNull() {
			spec.setWords = 1
			return true
		}
		var lo, hi int64
		if spec.kind == value.Int {
			lo, hi = at.Min.Int(), at.Max.Int()
			if lo <= -exactInt || hi >= exactInt {
				return false
			}
		} else {
			lo, hi = at.Min.DateDays(), at.Max.DateDays()
		}
		if hi-lo >= maxBitsetDomain {
			return false
		}
		spec.setBase = lo
		spec.setWords = int(hi-lo+64) / 64
	default:
		return false
	}
	if spec.setWords == 0 {
		spec.setWords = 1
	}
	return true
}

// avgExact reports whether every float64 sum AVG can build over this
// argument is exactly representable — the worst case being the joined row
// count (or the distinct-domain width) times the largest absolute value.
func (va *vecAggExec) avgExact(spec *vecAgg, distinct bool) bool {
	at := &va.statsOf(spec.si).Attrs[spec.pos]
	if at.Min.IsNull() {
		return true
	}
	maxAbs := math.Max(math.Abs(at.Min.Float()), math.Abs(at.Max.Float()))
	n := 1.0
	if distinct {
		n = float64(spec.setWords * 64)
	} else {
		for _, st := range va.pq.plan.Steps {
			n *= math.Max(float64(st.TableRows), 1)
		}
	}
	return n*maxAbs < float64(exactInt)
}

// compilePost lowers HAVING, the select items, and the ORDER BY keys onto
// the group row [prefix..., aggregate results...]. A GROUP BY match reads
// its key value (column-fed) or evaluates the key over the representative
// row (row-fed); an aggregate reads its result slot. Column-fed, any other
// column reference, a star or a subquery is outside the dialect — the group
// row binds no FROM entry — and so is an aggregate no typed accumulator
// takes: ok=false, and the query goes to the row feeder. Row-fed, they
// compile over the representative row as in any query; the caller has
// enforced the grouping rule.
func (va *vecAggExec) compilePost(sel *sqlparser.SelectStmt, gb *grouping, items []sqlparser.SelectItem) bool {
	read := func(slot int) rowEval {
		return func(_ *evalCtx, row []value.Value) (value.Value, error) { return row[slot], nil }
	}
	gpq := *va.pq
	gpq.leaf = func(e sqlparser.Expr) (rowEval, bool) {
		if j, ok := gb.index(e); ok {
			if va.rowFed {
				return va.gbEvals[j], true
			}
			return read(j), true
		}
		switch x := e.(type) {
		case *sqlparser.AggregateExpr:
			idx, ok := va.addAgg(x)
			if !ok {
				va.outside = true
				return nil, true
			}
			if !va.aggs[idx].boxed() {
				return read(va.pw + idx), true
			}
			// A row-fed aggregate's evaluation or value error surfaces
			// only here, where the query reads it.
			slot := va.pw + idx
			return func(ec *evalCtx, row []value.Value) (value.Value, error) {
				if ec.failed != nil && ec.failed[idx] != nil {
					return value.Value{}, ec.failed[idx]
				}
				return row[slot], nil
			}, true
		case *sqlparser.ColumnRef, *sqlparser.Star, *sqlparser.ExistsExpr, *sqlparser.SubqueryExpr, *sqlparser.QuantifiedExpr:
			if !va.rowFed {
				va.outside = true
				return nil, true
			}
		case *sqlparser.InExpr:
			if x.Subquery != nil && !va.rowFed {
				va.outside = true
				return nil, true
			}
		}
		return nil, false
	}
	if sel.Having != nil {
		va.having = gpq.compile(sel.Having)
	}
	for _, it := range items {
		va.items = append(va.items, gpq.compile(it.Expr))
	}
	for _, o := range sel.OrderBy {
		k := plannedSortKey{col: -1, desc: o.Desc}
		if col, ok, err := orderTarget(o, items); err != nil {
			k.err = err
		} else if ok {
			k.col = col
		} else if sel.Distinct {
			// Group alignment is lost after dedup; mirror the interpreter's error.
			k.err = fmt.Errorf("engine: ORDER BY expression %s is not in the select list", o.Expr.SQL())
		} else if err := gb.check(o.Expr); err != nil {
			k.err = err
		} else {
			k.eval = gpq.compile(o.Expr)
		}
		va.sortKeys = append(va.sortKeys, k)
	}
	return !va.outside
}

// ---------------------------------------------------------------------------
// Aggregation state
// ---------------------------------------------------------------------------

// vecAccs holds one aggregate's per-group accumulator columns; only the
// slices the function, the argument kind and the feed need are grown.
// A boxed aggregate shares count, the sums and has, and adds its own
// columns: flt (a SUM saw a float), best (the MIN/MAX value), seen (the
// DISTINCT set), and its deferred errors — err, the argument's first
// evaluation error, and valErr, the first value the aggregate cannot take.
type vecAccs struct {
	count  []int64
	sumI   []int64
	sumF   []float64
	has    []bool
	bestI  []int64
	bestF  []float64
	bestS  []string
	bestB  []bool
	sets   [][]uint64
	flt    []bool
	best   []value.Value
	seen   []map[string]bool
	err    []error
	valErr []error
}

// growCol appends n zero values to a per-group column. A new column starts
// with room for 8 groups, so a query with few groups allocates each column
// once.
func growCol[T any](s []T, n int) []T {
	if cap(s) == 0 {
		s = make([]T, 0, 8*n)
	}
	return append(s, make([]T, n)...)
}

func (a *vecAccs) grow(spec *vecAgg) {
	switch {
	case spec.star:
		return
	case spec.boxed():
		a.err = growCol(a.err, 1)
		a.valErr = growCol(a.valErr, 1)
		if spec.distinct {
			a.seen = growCol(a.seen, 1)
		}
	case spec.distinct:
		a.sets = growCol(a.sets, 1)
		return
	}
	switch spec.fn {
	case sqlparser.AggCount:
		a.count = growCol(a.count, 1)
	case sqlparser.AggSum, sqlparser.AggAvg:
		a.count = growCol(a.count, 1)
		a.sumF = growCol(a.sumF, 1)
		if spec.kind == value.Int || spec.boxed() {
			a.sumI = growCol(a.sumI, 1)
		}
		if spec.boxed() {
			a.flt = growCol(a.flt, 1)
		}
	case sqlparser.AggMin, sqlparser.AggMax:
		a.has = growCol(a.has, 1)
		if spec.boxed() {
			a.best = growCol(a.best, 1)
			return
		}
		switch spec.kind {
		case value.Int, value.Date:
			a.bestI = growCol(a.bestI, 1)
		case value.Float:
			a.bestF = growCol(a.bestF, 1)
		case value.Text:
			a.bestS = growCol(a.bestS, 1)
		case value.Bool:
			a.bestB = growCol(a.bestB, 1)
		}
	}
}

// vecAggState is one worker's aggregation state: the group lookup (array or
// hash tier), dense per-group group-row prefixes and row counts in group
// creation order, and one accumulator column set per aggregate.
type vecAggState struct {
	n       int
	arrIdx  []int32          // array tier: composed code -> group+1 (0 empty)
	codes   []int32          // array tier: composed code per group (merge re-lookup)
	hashIdx map[string]int32 // hash tier: packed (row-fed: AppendKey) key -> group+1
	keySlab []byte           // column-fed hash tier: packed keys, keyW bytes per group
	prefix  []value.Value    // pw values per group, from its first-seen row
	rows    []int64
	accs    []vecAccs
}

func newVecAggState(va *vecAggExec) *vecAggState {
	s := &vecAggState{accs: make([]vecAccs, len(va.aggs))}
	if va.arrayTier {
		s.arrIdx = make([]int32, va.domain)
	} else if len(va.keys)+len(va.gbEvals) > 0 {
		// Row-fed without GROUP BY, every row joins the one group: no index.
		s.hashIdx = make(map[string]int32)
	}
	return s
}

// addGroup appends one zeroed group, its prefix all NULL, and returns its
// dense index. The caller fills the prefix.
func (s *vecAggState) addGroup(va *vecAggExec) int32 {
	gi := int32(s.n)
	s.n++
	s.rows = growCol(s.rows, 1)
	s.prefix = growCol(s.prefix, va.pw)
	for j := range s.accs {
		s.accs[j].grow(va.aggs[j])
	}
	return gi
}

// prefixOf is group gi's prefix.
func (s *vecAggState) prefixOf(va *vecAggExec, gi int32) []value.Value {
	return s.prefix[int(gi)*va.pw : (int(gi)+1)*va.pw]
}

// batchRows sizes a worker's one batch buffer (fusedCtx.scratch, 1 KB): a
// scan-only plan's updateBatch numbers this many rows' groups at a time.
const batchRows = 256

// rowBatch is n joined rows by position, in pipeline order: step si's
// positions are at[si*stride:][:n]. A scan-only plan's batch is its kept
// selection vector (stride 0).
type rowBatch struct {
	at        []int32
	stride, n int
}

func (b rowBatch) step(si int) []int32 { return b.at[si*b.stride:][:b.n] }

// updateBatch consumes a batch of joined rows into the state, len(fc.grp)
// rows at a time in three passes, each one typed loop per key or aggregate
// over them (the vectorized execution of MonetDB/X100, Boncz, Zukowski & Nes,
// CIDR 2005): the rows' group numbers, then the row counts, then the
// accumulators. The passes visit the rows in batch order, so groups are
// created, float sums added up and MIN/MAX ties settled as row-at-a-time
// consumption would.
func (s *vecAggState) updateBatch(va *vecAggExec, fc *fusedCtx, b rowBatch) {
	for lo := 0; lo < b.n; lo += len(fc.grp) {
		sub := rowBatch{at: b.at[lo:], stride: b.stride, n: min(len(fc.grp), b.n-lo)}
		g := fc.grp[:sub.n]
		s.groupBatch(va, fc, sub, g)
		rows := s.rows
		for _, gi := range g {
			rows[gi]++
		}
		for j, spec := range va.aggs {
			if !spec.star {
				s.accs[j].updateBatch(spec, sub.step(spec.si), g)
			}
		}
	}
}

// groupBatch writes the dense group number of each row of b into g, creating
// groups in row order with the row's key values. The array tier composes
// every row's code in g first, key by key, then maps the codes to groups;
// the hash tier packs and looks up one row at a time.
func (s *vecAggState) groupBatch(va *vecAggExec, fc *fusedCtx, b rowBatch, g []int32) {
	if va.arrayTier {
		clear(g)
		for i := range va.keys {
			k := &va.keys[i]
			k.addCodes(b.step(k.si), g)
		}
		idx := s.arrIdx
		for r, code := range g {
			gi := idx[code]
			if gi == 0 {
				gi = s.addGroup(va) + 1
				idx[code] = gi
				s.codes = append(s.codes, code)
				s.fillGroup(va, b, r, gi-1)
			}
			g[r] = gi - 1
		}
		return
	}
	for r := range g {
		fc.keyBuf = fc.keyBuf[:0]
		for i := range va.keys {
			k := &va.keys[i]
			fc.keyBuf = k.pack(fc.keyBuf, int(b.step(k.si)[r]))
		}
		gi, ok := s.hashIdx[string(fc.keyBuf)]
		if !ok {
			gi = s.addGroup(va) + 1
			s.keySlab = append(s.keySlab, fc.keyBuf...)
			s.hashIdx[string(fc.keyBuf)] = gi
			s.fillGroup(va, b, r, gi-1)
		}
		g[r] = gi - 1
	}
}

// fillGroup materializes group gi's key values from row r of b, its first.
func (s *vecAggState) fillGroup(va *vecAggExec, b rowBatch, r int, gi int32) {
	keys := s.prefixOf(va, gi)
	for i := range va.keys {
		k := &va.keys[i]
		keys[i] = k.col.Value(int(b.step(k.si)[r]))
	}
}

// updateBatch folds the argument's values at positions pos into the
// accumulators of groups g, row by row in order: one typed loop per zone
// the positions visit. NULLs are skipped.
func (a *vecAccs) updateBatch(spec *vecAgg, pos, g []int32) {
	for len(pos) > 0 {
		n := zoneRun(pos)
		a.updateZone(spec, int(pos[0])>>storage.ZoneShift, pos[:n], g[:n])
		pos, g = pos[n:], g[n:]
	}
}

// updateZone is updateBatch over positions of zone z. MIN/MAX mirror
// value.Compare — numeric kinds compare as float64 images — and replace the
// held payload only on a strict improvement, so ties keep the first-seen
// value.
func (a *vecAccs) updateZone(spec *vecAgg, z int, pos, g []int32) {
	col := spec.col
	nulls := spec.nullsIn(z)
	null := func(ti int32) bool { return nulls && col.Null(int(ti)) }
	const m = storage.ZoneMask
	if spec.distinct {
		var ints []int64
		var cds []uint32
		var bls []bool
		switch spec.kind {
		case value.Text:
			cds = col.Codes(z)
		case value.Bool:
			bls = col.Bools(z)
		default: // Int, Date
			ints = col.Ints(z)
		}
		sets := a.sets
		for r, ti := range pos {
			if null(ti) {
				continue
			}
			var code uint64
			switch {
			case cds != nil:
				code = uint64(cds[ti&m])
			case bls != nil:
				if bls[ti&m] {
					code = 1
				}
			default:
				code = uint64(ints[ti&m] - spec.setBase)
			}
			set := sets[g[r]]
			if set == nil {
				set = make([]uint64, spec.setWords)
				sets[g[r]] = set
			}
			set[code>>6] |= 1 << (code & 63)
		}
		return
	}
	count, has := a.count, a.has
	switch spec.fn {
	case sqlparser.AggCount:
		for r, ti := range pos {
			if !null(ti) {
				count[g[r]]++
			}
		}
	case sqlparser.AggSum, sqlparser.AggAvg:
		sumF := a.sumF
		if spec.kind == value.Int {
			chunk, sumI := col.Ints(z), a.sumI
			for r, ti := range pos {
				if !null(ti) {
					x, gi := chunk[ti&m], g[r]
					count[gi]++
					sumI[gi] += x
					sumF[gi] += float64(x)
				}
			}
			return
		}
		chunk := col.Floats(z)
		for r, ti := range pos {
			if !null(ti) {
				count[g[r]]++
				sumF[g[r]] += chunk[ti&m]
			}
		}
	case sqlparser.AggMin, sqlparser.AggMax:
		// c*sgn > 0: the candidate beats the held value.
		sgn := 1
		if spec.fn == sqlparser.AggMin {
			sgn = -1
		}
		switch spec.kind {
		case value.Int:
			chunk, best := col.Ints(z), a.bestI
			for r, ti := range pos {
				if null(ti) {
					continue
				}
				if x, gi := chunk[ti&m], g[r]; !has[gi] || cmpFloat(float64(x), float64(best[gi]))*sgn > 0 {
					has[gi], best[gi] = true, x
				}
			}
		case value.Date:
			chunk, best := col.Ints(z), a.bestI
			for r, ti := range pos {
				if null(ti) {
					continue
				}
				if x, gi := chunk[ti&m], g[r]; !has[gi] || cmpInt(x, best[gi])*sgn > 0 {
					has[gi], best[gi] = true, x
				}
			}
		case value.Float:
			chunk, best := col.Floats(z), a.bestF
			for r, ti := range pos {
				if null(ti) {
					continue
				}
				if x, gi := chunk[ti&m], g[r]; !has[gi] || cmpFloat(x, best[gi])*sgn > 0 {
					has[gi], best[gi] = true, x
				}
			}
		case value.Text:
			chunk, best := col.Codes(z), a.bestS
			for r, ti := range pos {
				if null(ti) {
					continue
				}
				if x, gi := col.DictString(chunk[ti&m]), g[r]; !has[gi] || strings.Compare(x, best[gi])*sgn > 0 {
					has[gi], best[gi] = true, x
				}
			}
		case value.Bool:
			chunk, best := col.Bools(z), a.bestB
			for r, ti := range pos {
				if null(ti) {
					continue
				}
				if x, gi := chunk[ti&m], g[r]; !has[gi] || cmpBool(x, best[gi])*sgn > 0 {
					has[gi], best[gi] = true, x
				}
			}
		}
	}
}

// updateRow consumes one joined row into group gi: the row feeder's update,
// over boxed argument values, with the oracle's semantics. An argument's
// first evaluation error stops its aggregate; NULLs are skipped, and so is
// everything after the first value the aggregate cannot take (a non-numeric
// SUM, incomparable MIN/MAX), though the argument still evaluates, since a
// later evaluation error outranks it. DISTINCT drops repeats by
// value.AppendKey; SUM stays integer over all-integer input; MIN/MAX compare
// with value.Compare and keep the first-seen value on ties.
func (s *vecAggState) updateRow(va *vecAggExec, ec *evalCtx, gi int32, row []value.Value) {
	s.rows[gi]++
	for j, spec := range va.aggs {
		a := &s.accs[j]
		if spec.star || a.err[gi] != nil {
			continue
		}
		v, err := spec.arg(ec, row)
		if err != nil {
			a.err[gi] = err
			continue
		}
		if v.IsNull() || a.valErr[gi] != nil {
			continue
		}
		if spec.distinct {
			ec.keyBuf = v.AppendKey(ec.keyBuf[:0])
			if a.seen[gi][string(ec.keyBuf)] {
				continue
			}
			if a.seen[gi] == nil {
				a.seen[gi] = map[string]bool{}
			}
			a.seen[gi][string(ec.keyBuf)] = true
		}
		switch spec.fn {
		case sqlparser.AggCount:
			a.count[gi]++
		case sqlparser.AggSum, sqlparser.AggAvg:
			if !v.IsNumeric() {
				a.valErr[gi] = fmt.Errorf("engine: %s over non-numeric values", spec.fn)
				continue
			}
			a.count[gi]++
			if v.Kind() == value.Int {
				a.sumI[gi] += v.Int()
			} else {
				a.flt[gi] = true
			}
			a.sumF[gi] += v.Float()
		default: // AggMin, AggMax
			if !a.has[gi] {
				a.has[gi], a.best[gi] = true, v
				continue
			}
			c, err := v.Compare(a.best[gi])
			if err != nil {
				a.valErr[gi] = err
			} else if (spec.fn == sqlparser.AggMin && c < 0) || (spec.fn == sqlparser.AggMax && c > 0) {
				a.best[gi] = v
			}
		}
	}
}

// finalize materializes one aggregate's result for group gi, mirroring the
// interpreter's accumulator semantics (NULL on empty input for SUM/AVG/MIN/MAX,
// integer SUM over integer input, float AVG). Only a boxed aggregate can
// fail: its evaluation error first, then its value error.
func (s *vecAggState) finalize(va *vecAggExec, j int, gi int32) (value.Value, error) {
	spec := va.aggs[j]
	if spec.star {
		return value.NewInt(s.rows[gi]), nil
	}
	a := &s.accs[j]
	if spec.boxed() {
		if err := a.err[gi]; err != nil {
			return value.Value{}, err
		}
		if err := a.valErr[gi]; err != nil {
			return value.Value{}, err
		}
	} else if spec.distinct {
		set := a.sets[gi]
		n, sumI, sumF := setFold(spec, set)
		switch spec.fn {
		case sqlparser.AggCount:
			return value.NewInt(n), nil
		case sqlparser.AggSum:
			if n == 0 {
				return value.NewNull(), nil
			}
			return value.NewInt(sumI), nil
		default: // AggAvg
			if n == 0 {
				return value.NewNull(), nil
			}
			return value.NewFloat(sumF / float64(n)), nil
		}
	}
	switch spec.fn {
	case sqlparser.AggCount:
		return value.NewInt(a.count[gi]), nil
	case sqlparser.AggSum:
		if a.count[gi] == 0 {
			return value.NewNull(), nil
		}
		if spec.kind == value.Int || (spec.boxed() && !a.flt[gi]) {
			return value.NewInt(a.sumI[gi]), nil
		}
		return value.NewFloat(a.sumF[gi]), nil
	case sqlparser.AggAvg:
		if a.count[gi] == 0 {
			return value.NewNull(), nil
		}
		return value.NewFloat(a.sumF[gi] / float64(a.count[gi])), nil
	default: // AggMin, AggMax
		if !a.has[gi] {
			return value.NewNull(), nil
		}
		if spec.boxed() {
			return a.best[gi], nil
		}
		switch spec.kind {
		case value.Int:
			return value.NewInt(a.bestI[gi]), nil
		case value.Date:
			return value.NewDateDays(a.bestI[gi]), nil
		case value.Float:
			return value.NewFloat(a.bestF[gi]), nil
		case value.Text:
			return value.NewText(a.bestS[gi]), nil
		default:
			return value.NewBool(a.bestB[gi]), nil
		}
	}
}

// setFold counts a DISTINCT bitset and, for integer arguments, folds the
// decoded values into integer and float sums (code order; integer addition
// is order-free and the float sum is pre-gated exact).
func setFold(spec *vecAgg, set []uint64) (n, sumI int64, sumF float64) {
	for w, word := range set {
		n += int64(bits.OnesCount64(word))
		if spec.fn == sqlparser.AggCount {
			continue
		}
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			v := spec.setBase + int64(w*64+b)
			sumI += v
			sumF += float64(v)
		}
	}
	return n, sumI, sumF
}

// ---------------------------------------------------------------------------
// Fused pipeline
// ---------------------------------------------------------------------------

// fusedProbe reads a probe value from an earlier step's current position.
type fusedProbe struct {
	si  int
	col storage.Col
}

// fusedStep is one join stage of the fused pipeline.
type fusedStep struct {
	access planner.Access
	tbl    *storage.Table
	chain  joinChain    // JoinHash
	probe  fusedProbe   // JoinHash
	probes []fusedProbe // JoinPK
	inner  []int32      // JoinLoop: prefiltered inner positions
}

// fusedCtx is one worker's pipeline scratch: the private aggregation state,
// per-step row counters, the key pack buffer, the selection buffer sel every
// zone of the worker's scan reuses (carved from buf, so it is part of the
// context's one allocation), and scratch, its one batch buffer. Rows reach
// the state a batch at a time. A scan-only plan's batches are its kept
// selection vectors as they are, and updateBatch numbers their groups in
// grp, all of scratch. A join plan splits scratch into tail, where the
// pipeline appends each joined row's positions (step-major, tailRows per
// step) until it is full or the worker's range ends, and grp, their group
// numbers; pos holds the positions of the row the join steps are building.
type fusedCtx struct {
	state           *vecAggState
	stepRows        []int64
	keyBuf          []byte
	sel             []int32
	buf             [selRows]int32
	scratch         [batchRows]int32
	grp, tail, pos  []int32
	tailRows, nTail int
}

// fusedRun executes one compiled query: shared immutable step structures
// plus the plan for bookkeeping.
type fusedRun struct {
	pq    *plannedQuery
	va    *vecAggExec
	steps []fusedStep
}

func (fx *fusedRun) newCtx(va *vecAggExec) *fusedCtx {
	fc := &fusedCtx{
		state:    newVecAggState(va),
		stepRows: make([]int64, len(fx.steps)),
	}
	fc.sel, fc.grp = fc.buf[:], fc.scratch[:]
	if n := len(fx.steps); n > 1 {
		fc.pos = make([]int32, n)
		fc.tailRows = max(batchRows/(n+1), 1)
		buf := fc.scratch[:]
		if (n+1)*fc.tailRows > len(buf) { // past 255 steps
			buf = make([]int32, (n+1)*fc.tailRows)
		}
		fc.tail, fc.grp = buf[:n*fc.tailRows], buf[n*fc.tailRows:(n+1)*fc.tailRows]
	}
	return fc
}

// consume takes one vector of base positions that pass step 0: straight to
// the state when the plan has no joins, down the join steps otherwise.
func (fx *fusedRun) consume(fc *fusedCtx, kept []int32) {
	fc.stepRows[0] += int64(len(kept))
	if len(fx.steps) == 1 {
		fc.state.updateBatch(fx.va, fc, rowBatch{at: kept, n: len(kept)})
		return
	}
	for _, ti := range kept {
		fc.pos[0] = ti
		fx.feed(fc, 1)
	}
}

// flush hands the join rows gathered in tail to the state.
func (fx *fusedRun) flush(fc *fusedCtx) {
	if fc.nTail > 0 {
		fc.state.updateBatch(fx.va, fc, rowBatch{at: fc.tail, stride: fc.tailRows, n: fc.nTail})
		fc.nTail = 0
	}
}

// feed pushes the current position vector through join step si and beyond,
// appending each joined row to the tail batch at the end of the pipeline. No
// predicate on this path can error (the vec gate guarantees it).
func (fx *fusedRun) feed(fc *fusedCtx, si int) {
	if si == len(fx.steps) {
		for sj, ti := range fc.pos {
			fc.tail[sj*fc.tailRows+fc.nTail] = ti
		}
		if fc.nTail++; fc.nTail == fc.tailRows {
			fx.flush(fc)
		}
		return
	}
	fs := &fx.steps[si]
	switch fs.access {
	case planner.JoinHash:
		k, ok := joinKeyOf(fs.probe.col.Value(int(fc.pos[fs.probe.si])))
		if !ok {
			return
		}
		for p := fs.chain.head[k]; p != 0; p = fs.chain.next[p-1] {
			fc.pos[si] = fs.chain.row(p - 1)
			fc.stepRows[si]++
			fx.feed(fc, si+1)
		}
	case planner.JoinPK:
		fc.keyBuf = fc.keyBuf[:0]
		for _, pr := range fs.probes {
			v := pr.col.Value(int(fc.pos[pr.si]))
			if v.IsNull() {
				return
			}
			fc.keyBuf = v.AppendKey(fc.keyBuf)
		}
		pos, ok := fs.tbl.LookupPKPos(fc.keyBuf)
		if !ok || !fx.pq.kept(si, pos) {
			return
		}
		fc.pos[si] = int32(pos)
		fc.stepRows[si]++
		fx.feed(fc, si+1)
	default: // JoinLoop
		for _, ti := range fs.inner {
			fc.pos[si] = ti
			fc.stepRows[si]++
			fx.feed(fc, si+1)
		}
	}
}

// runVecAgg drives the fused pipeline: build the join structures, scan the
// base table (on va.workers workers), merge partial states, and shape the
// grouped output.
func (ex *Engine) runVecAgg(sel *sqlparser.SelectStmt, pq *plannedQuery, va *vecAggExec, cols []string) (*Result, error) {
	steps := pq.plan.Steps
	fx := &fusedRun{pq: pq, va: va, steps: make([]fusedStep, len(steps))}
	for si := 1; si < len(steps); si++ {
		st := steps[si]
		fs := &fx.steps[si]
		fs.access, fs.tbl = st.Access, st.Input.Tbl
		switch st.Access {
		case planner.JoinHash:
			psi, ppos := pq.slotOwner(st.ProbeSlot)
			fs.probe = fusedProbe{si: psi, col: steps[psi].Input.Tbl.Col(ppos)}
			var err error
			if fs.chain, err = pq.buildChain(si, st, nil); err != nil {
				return nil, err
			}
		case planner.JoinPK:
			for _, slot := range st.ProbeSlots {
				psi, ppos := pq.slotOwner(slot)
				fs.probes = append(fs.probes, fusedProbe{si: psi, col: steps[psi].Input.Tbl.Col(ppos)})
			}
		default: // JoinLoop
			fs.inner = pq.loopInner(si, st.Input.Tbl, nil)
		}
	}

	st0 := steps[0]
	ctxs := make([]*fusedCtx, va.workers)
	for w := range ctxs {
		ctxs[w] = fx.newCtx(va)
	}
	if st0.Access == planner.ScanPK {
		fc := ctxs[0]
		fx.consume(fc, pq.probePositions(fc.sel[:0], st0))
		fx.flush(fc)
	} else {
		n := st0.Input.Tbl.Len()
		ex.bud.AddTotal(n)
		err := ex.fanOut(n, va.workers, func(w, lo, hi int) error {
			fx.feedRange(ctxs[w], lo, hi)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	final := ctxs[0].state
	if len(ctxs) > 1 {
		final = mergeVecAggStates(va, ctxs)
	}

	// Bookkeeping: per-step and total actual row counts, summed over workers.
	for si := range steps {
		var total int64
		for _, fc := range ctxs {
			total += fc.stepRows[si]
		}
		steps[si].ActualRows = int(total)
	}
	pq.plan.ActualRows = steps[len(steps)-1].ActualRows
	setShapeActual(pq.plan, planner.ShapeParallelScan, steps[0].ActualRows)
	pq.finishZoneSkip()

	return ex.finishVecAgg(sel, pq, pq.newCtx(), va, final, cols)
}

// feedRange feeds the base rows of [lo, hi) that pass step 0's vectorized
// filters into the fused pipeline: scanBase selects them zone by zone in the
// worker's selection buffer, one vector at a time, and the range's last join
// rows flush at its end.
func (fx *fusedRun) feedRange(fc *fusedCtx, lo, hi int) {
	fx.pq.scanBase(&fc.sel, lo, hi, func(kept []int32) { fx.consume(fc, kept) })
	fx.flush(fc)
}

// mergeVecAggStates folds the workers' partial states into one, in worker
// order — the order of their contiguous scan ranges — adopting each part's
// groups in creation order: a group's place and key values come from the
// first part that created it, so the merged groups stand in the order a
// serial scan creates them. Every accumulator the parallel gate admits
// merges exactly.
func mergeVecAggStates(va *vecAggExec, ctxs []*fusedCtx) *vecAggState {
	g := newVecAggState(va)
	for _, fc := range ctxs {
		p := fc.state
		for gi := int32(0); gi < int32(p.n); gi++ {
			mgi := g.adopt(va, p, gi)
			g.rows[mgi] += p.rows[gi]
			for j, spec := range va.aggs {
				mergeAcc(spec, &g.accs[j], mgi, &p.accs[j], gi)
			}
		}
	}
	return g
}

// adopt finds the merged group matching part group gi, or creates it with
// the part's key values.
func (g *vecAggState) adopt(va *vecAggExec, p *vecAggState, gi int32) int32 {
	if va.arrayTier {
		code := p.codes[gi]
		if m := g.arrIdx[code]; m != 0 {
			return m - 1
		}
		mgi := g.addGroup(va)
		g.arrIdx[code] = mgi + 1
		g.codes = append(g.codes, code)
		copy(g.prefixOf(va, mgi), p.prefixOf(va, gi))
		return mgi
	}
	key := p.keySlab[int(gi)*va.keyW : (int(gi)+1)*va.keyW]
	if m, ok := g.hashIdx[string(key)]; ok {
		return m - 1
	}
	mgi := g.addGroup(va)
	g.keySlab = append(g.keySlab, key...)
	g.hashIdx[string(key)] = mgi + 1
	copy(g.prefixOf(va, mgi), p.prefixOf(va, gi))
	return mgi
}

// mergeAcc folds part accumulator pgi into merged accumulator mgi. The part
// comes from a later scan range than everything merged so far, so a MIN/MAX
// payload replaces the held one only on a strict improvement: a
// compare-equal but distinct payload (float images tie across huge ints and
// across -0.0 and +0.0) keeps the first-seen one, like the serial
// accumulator.
func mergeAcc(spec *vecAgg, m *vecAccs, mgi int32, p *vecAccs, pgi int32) {
	if spec.star {
		return
	}
	if spec.distinct {
		ps := p.sets[pgi]
		if ps == nil {
			return
		}
		if m.sets[mgi] == nil {
			m.sets[mgi] = ps // parts are discarded after the merge
			return
		}
		ms := m.sets[mgi]
		for w := range ps {
			ms[w] |= ps[w]
		}
		return
	}
	switch spec.fn {
	case sqlparser.AggCount:
		m.count[mgi] += p.count[pgi]
	case sqlparser.AggSum, sqlparser.AggAvg:
		m.count[mgi] += p.count[pgi]
		m.sumF[mgi] += p.sumF[pgi]
		if spec.kind == value.Int {
			m.sumI[mgi] += p.sumI[pgi]
		}
	case sqlparser.AggMin, sqlparser.AggMax:
		if !p.has[pgi] {
			return
		}
		if m.has[mgi] {
			var c int
			switch spec.kind {
			case value.Int:
				c = cmpFloat(float64(p.bestI[pgi]), float64(m.bestI[mgi]))
			case value.Date:
				c = cmpInt(p.bestI[pgi], m.bestI[mgi])
			case value.Float:
				c = cmpFloat(p.bestF[pgi], m.bestF[mgi])
			case value.Text:
				c = strings.Compare(p.bestS[pgi], m.bestS[mgi])
			default:
				c = cmpBool(p.bestB[pgi], m.bestB[mgi])
			}
			if (spec.fn == sqlparser.AggMin && c >= 0) || (spec.fn == sqlparser.AggMax && c <= 0) {
				return
			}
		}
		m.has[mgi] = true
		switch spec.kind {
		case value.Int, value.Date:
			m.bestI[mgi] = p.bestI[pgi]
		case value.Float:
			m.bestF[mgi] = p.bestF[pgi]
		case value.Text:
			m.bestS[mgi] = p.bestS[pgi]
		default:
			m.bestB[mgi] = p.bestB[pgi]
		}
	}
}

// aggregateRows is the row feeder: the aggregator over the join pipeline's
// rows, for a grouped query outside the fused dialect. The grouping rule is
// checked first, in the interpreter's order (select items, then HAVING).
// Rows then group on the hash tier, keyed by value.AppendKey over the
// evaluated GROUP BY values, whose evaluation error stops the query at once;
// each group's first row is its representative, the prefix of its group row.
func (ex *Engine) aggregateRows(sel *sqlparser.SelectStmt, entries []fromEntry, pq *plannedQuery, rows *rowSet, items []sqlparser.SelectItem, cols []string) (*Result, error) {
	gb := newGrouping(sel, entries)
	for _, it := range items {
		if err := gb.check(it.Expr); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		if err := gb.check(sel.Having); err != nil {
			return nil, err
		}
	}
	va := pq.compileRowAgg(sel, gb, items)
	s := newVecAggState(va)
	ec := pq.newCtx()
	var key []byte
	for i := range rows.len() {
		row := rows.row(ec, i)
		key = key[:0]
		for _, gev := range va.gbEvals {
			v, err := gev(ec, row)
			if err != nil {
				return nil, err
			}
			key = v.AppendKey(key)
		}
		g := int32(s.n) // without GROUP BY: the one group, once it exists
		if s.hashIdx != nil {
			g = s.hashIdx[string(key)]
		}
		if g == 0 {
			g = s.addGroup(va) + 1
			if s.hashIdx != nil {
				s.hashIdx[string(key)] = g
			}
			copy(s.prefixOf(va, g-1), row)
		}
		s.updateRow(va, ec, g-1, row)
	}
	return ex.finishVecAgg(sel, pq, ec, va, s, cols)
}

// compileRowAgg compiles a grouped query for the row feeder: the GROUP BY
// expressions and aggregate arguments over the joined row, and the
// post-aggregation program over the group row.
func (pq *plannedQuery) compileRowAgg(sel *sqlparser.SelectStmt, gb *grouping, items []sqlparser.SelectItem) *vecAggExec {
	va := &vecAggExec{pq: pq, rowFed: true, aggIdx: map[string]int{}, pw: pq.plan.Width}
	for _, g := range sel.GroupBy {
		va.gbEvals = append(va.gbEvals, pq.compile(g))
	}
	va.compilePost(sel, gb, items)
	return va
}

// finishVecAgg finalizes the groups, in first-seen order, into group rows, then runs HAVING, projection, and shared shaping
// (DISTINCT, ORDER BY, LIMIT) over them. A boxed aggregate's error waits in
// ec.failed while its group's row is under evaluation.
func (ex *Engine) finishVecAgg(sel *sqlparser.SelectStmt, pq *plannedQuery, ec *evalCtx, va *vecAggExec, g *vecAggState, cols []string) (*Result, error) {
	// A grouped query with no GROUP BY and no input rows still yields one
	// group (COUNT(*) = 0). It has no representative row, so its subqueries
	// see no outer row.
	if len(sel.GroupBy) == 0 && g.n == 0 {
		g.addGroup(va)
		ec.unbound = true
	}
	pw, nA := va.pw, len(va.aggs)
	extW := pw + nA
	flat := make([]value.Value, g.n*extW)
	out := &Result{Columns: cols}
	var exts [][]value.Value   // group row per output row, for the sort keys
	var failed map[int][]error // output row -> ec.failed of its group
	for gi := int32(0); gi < int32(g.n); gi++ {
		ext := flat[:extW:extW]
		flat = flat[extW:]
		copy(ext, g.prefixOf(va, gi))
		ec.failed = nil
		for j := 0; j < nA; j++ {
			v, err := g.finalize(va, j, gi)
			if err != nil {
				if ec.failed == nil {
					ec.failed = make([]error, nA)
				}
				ec.failed[j] = err
			}
			ext[pw+j] = v
		}
		if va.having != nil {
			v, err := va.having(ec, ext)
			if err != nil {
				return nil, err
			}
			if !passes(v) {
				continue
			}
		}
		row := make(storage.Tuple, len(va.items))
		for i, ev := range va.items {
			v, err := ev(ec, ext)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if ec.failed != nil {
			if failed == nil {
				failed = map[int][]error{}
			}
			failed[len(out.Rows)] = ec.failed
		}
		out.Rows = append(out.Rows, row)
		if len(va.sortKeys) > 0 {
			exts = append(exts, ext)
		}
	}
	step := planner.ShapeVecAggregate
	if va.rowFed {
		step = planner.ShapeAggregate
	}
	setShapeActual(pq.plan, step, len(out.Rows))

	keyOf := func(i int, k *plannedSortKey) (value.Value, error) {
		if k.col >= 0 {
			return out.Rows[i][k.col], nil
		}
		ec.failed = failed[i]
		return k.eval(ec, exts[i])
	}
	return ex.shapeResult(sel, pq, out, va.sortKeys, keyOf)
}
