package engine

import (
	"sort"

	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file shapes a planned result after projection or aggregation (the
// aggregator is plan_agg_vec.go): slot-compiled ORDER BY sort keys with a
// bounded top-K heap when a LIMIT is present, DISTINCT, and LIMIT.
//
// Error parity with the interpreter is deliberate: sort-key resolution
// errors are deferred until there is a row to sort, and comparison errors
// surface even under LIMIT 0.

// ---------------------------------------------------------------------------
// Sort keys, top-K, and shared shaping
// ---------------------------------------------------------------------------

// plannedSortKey is one resolved ORDER BY item: an output-column read
// (col >= 0) or a compiled expression over the row backing each output row —
// the joined row in the flat path, the group's representative row in the
// grouped paths. err defers a resolution failure until rows exist, mirroring
// the interpreter's per-row key resolution.
type plannedSortKey struct {
	col  int
	desc bool
	eval rowEval
	err  error
}

// compareSortKeys orders two key vectors under the ORDER BY directions:
// NULLs sort first ascending and last descending, exactly like the
// interpreter's comparator. Incomparable kinds record the first error and
// compare equal.
func compareSortKeys(a, b []value.Value, order []sqlparser.OrderItem, errp *error) int {
	for j, o := range order {
		ka, kb := a[j], b[j]
		if ka.IsNull() || kb.IsNull() {
			if ka.IsNull() && kb.IsNull() {
				continue
			}
			if ka.IsNull() != o.Desc {
				return -1
			}
			return 1
		}
		c, err := ka.Compare(kb)
		if err != nil {
			if *errp == nil {
				*errp = err
			}
			return 0
		}
		if c == 0 {
			continue
		}
		if o.Desc {
			c = -c
		}
		if c < 0 {
			return -1
		}
		return 1
	}
	return 0
}

// topKIndices selects the k smallest of [0, n) under (cmp, index) with a
// bounded max-heap and returns them fully sorted — exactly the prefix a
// stable full sort would produce, at O(n log k).
func topKIndices(n, k int, cmp func(a, b int) int) []int {
	if k > n {
		k = n // a bound past the input keeps everything
	}
	less := func(a, b int) bool {
		if c := cmp(a, b); c != 0 {
			return c < 0
		}
		return a < b // stable: ties keep input order
	}
	h := make([]int, 0, k)
	worse := func(a, b int) bool { return less(b, a) } // max-heap on the kept set
	for i := 0; i < n; i++ {
		if len(h) < k {
			h = append(h, i)
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if !worse(h[c], h[p]) {
					break
				}
				h[c], h[p] = h[p], h[c]
				c = p
			}
			continue
		}
		if !less(i, h[0]) {
			continue
		}
		h[0] = i
		for c := 0; ; {
			l, r, m := 2*c+1, 2*c+2, c
			if l < len(h) && worse(h[l], h[m]) {
				m = l
			}
			if r < len(h) && worse(h[r], h[m]) {
				m = r
			}
			if m == c {
				break
			}
			h[c], h[m] = h[m], h[c]
			c = m
		}
	}
	sort.Slice(h, func(a, b int) bool { return less(h[a], h[b]) })
	return h
}

// shapeResult applies DISTINCT, ORDER BY (bounded top-K when a LIMIT is
// present), and LIMIT to a projected result, recording the shaping steps'
// actual row counts on the plan.
func (ex *Engine) shapeResult(sel *sqlparser.SelectStmt, pq *plannedQuery, out *Result, keys []plannedSortKey, keyOf func(i int, k *plannedSortKey) (value.Value, error)) (*Result, error) {
	if sel.Distinct {
		out.Rows = distinctRows(out.Rows)
	}
	if len(sel.OrderBy) > 0 && len(out.Rows) > 0 {
		if err := ex.sortPlanned(sel, out, keys, keyOf); err != nil {
			return nil, err
		}
	}
	if sel.Limit >= 0 && len(out.Rows) > sel.Limit {
		out.Rows = out.Rows[:sel.Limit]
	}
	setShapeFinal(pq.plan, len(out.Rows))
	return out, nil
}

// sortPlanned orders out.Rows by the resolved keys: a bounded top-K heap
// when 0 < LIMIT < rows, a stable full sort otherwise (LIMIT 0 still sorts,
// so comparison errors match the interpreter).
func (ex *Engine) sortPlanned(sel *sqlparser.SelectStmt, out *Result, keys []plannedSortKey, keyOf func(i int, k *plannedSortKey) (value.Value, error)) error {
	// One flat backing array serves every row's key vector, so sorting n
	// rows costs two allocations — not one per row (X12 regression: top-K
	// used to allocate a key slice per input row).
	n := len(out.Rows)
	kv := make([][]value.Value, n)
	flat := make([]value.Value, n*len(keys))
	for i := 0; i < n; i++ {
		ks := flat[:len(keys):len(keys)]
		flat = flat[len(keys):]
		for j := range keys {
			k := &keys[j]
			if k.err != nil {
				return k.err
			}
			v, err := keyOf(i, k)
			if err != nil {
				return err
			}
			ks[j] = v
		}
		kv[i] = ks
	}
	var cmpErr error
	cmp := func(a, b int) int { return compareSortKeys(kv[a], kv[b], sel.OrderBy, &cmpErr) }
	var idx []int
	if sel.Limit > 0 {
		// The heap also handles LIMIT >= n (it simply keeps everything), so
		// execution always matches the plan's top-k step. LIMIT 0 takes the
		// full sort: the interpreter sorts before truncating, and its
		// comparison errors must still surface.
		idx = topKIndices(n, sel.Limit, cmp)
	} else {
		idx = make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return cmp(idx[a], idx[b]) < 0 })
	}
	if cmpErr != nil {
		return cmpErr
	}
	rows := make([]storage.Tuple, len(idx))
	for i, j := range idx {
		rows[i] = out.Rows[j]
	}
	out.Rows = rows
	return nil
}

// setShapeActual records an executed shaping step's observed cardinality.
func setShapeActual(plan *planner.Plan, kind planner.ShapeKind, n int) {
	for _, sh := range plan.Shape {
		if sh.Kind == kind {
			sh.ActualRows = n
		}
	}
}

// setShapeFinal records the final shaped row count on every non-aggregate
// shaping step (sort / top-k / limit all emit the final result). Aggregate
// steps (generic or vectorized) and the parallel-scan and zone-skip markers
// keep their own counts.
func setShapeFinal(plan *planner.Plan, n int) {
	for _, sh := range plan.Shape {
		switch sh.Kind {
		case planner.ShapeAggregate, planner.ShapeVecAggregate, planner.ShapeParallelScan, planner.ShapeZoneSkip:
		default:
			sh.ActualRows = n
		}
	}
}
