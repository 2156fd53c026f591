package engine

import (
	"cmp"
	"runtime"
	"sync"

	"repro/internal/storage"
)

// parallelThreshold is the minimum number of work units (rows so far, or
// rows scanned) a join or scan step must process before it fans out across
// goroutines. Below it the goroutine and chunk bookkeeping costs more than it
// saves. A variable so tests can lower it to force the parallel paths on
// small datasets.
var parallelThreshold = 2048

// SetParallelism caps the worker fan-out of parallel join and scan steps:
// 1 forces serial execution (differential tests use this), n > 1 caps the
// goroutine count, and n <= 0 restores the default of GOMAXPROCS. Safe for
// concurrent use.
func (ex *Engine) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	ex.st.par.Store(int32(n))
}

// workersFor decides how many workers to use for n units of work.
func (ex *Engine) workersFor(n int) int {
	if n < parallelThreshold {
		return 1
	}
	w := int(ex.st.par.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// fanOut is the engine's one scheduler: it splits [0, n) into at most
// workers contiguous chunks, runs fn(w, lo, hi) over chunk w — chunk 0 in the
// caller, each other chunk on a goroutine of its own — and returns the first
// error in chunk order. Chunk w covers the positions before chunk w+1's, so a
// caller that keeps per-worker output and concatenates or merges it in worker
// order reproduces the serial walk. With a budget bound, fn sees each chunk
// sub-chunked at storage-zone boundaries, with a budget poll before each piece
// (see zones) — the cooperative cancellation point of every planned join,
// residual-filter and aggregation loop; zone alignment keeps scanBase's zone
// accounting identical to the unbudgeted walk. The row pipeline's scan step,
// which must see its whole chunk at once, calls spread and polls itself.
func (ex *Engine) fanOut(n, workers int, fn func(w, lo, hi int) error) error {
	if bud := ex.bud; bud != nil {
		inner := fn
		fn = func(w, lo, hi int) error {
			return zones(bud, lo, hi, func(s, e int) error { return inner(w, s, e) })
		}
	}
	return spread(n, workers, fn)
}

// zones runs fn over [lo, hi) cut at storage-zone boundaries, polling the
// budget, if there is one, before each piece and charging the piece's rows
// as examined.
func zones(bud *Budget, lo, hi int, fn func(lo, hi int) error) error {
	for s := lo; s < hi; {
		e := min((s>>storage.ZoneShift+1)<<storage.ZoneShift, hi)
		if err := bud.Step(e - s); err != nil {
			return err
		}
		if err := fn(s, e); err != nil {
			return err
		}
		s = e
	}
	return nil
}

// spread is fanOut without the budget polls: fn sees each chunk whole.
func spread(n, workers int, fn func(w, lo, hi int) error) error {
	if workers <= 1 {
		return fn(0, 0, n)
	}
	chunk := (n + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers && w*chunk < n; w++ {
		wg.Add(1)
		go runChunk(&wg, fn, w, w*chunk, min((w+1)*chunk, n), &errs[w])
	}
	errs[0] = fn(0, 0, min(chunk, n))
	wg.Wait()
	return cmp.Or(errs...) // the first in chunk order
}

// runChunk is one goroutine of spread.
func runChunk(wg *sync.WaitGroup, fn func(w, lo, hi int) error, w, lo, hi int, err *error) {
	defer wg.Done()
	*err = fn(w, lo, hi)
}
