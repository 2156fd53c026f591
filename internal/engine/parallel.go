package engine

import (
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
// workers contiguous chunks, runs fn(w, lo, hi) over chunk w — in the caller
// when there is one worker, on a goroutine per chunk otherwise — and returns
// the first error in chunk order. Chunk w covers the positions before chunk
// w+1's, so a caller that keeps per-worker output and concatenates or merges
// it in worker order reproduces the serial walk. With a budget bound, fn
// sees each chunk sub-chunked at storage-zone boundaries, with a budget poll
// before each piece — the cooperative cancellation point of every planned
// scan, join, residual-filter and aggregation loop; zone alignment keeps
// scanBase's zone accounting identical to the unbudgeted walk.
func (ex *Engine) fanOut(n, workers int, fn func(w, lo, hi int) error) error {
	if bud := ex.bud; bud != nil {
		inner := fn
		fn = func(w, lo, hi int) error {
			for s := lo; s < hi; {
				e := min((s>>storage.ZoneShift+1)<<storage.ZoneShift, hi)
				if err := bud.Step(e - s); err != nil {
					return err
				}
				if err := inner(w, s, e); err != nil {
					return err
				}
				s = e
			}
			return nil
		}
	}
	if workers <= 1 {
		return fn(0, 0, n)
	}
	chunk := (n + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers && w*chunk < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fn(w, w*chunk, min((w+1)*chunk, n))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
