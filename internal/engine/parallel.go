package engine

import "runtime"

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
