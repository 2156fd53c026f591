package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Admission is the server's overload valve: a bounded semaphore of
// concurrently executing requests plus a short wait queue in front of it.
// A request that finds the semaphore full joins the queue; one that finds
// the queue full too is shed immediately. A queued request whose context
// fires before a slot frees is shed as timed out. Either way the caller
// gets an *OverloadError with enough numbers for the narration layer to
// explain the shedding in English, and the shed request costs the system
// nothing but the queue wait — it never pins a snapshot or plans a query.
type Admission struct {
	limit int
	queue int
	sem   chan struct{}

	waiting   atomic.Int64
	admitted  atomic.Uint64
	rejected  atomic.Uint64
	timedOut  atomic.Uint64
	cancelled atomic.Uint64
}

// NewAdmission builds a valve admitting up to limit concurrent requests
// with up to queue more waiting. limit < 1 means 1; queue < 0 means 0.
func NewAdmission(limit, queue int) *Admission {
	if limit < 1 {
		limit = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Admission{limit: limit, queue: queue, sem: make(chan struct{}, limit)}
}

// OverloadError reports a request the admission valve turned away.
type OverloadError struct {
	// Running is how many requests held execution slots at the decision.
	Running int
	// Waiting is how many requests sat in the queue at the decision.
	Waiting int
	// Limit is the concurrent-execution cap.
	Limit int
	// Waited is how long the request queued before being shed (zero when
	// the queue itself was full and the request never queued).
	Waited time.Duration
	// TimedOut distinguishes a queued request whose deadline fired (true)
	// from one shed instantly because the queue was full (false).
	TimedOut bool
	// Err is the context error for timed-out requests.
	Err error
}

func (e *OverloadError) Error() string {
	if e.TimedOut {
		return "server overloaded: request timed out in the admission queue"
	}
	return "server overloaded: request shed, admission queue full"
}

// Unwrap exposes the context error so errors.Is(err, context.DeadlineExceeded)
// works through an OverloadError.
func (e *OverloadError) Unwrap() error { return e.Err }

// Acquire admits the request as Admit does and returns the release func the
// caller must invoke when done (it is idempotent). It returns an
// *OverloadError when the request is shed.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	if err := a.Admit(ctx); err != nil {
		return nil, err
	}
	var once sync.Once
	return func() { once.Do(a.Release) }, nil
}

// Admit admits the request, blocking in the wait queue if execution slots
// are full; the caller calls Release exactly once when done. It returns an
// *OverloadError when the request is shed. An admitted request that found a
// free slot never calls ctx.Done.
func (a *Admission) Admit(ctx context.Context) error {
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		return nil
	default:
	}
	// Slots full: claim a queue position, or shed on the spot if the queue
	// is full too. The add-then-check keeps the fast path lock-free; at
	// worst a burst momentarily overshoots the queue by the losers, all of
	// whom shed themselves right back out.
	if w := a.waiting.Add(1); w > int64(a.queue) {
		a.waiting.Add(-1)
		a.rejected.Add(1)
		return &OverloadError{Running: len(a.sem), Waiting: int(w) - 1, Limit: a.limit}
	}
	start := time.Now()
	select {
	case a.sem <- struct{}{}:
		a.waiting.Add(-1)
		a.admitted.Add(1)
		return nil
	case <-ctx.Done():
		w := a.waiting.Add(-1)
		a.timedOut.Add(1)
		return &OverloadError{
			Running:  len(a.sem),
			Waiting:  int(w),
			Limit:    a.limit,
			Waited:   time.Since(start),
			TimedOut: true,
			Err:      ctx.Err(),
		}
	}
}

// Release frees the slot an Admit took.
func (a *Admission) Release() { <-a.sem }

// NoteCancelled records a request that was admitted but then stopped
// mid-execution by its budget — the serving layer calls it so /stats can
// report execution-time cancellations next to admission-time sheds.
func (a *Admission) NoteCancelled() { a.cancelled.Add(1) }

// AdmissionStats is a point-in-time snapshot of the valve's counters.
type AdmissionStats struct {
	// Limit and Queue are the configured capacities.
	Limit, Queue int
	// Running and Waiting are current occupancy.
	Running, Waiting int64
	// Admitted, Rejected, and TimedOut count admission decisions since
	// boot; Cancelled counts admitted requests later stopped by budget.
	Admitted, Rejected, TimedOut, Cancelled uint64
}

// Stats reports the valve's counters.
func (a *Admission) Stats() AdmissionStats {
	return AdmissionStats{
		Limit:     a.limit,
		Queue:     a.queue,
		Running:   int64(len(a.sem)),
		Waiting:   a.waiting.Load(),
		Admitted:  a.admitted.Load(),
		Rejected:  a.rejected.Load(),
		TimedOut:  a.timedOut.Load(),
		Cancelled: a.cancelled.Load(),
	}
}
