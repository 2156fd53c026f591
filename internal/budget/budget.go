// Package budget carries one request's execution bounds — a context
// (deadline + cancellation) and row/memory quotas — into whatever loops
// agree to poll it. It sits below both the execution engine and the
// narration layer: the engine polls a Budget cooperatively at morsel
// boundaries, and querytotext renders the resulting CancelError as English,
// without either importing the other.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// Cancellation causes, used by CancelError.Cause and the narration layer.
const (
	CauseDeadline  = "deadline"
	CauseCancelled = "cancelled"
	CauseRowQuota  = "row quota"
	CauseMemQuota  = "memory quota"
	CauseWALStall  = "wal-stall"
)

// TickRows is how many iterations a row-at-a-time loop runs between budget
// polls — the cooperative-cancellation granularity of the environment-based
// grouping, INSERT loops and the engine's test interpreter. A power of
// two so Tick stays a mask test.
const TickRows = 1024

// CancelError reports that a query stopped before completing: its context
// was cancelled, its deadline expired, or it exceeded a row/memory quota.
// Rows/TotalRows carry the scan progress counters the execution loops were
// already tracking, so the narration layer can say how far the query got.
type CancelError struct {
	// Cause is one of the Cause* constants above.
	Cause string
	// Elapsed is how long the query had been running when it tripped.
	Elapsed time.Duration
	// Rows counts rows examined before the stop (morsel granularity).
	Rows int64
	// TotalRows is the number of base-table rows the plan set out to visit
	// (0 when execution stopped before planning recorded it).
	TotalRows int64
	// Limit is the quota that tripped, for quota causes.
	Limit int64
	// Err is the underlying context error, when the context tripped.
	Err error
}

func (e *CancelError) Error() string {
	var b []byte
	switch e.Cause {
	case CauseDeadline:
		b = fmt.Appendf(nil, "query deadline exceeded after %s", fmtElapsed(e.Elapsed))
	case CauseCancelled:
		b = fmt.Appendf(nil, "query cancelled after %s", fmtElapsed(e.Elapsed))
	case CauseRowQuota:
		b = fmt.Appendf(nil, "query exceeded its row quota (%d rows) after %s", e.Limit, fmtElapsed(e.Elapsed))
	case CauseMemQuota:
		b = fmt.Appendf(nil, "query exceeded its memory quota (%d bytes) after %s", e.Limit, fmtElapsed(e.Elapsed))
	case CauseWALStall:
		b = fmt.Appendf(nil, "write-ahead log stalled: %v", e.Err)
	default:
		b = fmt.Appendf(nil, "query stopped after %s", fmtElapsed(e.Elapsed))
	}
	if e.Rows > 0 && e.TotalRows > 0 {
		b = fmt.Appendf(b, "; it had examined %d of %d rows", e.Rows, e.TotalRows)
	} else if e.Rows > 0 {
		b = fmt.Appendf(b, "; it had examined %d rows", e.Rows)
	}
	return string(b)
}

// Unwrap exposes the context error so errors.Is(err, context.DeadlineExceeded)
// and errors.Is(err, context.Canceled) work through a CancelError.
func (e *CancelError) Unwrap() error { return e.Err }

// fmtElapsed renders a duration at the precision narration wants ("2.0s",
// "150ms") instead of time.Duration's full nanosecond tail.
func fmtElapsed(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return d.String()
	}
}

// IsCancel reports whether err is (or wraps) a budget cancellation.
func IsCancel(err error) bool {
	var ce *CancelError
	return errors.As(err, &ce)
}

// Budget bounds one request's execution. All methods are nil-receiver safe —
// an engine without a budget polls a nil *Budget for free — and safe for
// concurrent use by parallel workers.
type Budget struct {
	ctx      context.Context
	started  time.Time
	maxRows  int64 // rows-examined quota; 0 = unbounded
	maxBytes int64 // approximate materialized-bytes quota; 0 = unbounded

	rows  atomic.Int64 // rows examined so far, advanced at morsel granularity
	bytes atomic.Int64 // approximate bytes materialized into batches
	total atomic.Int64 // base-table rows the plan set out to visit
	err   atomic.Pointer[CancelError]
}

// New builds a budget over ctx with the given quotas (0 = unbounded). It
// returns nil — the inert budget — when nothing can ever trip: a context
// that cannot be cancelled and no quotas. Execution with a nil budget is
// byte-identical to execution before budgets existed.
func New(ctx context.Context, maxRows, maxBytes int64) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() == nil && maxRows <= 0 && maxBytes <= 0 {
		return nil
	}
	if maxRows < 0 {
		maxRows = 0
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &Budget{ctx: ctx, started: time.Now(), maxRows: maxRows, maxBytes: maxBytes}
}

// Context returns the request context (context.Background() for nil budgets).
func (b *Budget) Context() context.Context {
	if b == nil {
		return context.Background()
	}
	return b.ctx
}

// Step records n more rows examined and polls the budget. The returned error
// is latched: after the first trip every poll returns the same *CancelError.
func (b *Budget) Step(n int) error {
	if b == nil {
		return nil
	}
	if ce := b.err.Load(); ce != nil {
		return ce
	}
	rows := b.rows.Add(int64(n))
	if b.maxRows > 0 && rows > b.maxRows {
		return b.trip(CauseRowQuota, b.maxRows, nil)
	}
	if err := b.ctx.Err(); err != nil {
		cause := CauseCancelled
		if errors.Is(err, context.DeadlineExceeded) {
			cause = CauseDeadline
		}
		return b.trip(cause, 0, err)
	}
	return nil
}

// Tick is Step for row-at-a-time loops: it polls once every TickRows
// iterations (including i == 0, so a loop entered after the trip stops on
// its first row).
func (b *Budget) Tick(i int) error {
	if b == nil || i&(TickRows-1) != 0 {
		return nil
	}
	return b.Step(TickRows)
}

// Grow records n more bytes materialized and polls the memory quota.
func (b *Budget) Grow(n int) error {
	if b == nil {
		return nil
	}
	if ce := b.err.Load(); ce != nil {
		return ce
	}
	if bytes := b.bytes.Add(int64(n)); b.maxBytes > 0 && bytes > b.maxBytes {
		return b.trip(CauseMemQuota, b.maxBytes, nil)
	}
	return nil
}

// Err returns the latched cancellation, or nil — parallel stages that stop
// claiming work on a tripped budget surface the cause through it.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if ce := b.err.Load(); ce != nil {
		return ce
	}
	return nil
}

// AddTotal records base-table rows the plan set out to visit, feeding the
// "examined X of Y rows" narration.
func (b *Budget) AddTotal(n int) {
	if b != nil {
		b.total.Add(int64(n))
	}
}

// Progress returns the rows examined so far and the planned total.
func (b *Budget) Progress() (rows, total int64) {
	if b == nil {
		return 0, 0
	}
	return b.rows.Load(), b.total.Load()
}

// trip latches the first cancellation and returns it; concurrent trippers
// all observe the winner.
func (b *Budget) trip(cause string, limit int64, err error) *CancelError {
	ce := &CancelError{
		Cause:     cause,
		Elapsed:   time.Since(b.started),
		Rows:      b.rows.Load(),
		TotalRows: b.total.Load(),
		Limit:     limit,
		Err:       err,
	}
	if b.err.CompareAndSwap(nil, ce) {
		return ce
	}
	return b.err.Load()
}

// WrapWALStall converts a *storage.StallError — a WAL fsync that outlived the
// request deadline plus its grace window — into the budget's cancellation
// vocabulary, carrying the statement's progress counters into the narration.
// Every other error passes through untouched.
func (b *Budget) WrapWALStall(err error) error {
	var st *storage.StallError
	if err == nil || !errors.As(err, &st) {
		return err
	}
	ce := &CancelError{Cause: CauseWALStall, Err: err}
	if b != nil {
		ce.Elapsed = time.Since(b.started)
		ce.Rows, ce.TotalRows = b.Progress()
	}
	return ce
}
