package engine

import (
	"context"

	"repro/internal/budget"
)

// This file is the engine half of deadline-aware execution. A Budget carries
// one request's context (deadline + cancellation) and resource quotas into
// the execution loops; every loop polls it cooperatively at morsel
// boundaries (every worker's range of a scan, join or fused aggregation is
// cut at storage-zone boundaries with a poll before each piece — see zones
// in parallel.go — and the interpreter — the tests' oracle — ticks every
// budget.TickRows iterations).
// A tripped budget latches a single *CancelError so concurrent workers agree
// on the first cause, stop claiming work, and the whole pipeline unwinds
// without partial results escaping.
//
// The types live in the leaf package internal/budget (so the narration layer
// can render a CancelError without importing the engine); these aliases keep
// the engine's public surface self-contained.

// Budget bounds one request's execution; see internal/budget.
type Budget = budget.Budget

// CancelError reports a query stopped before completing; see internal/budget.
type CancelError = budget.CancelError

// Cancellation causes, re-exported for callers that switch on
// CancelError.Cause.
const (
	CauseDeadline  = budget.CauseDeadline
	CauseCancelled = budget.CauseCancelled
	CauseRowQuota  = budget.CauseRowQuota
	CauseMemQuota  = budget.CauseMemQuota
	CauseWALStall  = budget.CauseWALStall
)

// NewBudget builds a budget over ctx with the given quotas (0 = unbounded);
// it returns nil — the inert budget — when nothing can ever trip.
func NewBudget(ctx context.Context, maxRows, maxBytes int64) *Budget {
	return budget.New(ctx, maxRows, maxBytes)
}

// IsCancel reports whether err is (or wraps) a budget cancellation.
func IsCancel(err error) bool { return budget.IsCancel(err) }

// WithBudget returns a clone of the engine bound to b: every execution loop
// the clone runs polls b at morsel boundaries, and DML commits thread b's
// context down to the WAL sync. Like At, the clone is cheap and shares views
// and pipeline toggles with the root engine. A nil budget on an unbudgeted
// engine is a no-op.
func (ex *Engine) WithBudget(b *Budget) *Engine {
	if b == nil && ex.bud == nil {
		return ex
	}
	return &Engine{db: ex.db, src: ex.src, st: ex.st, bud: b}
}

// Budget returns the engine's budget (nil for an unbounded engine).
func (ex *Engine) Budget() *Budget { return ex.bud }
