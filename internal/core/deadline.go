package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// RequestContext is context.WithTimeout for a server request, paid for only
// when something waits on it. It reports the timeout's Deadline from the
// start, but creates the stdlib deadline context — its timer and its
// registration on the parent — on the first call to Done. Every path that
// executes or waits calls Done before it can block (a budget is built over
// it, the admission queue selects on it, a WAL commit waits on it), so each
// stays bounded exactly as under WithTimeout. A response-cache hit never
// calls Done and never arms a timer.
//
// Until Done is called, Err is the parent's: a poll does not read the clock,
// so a deadline that passes unobserved trips at the first Done instead.
// Value reads through to the parent, or to the armed context once there is
// one. The caller calls Cancel when the request ends, as it would call
// WithTimeout's cancel.
type RequestContext struct {
	parent   context.Context
	deadline time.Time

	mu     sync.Mutex
	state  atomic.Uint32 // idle, armed or cancelled; armed is final
	ctx    context.Context
	cancel context.CancelFunc
}

const (
	idle      = iota // no timer yet
	armed            // ctx and cancel are set
	cancelled        // Cancel ran before anything waited
)

// NewRequestContext returns a context that expires timeout from now, or at
// parent's deadline if that comes first.
func NewRequestContext(parent context.Context, timeout time.Duration) *RequestContext {
	d := time.Now().Add(timeout)
	if cur, ok := parent.Deadline(); ok && cur.Before(d) {
		d = cur
	}
	return &RequestContext{parent: parent, deadline: d}
}

// Deadline reports the deadline the context was created with.
func (c *RequestContext) Deadline() (time.Time, bool) { return c.deadline, true }

// Done arms the deadline on its first call and returns the armed context's
// channel.
func (c *RequestContext) Done() <-chan struct{} {
	if c.state.Load() != armed {
		c.arm()
	}
	return c.ctx.Done()
}

func (c *RequestContext) arm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state.Load() {
	case armed:
		return
	case cancelled:
		c.ctx, c.cancel = context.WithCancel(c.parent)
		c.cancel()
	default:
		c.ctx, c.cancel = context.WithDeadline(c.parent, c.deadline)
	}
	c.state.Store(armed)
}

// Err is the armed context's error, context.Canceled after Cancel, or the
// parent's before either.
func (c *RequestContext) Err() error {
	switch c.state.Load() {
	case armed:
		return c.ctx.Err()
	case cancelled:
		return context.Canceled
	}
	return c.parent.Err()
}

// Value reads through to the armed context, or to the parent before it.
func (c *RequestContext) Value(key any) any {
	if c.state.Load() == armed {
		return c.ctx.Value(key)
	}
	return c.parent.Value(key)
}

// Cancel ends the context: it stops an armed timer and detaches it from
// the parent. A hit that never armed one pays for a lock and nothing else.
func (c *RequestContext) Cancel() {
	c.mu.Lock()
	if c.state.Load() == idle {
		c.state.Store(cancelled)
	}
	c.mu.Unlock()
	if c.state.Load() == armed {
		c.cancel()
	}
}
