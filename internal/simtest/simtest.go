// Package simtest is a test helper for deterministic fault schedules, in the
// style of internal/leakcheck. It holds the sources tests script a run's
// faults with; PollCancel is the cancellation one. SettleAllocs quiets the
// runtime before a one-op allocation reading.
package simtest

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"
)

// SettleAllocs runs a garbage collection and returns once the process has
// gone a few short sleeps without allocating. Every GC wakes the runtime's
// cleanup goroutine for unique.Make's maps (net/netip keeps some), and that
// goroutine's six allocations land in whichever window ReadMemStats measures
// next; under CPU load it runs late enough to fall inside a one-op benchmark.
// Call it just before b.ResetTimer.
func SettleAllocs() {
	runtime.GC()
	var prev, cur runtime.MemStats
	runtime.ReadMemStats(&prev)
	for quiet := 0; quiet < 3; prev = cur {
		time.Sleep(time.Millisecond)
		runtime.ReadMemStats(&cur)
		if cur.Mallocs == prev.Mallocs {
			quiet++
		} else {
			quiet = 0
		}
	}
}

// PollCancel is a deterministic cancellation source: its Err() flips to
// context.Canceled after a scripted number of polls. Budgets poll Err() at
// every Step, so "cancel after N polls" lands the trip at a precise,
// repeatable point inside the execution loops — including mid-morsel inside
// parallel workers, which poll concurrently (the counter is atomic). A
// PollCancel built with after = 1<<62 never trips and counts a run's polls.
type PollCancel struct {
	after int64
	polls atomic.Int64
	done  chan struct{}
}

// NewPollCancel returns a context that cancels once it has been polled more
// than after times.
func NewPollCancel(after int64) *PollCancel {
	return &PollCancel{after: after, done: make(chan struct{})}
}

// Polls returns how many times Err has been called.
func (c *PollCancel) Polls() int64 { return c.polls.Load() }

func (c *PollCancel) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *PollCancel) Done() <-chan struct{}       { return c.done }
func (c *PollCancel) Value(any) any               { return nil }
func (c *PollCancel) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}
