package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/querytotext"
)

// TestAdmissionValve pins the valve's outcomes: immediate admit, instant
// shed on a full queue, a queued request shed when its context is
// cancelled, and one timed out by its own deadline.
func TestAdmissionValve(t *testing.T) {
	defer leakcheck.Check(t)()
	a := NewAdmission(1, 1)

	release1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	// Second request queues; park it in a goroutine.
	type result struct {
		release func()
		err     error
	}
	queued := make(chan result, 1)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go func() {
		r, err := a.Acquire(ctx2)
		queued <- result{r, err}
	}()
	waitFor(t, func() bool { return a.Stats().Waiting == 1 })

	// Third request finds slot and queue full: instant shed.
	_, err = a.Acquire(context.Background())
	var ov *OverloadError
	if !errors.As(err, &ov) || ov.TimedOut {
		t.Fatalf("full-queue acquire: %v", err)
	}
	if ov.Limit != 1 || ov.Running != 1 {
		t.Fatalf("shed snapshot: %+v", ov)
	}
	if text := querytotext.OverloadEnglish(ov.Running, ov.Waiting, ov.Limit, ov.Waited, ov.TimedOut); !strings.Contains(text, "turned this request away") {
		t.Fatalf("shed narration: %q", text)
	}

	// Cancel the queued request's context: it sheds as timed out.
	cancel2()
	r2 := <-queued
	if !errors.As(r2.err, &ov) || !ov.TimedOut {
		t.Fatalf("queued-timeout acquire: %v", r2.err)
	}
	if text := querytotext.OverloadEnglish(ov.Running, ov.Waiting, ov.Limit, ov.Waited, ov.TimedOut); !strings.Contains(text, "give up") {
		t.Fatalf("timeout narration: %q", text)
	}

	// Release frees the slot; release is idempotent.
	release1()
	release1()
	release2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}

	// A queued request whose deadline passes sheds as timed out (talkbackd's
	// 504) under either request deadline: the queue's wait arms a
	// RequestContext's timer.
	for _, dc := range deadlineContexts {
		ctx, cancel := dc.with(20 * time.Millisecond)
		err := a.Admit(ctx)
		cancel()
		if !errors.As(err, &ov) || !ov.TimedOut || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: queued past its deadline: %v", dc.name, err)
		}
	}
	release2()

	st := a.Stats()
	if st.Admitted != 2 || st.Rejected != 1 || st.TimedOut != 1+uint64(len(deadlineContexts)) {
		t.Fatalf("counters: %+v", st)
	}
	if st.Running != 0 || st.Waiting != 0 {
		t.Fatalf("occupancy after drain: %+v", st)
	}
	a.NoteCancelled()
	if got := a.Stats().Cancelled; got != 1 {
		t.Fatalf("cancelled counter: %d", got)
	}
}

// TestAdmissionQueueAdmits: a queued request gets the slot when it frees —
// queueing is a wait, not a rejection.
func TestAdmissionQueueAdmits(t *testing.T) {
	defer leakcheck.Check(t)()
	a := NewAdmission(1, 4)
	release1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		r, err := a.Acquire(context.Background())
		if err == nil {
			r()
		}
		got <- err
	}()
	waitFor(t, func() bool { return a.Stats().Waiting == 1 })
	release1()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("queued acquire after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never admitted after release")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
