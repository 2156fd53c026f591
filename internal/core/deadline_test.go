package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestRequestContext: the context reports its deadline from the start,
// answers Err from the parent until the first Done arms it, and then
// behaves as context.WithTimeout would — an expired deadline trips at once,
// Cancel before or after arming ends it, and values read through.
func TestRequestContext(t *testing.T) {
	type key struct{}
	parent, cancelParent := context.WithCancel(context.WithValue(context.Background(), key{}, "v"))
	defer cancelParent()

	before := time.Now()
	c := NewRequestContext(parent, time.Nanosecond)
	if d, ok := c.Deadline(); !ok || d.Before(before) || d.After(time.Now().Add(time.Nanosecond)) {
		t.Fatalf("Deadline() = %v, %v", d, ok)
	}
	time.Sleep(time.Millisecond)
	if err := c.Err(); err != nil || c.state.Load() != idle {
		t.Fatalf("before Done: Err() = %v, state %d; want the parent's nil, unarmed", err, c.state.Load())
	}
	<-c.Done()
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("armed past its deadline: Err() = %v", err)
	}
	if c.Value(key{}) != "v" {
		t.Fatal("Value does not read through to the parent")
	}
	c.Cancel()

	earlier, cancelEarlier := context.WithTimeout(parent, time.Hour)
	defer cancelEarlier()
	want, _ := earlier.Deadline()
	if d, _ := NewRequestContext(earlier, 2*time.Hour).Deadline(); !d.Equal(want) {
		t.Fatalf("Deadline() = %v, want the parent's earlier %v", d, want)
	}

	for _, armFirst := range []bool{false, true} {
		cancelled := NewRequestContext(parent, time.Hour)
		if armFirst {
			cancelled.Done()
		}
		cancelled.Cancel()
		if err := cancelled.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled (armed first: %v): Err() = %v", armFirst, err)
		}
		<-cancelled.Done()
	}

	// Parallel workers poll and wait at once, racing the first arm and the
	// Cancel at the end of the request: one timer, and every waiter wakes.
	shared := NewRequestContext(parent, time.Hour)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared.Err()
			<-shared.Done()
			if shared.Err() == nil {
				t.Error("Done closed but Err is nil")
			}
		}()
	}
	shared.Cancel()
	wg.Wait()

	orphan := NewRequestContext(parent, time.Hour)
	defer orphan.Cancel()
	cancelParent()
	if err := orphan.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("parent cancelled before Done: Err() = %v", err)
	}
	<-orphan.Done()
}
