package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// TestResponseKey holds the response-cache key to the "%d|%d|%s" it has
// always been, at the edges of both numbers' ranges.
func TestResponseKey(t *testing.T) {
	for _, c := range []struct {
		seq uint64
		gen int64
		key string
	}{
		{0, 0, ""},
		{377, 300, "select m.title from movies m"},
		{math.MaxUint64, math.MaxInt64, "k"},
		{1, math.MinInt64, "select 'a|b'"},
	} {
		if got, want := responseKey(c.seq, c.gen, c.key), fmt.Sprintf("%d|%d|%s", c.seq, c.gen, c.key); got != want {
			t.Errorf("responseKey(%d, %d, %q) = %q, want %q", c.seq, c.gen, c.key, got, want)
		}
	}
}

// TestAskHitAllocs pins a response-cache hit to two allocations, the
// normalized text and the response-cache key, on a system past 300 commits,
// where the snapshot seq and the data generation no longer fit fmt's
// preallocated small integers: through Ask, and through AskContext under a
// RequestContext.
func TestAskHitAllocs(t *testing.T) {
	s := movieSystem(t)
	for i := 0; i < 300; i++ {
		if _, err := s.Ask(fmt.Sprintf("insert into ACTOR (id, name) values (%d, 'Extra %d')", 1000+i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if seq, gen := s.db.Snapshot().Seq(), s.dataGen.Load(); seq < 300 || gen < 300 {
		t.Fatalf("seq %d, gen %d after 300 commits", seq, gen)
	}
	const sql = "select m.title, m.year from MOVIES m where m.id = 100"
	first, err := s.Ask(sql)
	if err != nil {
		t.Fatal(err)
	}
	if hit, _ := s.Ask(sql); hit != first {
		t.Fatal("second ask missed the response cache")
	}
	if n := testing.AllocsPerRun(100, func() { s.Ask(sql) }); n > 2 {
		t.Errorf("a response-cache hit allocates %v times, want at most 2", n)
	}
	// Under talkbackd's request deadline a hit costs the same, and never
	// arms the deadline's timer.
	ctx := NewRequestContext(context.Background(), time.Minute)
	defer ctx.Cancel()
	if n := testing.AllocsPerRun(100, func() { s.AskContext(ctx, sql) }); n > 2 {
		t.Errorf("a response-cache hit under a RequestContext allocates %v times, want at most 2", n)
	}
	if ctx.state.Load() != idle {
		t.Error("a response-cache hit armed the request deadline")
	}
}

// TestWireEncodesOnce: Wire stores the first encoding and returns it to
// every later caller, concurrent first callers included.
func TestWireEncodesOnce(t *testing.T) {
	s := movieSystem(t)
	resp, err := s.Ask("select m.title from MOVIES m where m.year >= 2007")
	if err != nil {
		t.Fatal(err)
	}
	encode := func(r *Response) []byte { return []byte(r.Answer) }
	var wg sync.WaitGroup
	got := make([][]byte, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = resp.Wire(encode)
		}()
	}
	wg.Wait()
	for i, b := range got {
		if string(b) != resp.Answer {
			t.Fatalf("caller %d got %q, want %q", i, b, resp.Answer)
		}
	}
	called := false
	b := resp.Wire(func(*Response) []byte { called = true; return nil })
	if called || string(b) != resp.Answer {
		t.Fatalf("a later Wire re-encoded (called %v) or returned %q", called, b)
	}
}
