package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
)

// overloadTestServer is newTestServer with the shaping knobs under test
// control.
func overloadTestServer(t *testing.T, sys *core.System, adm *core.Admission, maxBody int64, maxSessions int) (*server, *httptest.Server) {
	t.Helper()
	s := &server{
		sys:         sys,
		adm:         adm,
		deadline:    5 * time.Second,
		maxBody:     maxBody,
		maxSessions: maxSessions,
		sessions:    make(map[string]string),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ask", s.guard(s.handleAsk))
	mux.HandleFunc("POST /session", s.handleSession)
	ts := httptest.NewServer(recoverJSON(mux))
	t.Cleanup(ts.Close)
	return s, ts
}

// TestOverloadShedNarrated: with every execution slot held and no queue, a
// request is shed with 429, a Retry-After header, and a narrated answer.
func TestOverloadShedNarrated(t *testing.T) {
	sys, err := buildSystem("movie", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := overloadTestServer(t, sys, core.NewAdmission(1, 0), 1<<20, 16)

	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/ask", "application/json",
		strings.NewReader(`{"sql":"select m.title from MOVIES m"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response lacks Retry-After")
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if ans, _ := out["answer"].(string); !strings.Contains(ans, "turned this request away") {
		t.Fatalf("shed answer: %q", ans)
	}

	// Releasing the slot restores service.
	release()
	if code, out := postAsk(t, ts, "select m.title from MOVIES m where m.id = 1"); code != http.StatusOK {
		t.Fatalf("ask after release: %d %v", code, out)
	}
	st := s.adm.Stats()
	if st.Rejected != 1 || st.Admitted == 0 {
		t.Fatalf("admission counters: %+v", st)
	}
}

// TestQueueTimeoutNarrated504: with the one execution slot held, a request
// that waits in the queue past -deadline is shed with 504 and a narrated
// answer — the queue's wait is what arms guard's deadline.
func TestQueueTimeoutNarrated504(t *testing.T) {
	sys, err := buildSystem("movie", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := overloadTestServer(t, sys, core.NewAdmission(1, 1), 1<<20, 16)
	s.deadline = 50 * time.Millisecond
	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	code, out := postAsk(t, ts, "select m.title from MOVIES m")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d %v, want 504", code, out)
	}
	if ans, _ := out["answer"].(string); !strings.Contains(ans, "give up") {
		t.Fatalf("504 answer: %q", ans)
	}
	if st := s.adm.Stats(); st.TimedOut != 1 {
		t.Fatalf("admission counters: %+v", st)
	}
}

// cancelAfterPolls is a request context that reports cancellation from its
// n-th Err() poll on — a deadline that falls at a chosen point of a narration.
type cancelAfterPolls struct {
	context.Context
	left atomic.Int64
}

// Done is non-nil so the budget knows this context can fire.
func (c *cancelAfterPolls) Done() <-chan struct{} { return make(chan struct{}) }

func (c *cancelAfterPolls) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestEntityCancelledMidNarration: /entity narrates under the request budget.
// Stopped between two of its queries it answers a narrated 504 with no
// narrative at all, and the read counts as cancelled in /stats.
func TestEntityCancelledMidNarration(t *testing.T) {
	sys, err := buildSystem("movie", 300, "")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := overloadTestServer(t, sys, core.NewAdmission(1, 0), 1<<20, 16)
	entity := func(ctx context.Context) (int, map[string]any) {
		rec := httptest.NewRecorder()
		s.handleEntity(ctx, rec, httptest.NewRequest("GET", "/entity?rel=DIRECTOR&attr=id&value=1", nil))
		var out map[string]any
		if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return rec.Code, out
	}
	if code, out := entity(context.Background()); code != http.StatusOK || out["narrative"] == "" {
		t.Fatalf("uncancelled /entity: %d %v", code, out)
	}
	ctx := &cancelAfterPolls{Context: context.Background()}
	ctx.left.Store(2) // the entry check and the entity lookup pass; the bridge join trips
	code, out := entity(ctx)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("cancelled /entity: status %d %v, want 504", code, out)
	}
	if ans, _ := out["answer"].(string); !strings.Contains(ans, "I stopped this query") {
		t.Fatalf("cancelled /entity answer: %v", out)
	}
	if _, partial := out["narrative"]; partial {
		t.Fatalf("cancelled /entity carries a narrative: %v", out)
	}
	rec := httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest("GET", "/stats", nil))
	var stats map[string]map[string]any
	if err := json.NewDecoder(rec.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if got := stats["snapshots"]["reads_cancelled"]; got != float64(1) {
		t.Fatalf("snapshots.reads_cancelled = %v, want 1", got)
	}
	if got := stats["feedback"]["failed"]; got != float64(0) {
		t.Fatalf("feedback.failed = %v, want 0: no answer lost its feedback", got)
	}
}

// TestBodyCapNarrated413: a body over -max-body is refused with 413 and a
// narrated answer, not a generic 400.
func TestBodyCapNarrated413(t *testing.T) {
	sys, err := buildSystem("movie", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := overloadTestServer(t, sys, core.NewAdmission(4, 4), 128, 16)

	big := `{"sql":"select m.title from MOVIES m where m.title = '` + strings.Repeat("x", 512) + `'"}`
	resp, err := http.Post(ts.URL+"/ask", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if ans, _ := out["answer"].(string); !strings.Contains(ans, "I refused to read this request") {
		t.Fatalf("413 answer: %q", ans)
	}

	// A body under the cap still works.
	if code, out := postAsk(t, ts, "select m.title from MOVIES m where m.id = 1"); code != http.StatusOK {
		t.Fatalf("small ask: %d %v", code, out)
	}
}

// TestSessionRegistryBounded: the session-profile map refuses new sessions
// past -max-sessions but still accepts rebinds and unbinds.
func TestSessionRegistryBounded(t *testing.T) {
	sys, err := buildSystem("movie", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterProfile(catalog.NewProfile("expert")); err != nil {
		t.Fatal(err)
	}
	_, ts := overloadTestServer(t, sys, core.NewAdmission(4, 4), 1<<20, 1)

	post := func(session, profile string) int {
		body, _ := json.Marshal(map[string]string{"session": session, "profile": profile})
		resp, err := http.Post(ts.URL+"/session", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("s1", "expert"); code != http.StatusOK {
		t.Fatalf("first bind: %d", code)
	}
	if code := post("s2", "expert"); code != http.StatusTooManyRequests {
		t.Fatalf("bind past the bound: %d, want 429", code)
	}
	// Rebinding a known session is not growth.
	if code := post("s1", "expert"); code != http.StatusOK {
		t.Fatalf("rebind: %d", code)
	}
	// Unbind frees the slot for a new session.
	if code := post("s1", ""); code != http.StatusOK {
		t.Fatalf("unbind: %d", code)
	}
	if code := post("s2", "expert"); code != http.StatusOK {
		t.Fatalf("bind after unbind: %d", code)
	}
}
