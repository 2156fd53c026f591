package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func newTestServer(t *testing.T, sys *core.System) *httptest.Server {
	t.Helper()
	s := testServer(sys)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ask", s.guard(s.handleAsk))
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /panic", func(http.ResponseWriter, *http.Request) {
		panic("deliberate test panic")
	})
	ts := httptest.NewServer(recoverJSON(mux))
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, ts *httptest.Server, path string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return out
}

func postAsk(t *testing.T, ts *httptest.Server, sql string) (int, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"sql": sql})
	resp, err := http.Post(ts.URL+"/ask", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestRecoverJSONMiddleware: a handler panic must come back as a JSON 500
// and leave the server answering later requests.
func TestRecoverJSONMiddleware(t *testing.T) {
	sys, err := buildSystem("movie", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, sys)
	out := getJSON(t, ts, "/panic", http.StatusInternalServerError)
	msg, _ := out["error"].(string)
	if !strings.Contains(msg, "the server is still up") {
		t.Fatalf("panic error message: %q", msg)
	}
	// The server really is still up.
	if code, resp := postAsk(t, ts, "select m.title from MOVIES m where m.id = 1"); code != http.StatusOK {
		t.Fatalf("ask after panic: %d %v", code, resp)
	}
}

// TestDurableServerRoundTrip boots a durable server on a real directory,
// applies DML over HTTP, rebuilds the server from the same directory, and
// checks recovery plus the /stats durability section.
func TestDurableServerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sys, err := buildSystem("movie", 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, sys)

	code, out := postAsk(t, ts, "insert into MOVIES (id, title, year) values (999, 'Durable Over HTTP', 2026)")
	if code != http.StatusOK {
		t.Fatalf("insert: %d %v", code, out)
	}
	for _, name := range []string{"wal.log", "checkpoint.seg"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("durable file %s: %v", name, err)
		}
	}

	stats := getJSON(t, ts, "/stats", http.StatusOK)
	durable, ok := stats["durability"].(map[string]any)
	if !ok {
		t.Fatalf("no durability section in /stats: %v", stats)
	}
	if durable["batches"].(float64) < 1 || durable["syncs"].(float64) < 1 {
		t.Fatalf("counters: %v", durable)
	}
	recovery, ok := durable["recovery"].(map[string]any)
	if !ok {
		t.Fatalf("no recovery section: %v", durable)
	}
	if narrative, _ := recovery["narrative"].(string); !strings.Contains(narrative, "fresh durability log") {
		t.Fatalf("first-boot narrative: %q", narrative)
	}

	// Close the log as graceful shutdown would, then boot a second server
	// from the directory.
	if err := sys.Database().CloseDurability(); err != nil {
		t.Fatal(err)
	}
	sys2, err := buildSystem("movie", 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestServer(t, sys2)
	code, out = postAsk(t, ts2, "select m.title from MOVIES m where m.id = 999")
	if code != http.StatusOK {
		t.Fatalf("ask after recovery: %d %v", code, out)
	}
	if ans, _ := out["answer"].(string); !strings.Contains(ans, "Durable Over HTTP") {
		t.Fatalf("recovered answer: %q", ans)
	}
	stats2 := getJSON(t, ts2, "/stats", http.StatusOK)
	recovery2 := stats2["durability"].(map[string]any)["recovery"].(map[string]any)
	if clean, _ := recovery2["clean"].(bool); !clean {
		t.Fatalf("recovery after clean close not clean: %v", recovery2)
	}
	if narrative, _ := recovery2["narrative"].(string); !strings.Contains(narrative, "replayed") {
		t.Fatalf("recovery narrative: %q", narrative)
	}
}

// TestInMemoryStatsOmitDurability: without -data, /stats has no durability
// section.
func TestInMemoryStatsOmitDurability(t *testing.T) {
	sys, err := buildSystem("movie", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, sys)
	stats := getJSON(t, ts, "/stats", http.StatusOK)
	if _, ok := stats["durability"]; ok {
		t.Fatal("in-memory /stats reports durability")
	}
}

// TestStatsCowBytesKeyedUpdate: a keyed UPDATE after a read copies one
// payload chunk of the changed column plus the flat per-column state, not
// the table — /stats reports it as snapshots.cow_bytes.
func TestStatsCowBytesKeyedUpdate(t *testing.T) {
	const movies = 20000 // five zones: the whole year vector is 160 KB
	sys, err := buildSystem("movie", movies, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, sys)
	cowBytes := func() float64 {
		t.Helper()
		snaps := getJSON(t, ts, "/stats", http.StatusOK)["snapshots"].(map[string]any)
		n, ok := snaps["cow_bytes"].(float64)
		if !ok {
			t.Fatalf("no snapshots.cow_bytes in /stats: %v", snaps)
		}
		return n
	}
	if code, out := postAsk(t, ts, "select m.year from MOVIES m where m.id = 7777"); code != http.StatusOK {
		t.Fatalf("read: %d %v", code, out)
	}
	before := cowBytes()
	code, out := postAsk(t, ts, "update MOVIES set year = 1901 where id = 7777")
	if code != http.StatusOK || out["affected"] != float64(1) {
		t.Fatalf("update: %d %v", code, out)
	}
	// One 4096-row chunk of int64 years, plus a few KB of null words, zone
	// summaries and chunk and frame-of-reference headers across the columns.
	const bound = 4096*8 + 8<<10
	if grew := cowBytes() - before; grew <= 0 || grew > bound {
		t.Fatalf("keyed update copied %v bytes, want (0, %d]", grew, bound)
	}
}
