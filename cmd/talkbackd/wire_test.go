package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simtest"
	"repro/internal/sqlparser"
	"repro/internal/value"
)

// testServer is a server over sys with talkbackd's default limits.
func testServer(sys *core.System) *server {
	return &server{
		sys:         sys,
		adm:         core.NewAdmission(8, 16),
		deadline:    10 * time.Second,
		maxBody:     1 << 20,
		maxSessions: 4096,
		sessions:    make(map[string]string),
	}
}

// askBytes sends one POST /ask through guard(handleAsk) and returns the
// reply's status and body.
func askBytes(tb testing.TB, h http.HandlerFunc, sql string) (int, []byte) {
	tb.Helper()
	rec := post(h, "/ask", askBody(tb, sql))
	return rec.Code, rec.Body.Bytes()
}

// wireQueries are the replies TestAskWireFormat pins: the paper's Brad-Pitt
// join and an outer join whose padded cells are SQL NULL.
var wireQueries = []struct{ name, sql string }{
	{"ask_q1", sqlparser.PaperQueries["Q1"]},
	{"ask_null", "select m.title, g.genre from MOVIES m left join GENRE g on g.mid = m.id and g.genre = 'comedy' where m.year >= 2005"},
}

// TestAskWireFormat pins the exact /ask reply bytes: two-space indentation,
// field order, HTML escaping, null cells and the trailing newline are part
// of the API. A cache miss and the hit after it must both match.
func TestAskWireFormat(t *testing.T) {
	sys, err := buildSystem("movie", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(sys)
	h := s.guard(s.handleAsk)
	for _, q := range wireQueries {
		path := filepath.Join("testdata", q.name+".golden")
		code, got := askBytes(t, h, q.sql)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q.name, code, got)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: reply differs from %s:\n%s", q.name, path, got)
		}
		if _, hit := askBytes(t, h, q.sql); !bytes.Equal(hit, want) {
			t.Errorf("%s: cached reply differs from %s:\n%s", q.name, path, hit)
		}
	}
}

// TestAskReplyMemo: a cached SELECT's reply is the miss's bytes, a commit
// retires the stored bytes with their cache entry, a DML reply is encoded
// anew each time, and concurrent first hits agree.
func TestAskReplyMemo(t *testing.T) {
	sys, err := buildSystem("movie", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(sys)
	h := s.guard(s.handleAsk)
	ask := func(sql string) []byte {
		t.Helper()
		code, body := askBytes(t, h, sql)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", sql, code, body)
		}
		return body
	}
	hits := func() int64 { return sys.CacheStats()["response"].Hits }

	const recent = "select m.title from MOVIES m where m.year >= 2007"
	miss := ask(recent)
	before := hits()
	if hit := ask(recent); !bytes.Equal(hit, miss) || hits() != before+1 {
		t.Fatalf("hit (%d new hits) differs from the miss:\n%s\nvs\n%s", hits()-before, hit, miss)
	}

	ask("insert into MOVIES (id, title, year) values (999, 'Fresh Reel', 2026)")
	fresh := ask(recent)
	if !bytes.Contains(fresh, []byte("Fresh Reel")) {
		t.Fatalf("reply after a committed insert lacks the new row:\n%s", fresh)
	}
	if hit := ask(recent); !bytes.Equal(hit, fresh) {
		t.Fatalf("hit after the insert differs from its miss:\n%s\nvs\n%s", hit, fresh)
	}

	const purge = "delete from MOVIES where year >= 2026"
	first, second := ask(purge), ask(purge)
	if !strings.Contains(string(first), `"affected": 1`) || strings.Contains(string(second), `"affected"`) {
		t.Fatalf("repeated DML replies were not each encoded anew:\n%s\nthen\n%s", first, second)
	}

	// Concurrent first hits: the cache holds an answer no reply has been
	// encoded for yet, and eight requests race to encode it.
	const point = "select m.title, m.year from MOVIES m where m.id = 120"
	cached, err := sys.Ask(point)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeAsk(cached)
	bodies := make([][]byte, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, bodies[i] = askBytes(t, h, point)
		}()
	}
	close(start)
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("concurrent hit %d:\n%s\nwant\n%s", i, b, want)
		}
	}
}

// BenchmarkX24ServeHit is talkbackd's share of a response-cache hit: one
// POST /ask through the real guard(handleAsk), recorded by
// httptest.NewRecorder, after one warm-up ask has cached the answer and its
// reply. Its allocations are gated, so the hit path stays one Write. The
// body buffer pool is primed with buffers any P can take, and the clock
// starts after a GC whose background work has settled, so the one-op
// reading counts the hit alone (as in X28).
func BenchmarkX24ServeHit(b *testing.B) {
	for _, q := range []struct{ name, sql string }{
		{"point", "select m.title, m.year from MOVIES m where m.id = 120"},
		{"join", sqlparser.PaperQueries["Q1"]},
	} {
		b.Run(q.name, func(b *testing.B) {
			sys, err := buildSystem("movie", 0, "")
			if err != nil {
				b.Fatal(err)
			}
			s := testServer(sys)
			h := s.guard(s.handleAsk)
			body, _ := json.Marshal(askRequest{SQL: q.sql})
			if code, reply := askBytes(b, h, q.sql); code != http.StatusOK {
				b.Fatalf("warm-up: status %d: %s", code, reply)
			}
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/ask", io.NopCloser(rd))
			for i := 0; i < 2*runtime.GOMAXPROCS(0); i++ {
				buf := make([]byte, 0, 1<<10)
				bodyBufs.Put(&buf)
			}
			simtest.SettleAllocs()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				rec := httptest.NewRecorder()
				h(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// replyCases are the non-SELECT replies TestReplyWireFormat pins, each sent
// through its real handler on a fresh curated server. The 429 holds the one
// execution slot of a queue-less valve; the 403 asks a read-only database to
// write.
var replyCases = []struct {
	name string
	code int
	send func(tb testing.TB, s *server) *httptest.ResponseRecorder
}{
	{"describe_q6", http.StatusOK, func(tb testing.TB, s *server) *httptest.ResponseRecorder {
		return post(s.guard(s.handleDescribe), "/describe", askBody(tb, sqlparser.PaperQueries["Q6"]))
	}},
	{"entity_actor", http.StatusOK, func(tb testing.TB, s *server) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.guard(s.handleEntity)(rec, httptest.NewRequest(http.MethodGet, "/entity?rel=ACTOR&attr=name&value=Brad%20Pitt", nil))
		return rec
	}},
	{"ask_dml", http.StatusOK, func(tb testing.TB, s *server) *httptest.ResponseRecorder {
		return post(s.guard(s.handleAsk), "/ask", askBody(tb, "insert into MOVIES (id, title, year) values (999, 'Fresh <Reel> & \"Co\"', 2026)"))
	}},
	{"session", http.StatusOK, func(tb testing.TB, s *server) *httptest.ResponseRecorder {
		return post(s.handleSession, "/session", []byte(`{"session":"<s&1>\u2028","profile":""}`))
	}},
	{"shed_429", http.StatusTooManyRequests, func(tb testing.TB, s *server) *httptest.ResponseRecorder {
		s.adm = core.NewAdmission(1, 0)
		release, err := s.adm.Acquire(context.Background())
		if err != nil {
			tb.Fatal(err)
		}
		defer release()
		return post(s.guard(s.handleAsk), "/ask", askBody(tb, "select m.title from MOVIES m"))
	}},
	{"readonly_403", http.StatusForbidden, func(tb testing.TB, s *server) *httptest.ResponseRecorder {
		s.sys.Database().SetReadOnly(true)
		return post(s.guard(s.handleAsk), "/ask", askBody(tb, "delete from MOVIES where id = 1"))
	}},
	{"body_malformed_400", http.StatusBadRequest, func(tb testing.TB, s *server) *httptest.ResponseRecorder {
		return post(s.guard(s.handleAsk), "/ask", []byte(`{"sql": select m.title from MOVIES m}`))
	}},
	{"body_type_400", http.StatusBadRequest, func(tb testing.TB, s *server) *httptest.ResponseRecorder {
		return post(s.guard(s.handleAsk), "/ask", []byte(`{"sql": 7}`))
	}},
	{"body_cap_413", http.StatusRequestEntityTooLarge, func(tb testing.TB, s *server) *httptest.ResponseRecorder {
		s.maxBody = 128
		return post(s.guard(s.handleAsk), "/ask", askBody(tb, "select m.title from MOVIES m where m.title = '"+strings.Repeat("x", 512)+"'"))
	}},
}

func askBody(tb testing.TB, sql string) []byte {
	tb.Helper()
	body, err := json.Marshal(askRequest{SQL: sql})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// post sends body to h as a POST to path and records the reply.
func post(h http.HandlerFunc, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// TestReplyWireFormat pins the exact bytes of /describe, /entity, a DML
// /ask, /session and two narrated refusals, as TestAskWireFormat does for
// SELECT replies.
func TestReplyWireFormat(t *testing.T) {
	for _, c := range replyCases {
		t.Run(c.name, func(t *testing.T) {
			sys, err := buildSystem("movie", 0, "")
			if err != nil {
				t.Fatal(err)
			}
			rec := c.send(t, testServer(sys))
			if rec.Code != c.code {
				t.Fatalf("status %d, want %d: %s", rec.Code, c.code, rec.Body)
			}
			path := filepath.Join("testdata", c.name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("reply differs from %s:\n%s", path, got)
			}
		})
	}
}

// BenchmarkX28EncodeReply is talkbackd's encode layer on the cold path: one
// reply written from an answer already in hand, on a generated 2 000-movie
// database. ask-large is the cold cycle's large answer (every role cast in
// forty-one movies, explained), ask-dml an UPDATE's reply, describe a
// two-table /describe and entity an ACTOR /entity. Its allocations are
// gated. Before the clock starts, the reply scratch pool is primed with
// buffers any P can take, so a one-op reading counts the encode and not a
// pool miss after the goroutine changes P, and the collector's background
// work settles (as in X24).
func BenchmarkX28EncodeReply(b *testing.B) {
	sys, err := buildSystem("movie", 2000, "")
	if err != nil {
		b.Fatal(err)
	}
	large, err := sys.Ask("select c.role from CAST c where c.mid between 100 and 140")
	if err != nil {
		b.Fatal(err)
	}
	if len(large.Result.Rows) <= 100 || large.Feedback == "" {
		b.Fatalf("ask-large: %d rows, feedback %q", len(large.Result.Rows), large.Feedback)
	}
	dml, err := sys.Ask("update MOVIES set year = 2001 where id = 7")
	if err != nil || dml.Affected != 1 {
		b.Fatalf("ask-dml: %v, %d affected", err, dml.Affected)
	}
	tr, err := sys.DescribeQuery("select m.title from MOVIES m, DIRECTED d where m.id = d.mid and d.did = 7 and m.year > 1990 and m.id > 300")
	if err != nil {
		b.Fatal(err)
	}
	narrative, err := sys.DescribeEntityAsContext(context.Background(), "", "ACTOR", "id", value.NewInt(1))
	if err != nil || !strings.Contains(narrative, "plays in") {
		b.Fatalf("entity: %v: %q", err, narrative)
	}
	for _, c := range []struct {
		name   string
		encode func() []byte
	}{
		{"ask-large", func() []byte { return encodeAsk(large) }},
		{"ask-dml", func() []byte { return encodeAsk(dml) }},
		{"describe", func() []byte { return encodeTranslation(tr) }},
		{"entity", func() []byte { return encodeFields("narrative", narrative) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < 2*runtime.GOMAXPROCS(0); i++ {
				buf := make([]byte, 0, 64<<10)
				scratch.Put(&buf)
			}
			simtest.SettleAllocs()
			b.ReportAllocs()
			b.SetBytes(int64(len(c.encode())))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.encode()
			}
		})
	}
}
