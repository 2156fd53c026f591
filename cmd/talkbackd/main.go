// Command talkbackd serves the talk-back system to many concurrent sessions
// over HTTP — the multi-user face of the paper's vision that a DBMS should
// talk back to *every* user, not one REPL at a time.
//
// Endpoints (JSON in, JSON out):
//
//	POST /ask       {"sql": "..."}
//	                → full talk-back loop: verification, rows, narrated
//	                  answer, and empty/large-answer feedback.
//	POST /describe  {"sql": "..."}
//	                → translate without executing (query verification).
//	POST /explain   {"sql": "..."}
//	                → execute and narrate the cost-based query plan: steps,
//	                  access paths, estimated vs. actual rows, indexes used,
//	                  and optimization tips, plus an English rendering.
//	GET  /schema    → DDL plus the narrated schema description.
//	GET  /entity?rel=ACTOR&attr=NAME&value=Brad%20Pitt&session=s1
//	                → entity narrative, personalized by the session profile.
//	POST /session   {"session": "s1", "profile": "casual"}
//	                → bind a personalization profile to a session.
//	GET  /stats     → cache hit/miss counters, table cardinalities, MVCC
//	                  snapshot shape (sealed zones vs. mutable tail rows, published
//	                  versions, reader traffic), and — for durable
//	                  databases — WAL counters plus the last recovery
//	                  narrated in English.
//
// Example session:
//
//	talkbackd -addr :8080 -data ./talkback-data &
//	curl -s localhost:8080/ask -d '{"sql":"select m.title from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id and a.name = '\''Brad Pitt'\''"}'
//
// Flags:
//
//	-addr :8080         listen address
//	-schema movie|emp   schema to serve (default movie)
//	-scale N            N > 0 serves a generated movie DB with N movies
//	                    instead of the curated Fig. 1 database
//	-data DIR           durable mode: write-ahead log + checkpoints in DIR.
//	                    An empty DIR is seeded (curated or -scale generated)
//	                    and adopted; a DIR with existing state is recovered
//	                    (checkpoint + WAL replay) and -scale is ignored.
//	-deadline D         per-request execution deadline (default 10s)
//	-max-concurrent N   queries executing at once (default 8)
//	-queue N            admission wait-queue depth (default 16)
//	-max-body N         request body cap in bytes (default 1 MiB)
//	-max-sessions N     bound on the session-profile registry (default 4096)
//	-listen-repl ADDR   serve WAL-shipping replication to followers on ADDR
//	                    (requires -data: the log is the replication outbox)
//	-replicate-from A   run as a read-only follower of the primary at A
//	-max-lag N          follower: refuse reads with a narrated 503 once more
//	                    than N statements behind (0 = serve any staleness)
//
// # Replication & failover
//
// A durable primary ships every committed WAL record — the same CRC32C
// frames it fsyncs — to followers over TCP. Followers apply them through the
// crash-recovery replay path, publish one MVCC version per record, and serve
// the full read surface; DML gets a 403 that says to ask the primary.
// Replication is asynchronous with a bounded outbox, so a wedged follower
// never stalls a commit; followers reconnect with jittered backoff and
// resume from their applied sequence, and provable divergence (a sequence
// gap, a corrupt frame, a checkpoint behind the follower's state) latches a
// quarantine that keeps serving the last consistent snapshot while narrating
// why. A worked two-process session:
//
//	talkbackd -addr :8080 -data ./primary-data -listen-repl :9090 &
//	talkbackd -addr :8081 -replicate-from localhost:9090 -max-lag 100 &
//
//	# Writes go to the primary; the follower applies them from the log.
//	curl -s localhost:8080/ask -d '{"sql":"insert into MOVIES (id, title, year) values (999, '\''Replicated'\'', 2026)"}'
//	curl -s localhost:8081/ask -d '{"sql":"select m.title from MOVIES m where m.id = 999"}'
//
//	# The follower names its role and lag in EXPLAIN answers...
//	curl -s localhost:8081/explain -d '{"sql":"select m.title from MOVIES m"}'
//	#   → "... Answered by a follower at snapshot @78, fully caught up with
//	#      the primary."
//
//	# ...refuses writes in English...
//	curl -si localhost:8081/ask -d '{"sql":"delete from MOVIES"}'
//	#   → HTTP/1.1 403 Forbidden
//	#     "I am a read-only follower, so I cannot change data. Send writes to
//	#      the primary and they will reach me through its log."
//
//	# ...and reports the link under /stats → "replication": role, applied
//	# and primary sequences, lag, reconnects, and the catch-up narrative;
//	# the primary's side lists each follower with its acknowledged sequence.
//	curl -s localhost:8081/stats | jq .replication
//
// Failover is manual and honest about it: when the primary dies, followers
// keep answering reads at their last applied sequence (narrating how far
// behind they stand, or refusing with 503 past -max-lag) and reconnect with
// backoff until the primary returns. Promoting a follower means restarting
// it against the primary's -data directory.
//
// # Overload & cancellation
//
// Every query endpoint (/ask, /describe, /explain, /entity) runs under a
// request budget and an admission valve. The budget is the -deadline (and
// any client cancellation): execution loops poll it cooperatively at morsel
// boundaries, so a query that runs long is stopped mid-scan, its snapshot
// pin released, and the refusal narrated in English — the server talks back
// even when it says no. A cancelled DML statement either commits whole
// through the WAL or leaves no trace; it is never half-applied. The valve
// admits -max-concurrent queries with -queue more waiting: a request that
// finds both full is shed instantly with 429, one whose deadline fires while
// queued gets 504, and both carry a narrated "answer" explaining the load:
//
//	$ curl -si localhost:8080/ask -d '{"sql":"select * from MOVIES"}'
//	HTTP/1.1 429 Too Many Requests
//	Retry-After: 1
//	{
//	  "error": "server overloaded: request shed, admission queue full",
//	  "answer": "I turned this request away before running it — there are
//	             eight queries already running against a limit of 8, and the
//	             wait queue is full. Please retry in a moment."
//	}
//
// A query stopped mid-execution answers in the same voice, e.g. "I stopped
// this query after 2.0s — it ran past the request deadline — it had scanned
// 3.1 million of 12 million rows. Narrow the predicate or raise the deadline
// and ask again." GET /stats reports the valve under "admission".
//
// Durability: with -data, every DML statement is fsynced to the write-ahead
// log before /ask acknowledges it. The server shuts down gracefully on
// SIGINT/SIGTERM — in-flight requests drain, then the in-flight snapshot
// readers (queries never block on writers; they each pin an MVCC version),
// then a final checkpoint folds the log into the columnar segment so the
// next boot replays nothing.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	talkback "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/querytotext"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// server wraps one shared System plus the per-session profile registry and
// the request-shaping knobs: the admission valve, the per-request deadline,
// and the body/session caps.
type server struct {
	sys         *core.System
	adm         *core.Admission
	deadline    time.Duration
	maxBody     int64
	maxSessions int
	// repl is the replication role (primary or follower); nil standalone.
	repl *replication

	mu       sync.RWMutex
	sessions map[string]string // session id -> profile name
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	schema := flag.String("schema", "movie", "schema: movie or emp")
	scale := flag.Int("scale", 0, "serve a generated movie DB with this many movies (0 = curated)")
	dataDir := flag.String("data", "", "durable data directory (empty = in-memory only)")
	deadline := flag.Duration("deadline", 10*time.Second, "per-request execution deadline")
	maxConcurrent := flag.Int("max-concurrent", 8, "queries executing at once before requests queue")
	queueDepth := flag.Int("queue", 16, "admission wait-queue depth before requests shed")
	maxBody := flag.Int64("max-body", 1<<20, "request body cap in bytes")
	maxSessions := flag.Int("max-sessions", 4096, "bound on the session-profile registry")
	listenRepl := flag.String("listen-repl", "", "serve WAL-shipping replication to followers on this address (requires -data)")
	replicateFrom := flag.String("replicate-from", "", "run as a read-only follower of the primary at this address")
	maxLag := flag.Uint64("max-lag", 0, "follower: refuse reads with 503 when more than this many statements behind (0 = serve any lag)")
	flag.Parse()

	var sys *core.System
	var rp *replication
	var err error
	switch {
	case *replicateFrom != "":
		if *dataDir != "" || *listenRepl != "" {
			log.Fatalf("-replicate-from is exclusive with -data and -listen-repl: a follower's contents are the primary's log")
		}
		sys, rp, err = buildFollower(*schema, *replicateFrom, *maxLag)
		if err != nil {
			log.Fatalf("building follower: %v", err)
		}
		if waitConnected(rp.follower, 5*time.Second) {
			log.Printf("replicating from %s", *replicateFrom)
		} else {
			log.Printf("primary %s not reachable yet; retrying with backoff", *replicateFrom)
		}
	default:
		sys, err = buildSystem(*schema, *scale, *dataDir)
		if err != nil {
			log.Fatalf("building system: %v", err)
		}
		if *listenRepl != "" {
			rp, err = startPrimary(sys, *listenRepl)
			if err != nil {
				log.Fatalf("starting replication primary: %v", err)
			}
			log.Printf("shipping the log to followers on %s", rp.addr)
		}
	}

	s := &server{
		sys:         sys,
		adm:         core.NewAdmission(*maxConcurrent, *queueDepth),
		deadline:    *deadline,
		maxBody:     *maxBody,
		maxSessions: *maxSessions,
		repl:        rp,
		sessions:    make(map[string]string),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ask", s.guard(s.handleAsk))
	mux.HandleFunc("POST /describe", s.guard(s.handleDescribe))
	mux.HandleFunc("POST /explain", s.guard(s.handleExplain))
	mux.HandleFunc("GET /schema", s.handleSchema)
	mux.HandleFunc("GET /entity", s.guard(s.handleEntity))
	mux.HandleFunc("POST /session", s.handleSession)
	mux.HandleFunc("GET /stats", s.handleStats)

	srv := &http.Server{
		Addr:    *addr,
		Handler: recoverJSON(mux),
		// Slow or stalled clients must not pin connections forever.
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("talkbackd serving %s schema on %s", *schema, *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("serving: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting for drain

	log.Printf("shutting down: draining requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	// Replication closes between the HTTP drain and the reader drain: a
	// follower stops admitting records before readers are counted down, and a
	// primary detaches its commit sink and sender goroutines before the final
	// checkpoint rotates the log they read from.
	rp.close()
	// HTTP drain covers connections; this covers the snapshot readers inside
	// them. Only after every in-flight read has finished does the final
	// checkpoint run, so no query is abandoned mid-pipeline even if its
	// connection was already hijacked or timed out.
	sys.DrainReaders()
	if inFlight, completed, cancelled := sys.ReaderStats(); inFlight == 0 {
		log.Printf("snapshot readers drained (%d reads served, %d cancelled this run)", completed, cancelled)
	}
	if sys.Database().Durable() {
		if err := sys.Checkpoint(); err != nil {
			log.Printf("final checkpoint: %v", err)
		} else {
			log.Printf("final checkpoint written; the log is empty")
		}
		if err := sys.Database().CloseDurability(); err != nil {
			log.Printf("closing log: %v", err)
		}
	}
	log.Printf("talkbackd stopped")
}

// buildSystem assembles the System: in-memory (seeded) without dataDir;
// durable with it — recovering existing state, or seeding then adopting an
// empty directory.
func buildSystem(schema string, scale int, dataDir string) (*core.System, error) {
	var cfg core.Config
	switch schema {
	case "movie":
		cfg = core.MovieConfig()
	case "emp":
		cfg = core.EmpConfig()
	default:
		return nil, fmt.Errorf("unknown schema %q (want movie or emp)", schema)
	}

	seed := func() (*talkback.Database, error) {
		switch {
		case schema == "emp":
			return dataset.CuratedEmpDept()
		case scale > 0:
			gen := dataset.DefaultGenConfig()
			gen.Movies = scale
			gen.Actors = scale / 2
			return dataset.GenerateMovieDB(gen)
		default:
			return dataset.CuratedMovieDB()
		}
	}

	if dataDir == "" {
		db, err := seed()
		if err != nil {
			return nil, err
		}
		return core.New(db, cfg)
	}

	fs, err := wal.NewDirFS(dataDir)
	if err != nil {
		return nil, err
	}
	var db *talkback.Database
	if storage.HasDurableState(fs) {
		// Recover: the checkpoint and log are the contents; start from the
		// bare schema and let recovery fill it.
		sch := dataset.MovieSchema()
		if schema == "emp" {
			sch = dataset.EmpDeptSchema()
		}
		db, err = storage.NewDatabase(sch)
	} else {
		db, err = seed()
	}
	if err != nil {
		return nil, err
	}
	sys, report, err := core.NewDurable(db, fs, storage.DurableOptions{}, cfg)
	if err != nil {
		return nil, err
	}
	log.Printf("durable in %s: %s", dataDir, querytotext.RecoveryEnglish(report))
	return sys, nil
}

// recoverJSON is the panic-recovery middleware: a handler panic becomes a
// JSON 500 instead of a closed connection, and the server keeps serving.
func recoverJSON(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if err, ok := v.(error); ok && errors.Is(err, http.ErrAbortHandler) {
					panic(v)
				}
				log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				httpError(w, http.StatusInternalServerError,
					fmt.Errorf("internal error answering this request; the server is still up"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// guard wraps a query-serving handler with the request budget and the
// admission valve. The budget is the -deadline joined to the client's own
// cancellation (r.Context()), as a core.RequestContext: its timer is armed
// only when something waits on it, so a cache hit or a /describe never
// arms one. The valve sheds requests the server has no room for before they
// pin a snapshot or plan anything. Shed requests and queue-wait timeouts
// answer in English like everything else.
func (s *server) guard(h queryHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// A bounded-staleness follower sheds stale reads before admission:
		// the refusal is cheaper than a queue slot and narrated all the same.
		if s.refuseStale(w) {
			return
		}
		ctx := core.NewRequestContext(r.Context(), s.deadline)
		defer ctx.Cancel()
		if err := s.adm.Admit(ctx); err != nil {
			var ov *core.OverloadError
			if errors.As(err, &ov) {
				s.shed(w, ov)
				return
			}
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		defer s.adm.Release()
		h(ctx, w, r)
	}
}

// A queryHandler serves one request under guard's budget, ctx.
type queryHandler func(ctx context.Context, w http.ResponseWriter, r *http.Request)

// shed answers an admission refusal: 429 for an instant shed (queue full),
// 504 for a request whose deadline expired while queued. Both narrate the
// load in the same voice as query answers.
func (s *server) shed(w http.ResponseWriter, ov *core.OverloadError) {
	code := http.StatusTooManyRequests
	if ov.TimedOut {
		code = http.StatusGatewayTimeout
	} else {
		w.Header().Set("Retry-After", "1")
	}
	writeFields(w, code,
		"answer", querytotext.OverloadEnglish(ov.Running, ov.Waiting, ov.Limit, ov.Waited, ov.TimedOut),
		"error", ov.Error())
}

// queryError answers a failed query. Budget cancellations — deadline, client
// cancel, quota, WAL stall — get their own status codes and a narrated
// answer saying how far the query got; everything else stays a plain 400.
func (s *server) queryError(w http.ResponseWriter, err error) {
	if errors.Is(err, storage.ErrReadOnlyReplica) {
		// DML on a follower: a role violation, not a malformed query — 403
		// with the refusal narrated and the fix (ask the primary) named.
		writeFields(w, http.StatusForbidden,
			"answer", querytotext.ReadOnlyEnglish(),
			"error", err.Error())
		return
	}
	var ce *engine.CancelError
	if !errors.As(err, &ce) {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.adm.NoteCancelled()
	code := http.StatusGatewayTimeout
	switch ce.Cause {
	case engine.CauseRowQuota, engine.CauseMemQuota:
		code = http.StatusBadRequest
	case engine.CauseWALStall:
		code = http.StatusServiceUnavailable
	}
	writeFields(w, code,
		"answer", querytotext.CancelEnglish(ce),
		"error", err.Error())
}

// askRequest is the body of POST /ask and POST /describe. Query responses
// are not profile-sensitive, so there is no session field here; sessions
// personalize the narration endpoints (GET /entity).
type askRequest struct {
	SQL string `json:"sql"`
}

func (s *server) handleAsk(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody[askRequest](s, w, r)
	if !ok {
		return
	}
	resp, err := s.sys.AskContext(ctx, req.SQL)
	if err != nil {
		s.queryError(w, err)
		return
	}
	// A cached SELECT is encoded once, by the first request it answers; DML,
	// EXPLAIN and uncached answers are encoded per request and dropped with
	// their Response.
	writeBody(w, http.StatusOK, resp.Wire(encodeAsk))
}

func (s *server) handleDescribe(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody[askRequest](s, w, r)
	if !ok {
		return
	}
	tr, err := s.sys.DescribeQuery(req.SQL)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeBody(w, http.StatusOK, encodeTranslation(tr))
}

func (s *server) handleExplain(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody[askRequest](s, w, r)
	if !ok {
		return
	}
	diag, err := s.sys.ExplainPlanContext(ctx, req.SQL)
	if err != nil {
		s.queryError(w, err)
		return
	}
	writeJSON(w, map[string]any{
		"plan":    diag.Plan,
		"english": diag.Text,
	})
}

func (s *server) handleSchema(w http.ResponseWriter, r *http.Request) {
	sch := s.sys.Database().Schema()
	writeFields(w, http.StatusOK,
		"ddl", sch.String(),
		"name", sch.Name,
		"narrative", s.sys.DescribeSchema())
}

func (s *server) handleEntity(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	rel, attr, raw := q.Get("rel"), q.Get("attr"), q.Get("value")
	if rel == "" || attr == "" || raw == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("rel, attr, and value are required"))
		return
	}
	relation := s.sys.Database().Schema().Relation(rel)
	if relation == nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown relation %q", rel))
		return
	}
	a := relation.Attr(attr)
	if a == nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown attribute %s.%s", rel, attr))
		return
	}
	v, err := value.Parse(raw, value.CatalogKind(a.Type))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	text, err := s.sys.DescribeEntityAsContext(ctx, s.profileOf(q.Get("session")), rel, attr, v)
	if err != nil {
		s.queryError(w, err)
		return
	}
	writeFields(w, http.StatusOK, "narrative", text)
}

// sessionRequest is the body of POST /session.
type sessionRequest struct {
	Session string `json:"session"`
	Profile string `json:"profile"`
}

func (s *server) handleSession(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody[sessionRequest](s, w, r)
	if !ok {
		return
	}
	if strings.TrimSpace(req.Session) == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("session is required"))
		return
	}
	if req.Profile != "" && s.sys.Database().Schema().Profile(req.Profile) == nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown profile %q", req.Profile))
		return
	}
	s.mu.Lock()
	if req.Profile == "" {
		delete(s.sessions, req.Session)
	} else if _, known := s.sessions[req.Session]; !known && len(s.sessions) >= s.maxSessions {
		// The registry is a per-session map fed by unauthenticated input;
		// without a bound it is an open-ended memory leak.
		s.mu.Unlock()
		httpError(w, http.StatusTooManyRequests,
			fmt.Errorf("session registry is full (%d sessions); retire one before binding another", s.maxSessions))
		return
	} else {
		s.sessions[req.Session] = req.Profile
	}
	s.mu.Unlock()
	writeFields(w, http.StatusOK, "profile", req.Profile, "session", req.Session)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	ss := s.sys.Database().SnapshotStats()
	inFlight, completed, cancelled := s.sys.ReaderStats()
	as := s.adm.Stats()
	out := map[string]any{
		"caches": s.sys.CacheStats(),
		"tables": s.sys.Database().Stats(),
		// The overload valve: how many queries are running/queued right now
		// and how many the server has admitted, shed, timed out in the
		// queue, or stopped mid-execution since boot.
		"admission": map[string]any{
			"limit":     as.Limit,
			"queue":     as.Queue,
			"running":   as.Running,
			"in_queue":  as.Waiting,
			"admitted":  as.Admitted,
			"rejected":  as.Rejected,
			"timed_out": as.TimedOut,
			"cancelled": as.Cancelled,
		},
		// The MVCC shape: how much data sits in immutable sealed zones vs.
		// mutable tails, which version readers are pinning, how many
		// versions writers have published since boot, and how many bytes
		// writes after a publish copied to keep those versions intact.
		"snapshots": map[string]any{
			"seq":                ss.Seq,
			"published_versions": ss.Published,
			"tables":             ss.Tables,
			"sealed_zones":       ss.SealedZones,
			"tail_rows":          ss.TailRows,
			"rows":               ss.Rows,
			"cow_bytes":          ss.CopiedBytes,
			"readers_in_flight":  inFlight,
			"reads_completed":    completed,
			"reads_cancelled":    cancelled,
		},
		// Answers that went out without their empty/large-answer feedback
		// because it errored or its budget ran out.
		"feedback": map[string]any{
			"failed": s.sys.FeedbackFailures(),
		},
	}
	if s.repl != nil {
		// The replication role: a primary reports its outbox and per-follower
		// ack sequences; a follower reports its lag, reconnects, and — when
		// latched — the narrated quarantine.
		out["replication"] = s.repl.statsJSON()
	}
	if ds, ok := s.sys.DurabilityStats(); ok {
		durable := map[string]any{
			"batches":     ds.Batches,
			"ops":         ds.Ops,
			"syncs":       ds.Syncs,
			"checkpoints": ds.Checkpoints,
			"wal_bytes":   ds.WALBytes,
			"last_seq":    ds.LastSeq,
		}
		if ds.WriteError != "" {
			// The WAL has latched failed; every write is being rejected.
			// Operators watching /stats see it without grepping logs.
			durable["write_error"] = ds.WriteError
		}
		if ds.Recovery != nil {
			durable["recovery"] = map[string]any{
				"narrative":         querytotext.RecoveryEnglish(ds.Recovery),
				"clean":             ds.Recovery.Clean(),
				"checkpoint_rows":   ds.Recovery.CheckpointRows,
				"replayed_batches":  ds.Recovery.ReplayedBatches,
				"replayed_ops":      ds.Recovery.ReplayedOps,
				"lost_batches":      ds.Recovery.LostBatches,
				"quarantined_bytes": ds.Recovery.QuarantinedBytes,
				"tail_reason":       ds.Recovery.TailReason,
				"corrupt_file":      ds.Recovery.CorruptFile,
			}
		}
		out["durability"] = durable
	}
	writeJSON(w, out)
}

func (s *server) profileOf(session string) string {
	if session == "" {
		return ""
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[session]
}

// encodeJSON renders v as json.MarshalIndent does, with a trailing newline.
// Only /stats and /explain use it: their bodies are open maps and planner
// structs. Every other reply has a fixed shape and is written, to the same
// bytes, by the writer in wire.go; httpError's compact {"error": ...} is the
// one exception to both.
func encodeJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Printf("encoding response: %v", err)
		return nil
	}
	out := make([]byte, len(b)+1)
	copy(out, b)
	out[len(b)] = '\n'
	return out
}

func writeJSON(w http.ResponseWriter, v any) { writeBody(w, http.StatusOK, encodeJSON(v)) }

// writeFields sends a flat JSON object of string members (encodeFields).
func writeFields(w http.ResponseWriter, code int, kv ...string) {
	writeBody(w, code, encodeFields(kv...))
}

// jsonType is every reply's Content-Type, one value shared by all of them
// (net/http only reads it), so setting it allocates nothing.
var jsonType = []string{"application/json"}

// writeBody sends an encoded JSON reply.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(code)
	w.Write(body)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
