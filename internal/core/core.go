// Package core assembles the paper's primary contribution: a DBMS that
// "talks back". It wires the storage engine, schema graph, annotation sets,
// and the two translators (contents→text, queries→text) behind one System
// type, and adds the end-to-end behaviours the paper motivates: query
// verification before execution, narrated answers, empty/large-answer
// feedback, and a simulated spoken session.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/datatotext"
	"repro/internal/engine"
	"repro/internal/explain"
	"repro/internal/lexicon"
	"repro/internal/nlg"
	"repro/internal/planner"
	"repro/internal/querygraph"
	"repro/internal/querytotext"
	"repro/internal/schemagraph"
	"repro/internal/speech"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Config customizes a System.
type Config struct {
	// Verbs supplies the non-local verb labels for query translation.
	Verbs *querytotext.VerbSet
	// QueryOptions tunes query translation.
	QueryOptions querytotext.Options
	// DataOptions tunes content translation.
	DataOptions datatotext.Options
	// AnnotateGraph installs template labels on the schema graph; nil uses
	// derived defaults.
	AnnotateGraph func(*schemagraph.Graph) error
	// Relationships are the content-translation relationship annotations.
	Relationships []datatotext.Relationship
	// LargeThreshold is the row count beyond which answers are "large"
	// (default 100).
	LargeThreshold int
	// MaxNarratedRows caps answer narration (default 10).
	MaxNarratedRows int
	// CacheSize bounds each of the parse, translation and response caches
	// (entries; default 512).
	CacheSize int
	// DisableCache turns the query caches off entirely — every Ask
	// re-parses and re-translates. Differential tests use this to prove
	// cached and uncached responses are identical.
	DisableCache bool
	// MaxRowsScanned caps the rows one request may examine before it is
	// cancelled with a narrated quota error (0 = unbounded). Together with
	// the context passed to AskContext it forms the request budget.
	MaxRowsScanned int64
	// MaxBytesScanned caps the approximate bytes one request may
	// materialize into batches (0 = unbounded).
	MaxBytesScanned int64
}

// System is a database that talks back.
//
// Concurrency: a System is safe for concurrent use by many sessions. Reads
// (Ask with SELECTs, DescribeQuery, DescribeEntity, DescribeDatabase,
// DescribeSchema, QueryGraph) may run freely in parallel; schema and
// annotations are immutable after New, the engine's view registry and the
// schema's profile registry are lock-protected, and Profile swaps in a new
// content translator under a lock instead of mutating the shared one.
//
// Reads never wait on writers. Every read pins the storage layer's current
// MVCC snapshot on entry and runs the whole pipeline — planning, execution,
// narration, feedback — against that immutable version, so a long DML
// statement or checkpoint in another session cannot block it and can never
// change what it sees mid-query. DML submitted through Ask is serialized
// against other System DML by an internal writer lock; it no longer excludes
// readers.
type System struct {
	db      *storage.Database
	eng     *engine.Engine
	graph   *schemagraph.Graph
	queries *querytotext.Translator
	explain *explain.Explainer
	cfg     Config

	// mu guards data: Profile replaces the content translator with a
	// personalized clone rather than mutating the published one.
	mu   sync.RWMutex
	data *datatotext.Translator

	// execMu serializes DML applied via Ask against other System DML.
	// Readers do NOT take this lock: they pin an MVCC snapshot instead
	// (storage.Database.Snapshot) and execute against frozen tables, so a
	// long-running write never blocks a read. Writes that bypass the System
	// (direct engine or storage calls) are outside this lock and follow the
	// storage layer's writer contract.
	execMu sync.Mutex

	// readers counts in-flight snapshot reads; readsDone counts completed
	// ones and readsCancelled counts reads a budget stopped early.
	// DrainReaders waits on the former during graceful shutdown, and the
	// benchmark/stats surfaces report all three. Cancelled reads release
	// their pin through the same path as completed ones, so a storm of
	// cancellations can never wedge DrainReaders or a checkpoint.
	readers        atomic.Int64
	readsDone      atomic.Uint64
	readsCancelled atomic.Uint64
	// feedbackFailed counts answers whose feedback errored or was cancelled
	// (see FeedbackFailures).
	feedbackFailed atomic.Uint64

	// Caches keyed on normalized SQL. Cached values are shared across
	// sessions and treated as immutable: the engine never mutates an AST,
	// and callers must not mutate a returned Translation or Response.
	parseCache *cache.Cache[sqlparser.Statement]
	transCache *cache.Cache[*querytotext.Translation]

	// respCache holds full SELECT Responses keyed on (snapshot seq, data
	// generation, normalized SQL). The snapshot seq advances on every
	// committed write the storage layer publishes — seqs only grow, so an
	// entry recorded under one version can never be served for another. The
	// generation guards the residue the seq cannot see (view definitions,
	// out-of-band mutations): DML through Ask bumps it, and writes that
	// bypass Ask (direct engine or storage calls) must call
	// InvalidateResults.
	respCache *cache.Cache[*Response]
	dataGen   atomic.Int64

	// replica holds the replication-status provider a follower process
	// registers via SetReplica; nil on a standalone node or primary.
	replica atomic.Pointer[func() ReplicaStatus]
}

// New assembles a System over db.
func New(db *storage.Database, cfg Config) (*System, error) {
	if cfg.LargeThreshold <= 0 {
		cfg.LargeThreshold = 100
	}
	if cfg.MaxNarratedRows <= 0 {
		cfg.MaxNarratedRows = 10
	}
	g, err := schemagraph.Build(db.Schema())
	if err != nil {
		return nil, err
	}
	if cfg.AnnotateGraph != nil {
		if err := cfg.AnnotateGraph(g); err != nil {
			return nil, err
		}
	}
	g.DefaultAnnotations()
	eng := engine.New(db)
	dataTr := datatotext.New(eng, g, cfg.DataOptions)
	for _, r := range cfg.Relationships {
		if err := dataTr.AddRelationship(r); err != nil {
			return nil, err
		}
	}
	queryTr := querytotext.New(db.Schema(), cfg.Verbs, cfg.QueryOptions)
	sys := &System{
		db: db, eng: eng, graph: g,
		data: dataTr, queries: queryTr,
		explain: explain.New(eng, queryTr),
		cfg:     cfg,
	}
	if !cfg.DisableCache {
		sys.parseCache = cache.New[sqlparser.Statement](cfg.CacheSize)
		sys.transCache = cache.New[*querytotext.Translation](cfg.CacheSize)
		sys.respCache = cache.New[*Response](cfg.CacheSize)
	}
	return sys, nil
}

// NewMovieSystem builds a System over the curated Fig. 1 movie database
// with the paper's annotation sets installed.
func NewMovieSystem() (*System, error) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		return nil, err
	}
	return New(db, MovieConfig())
}

// MovieConfig returns the standard configuration for movie-schema
// databases (curated or generated).
func MovieConfig() Config {
	return Config{
		Verbs:         querytotext.MovieVerbs(),
		QueryOptions:  querytotext.Options{Elaborate: true},
		DataOptions:   datatotext.Options{Style: nlg.Compact},
		AnnotateGraph: datatotext.AnnotateMovieGraph,
		Relationships: datatotext.MovieRelationships(),
	}
}

// NewEmpSystem builds a System over the curated EMP/DEPT database from
// §3.1.
func NewEmpSystem() (*System, error) {
	db, err := dataset.CuratedEmpDept()
	if err != nil {
		return nil, err
	}
	return New(db, EmpConfig())
}

// EmpConfig returns the standard configuration for EMP/DEPT-schema
// databases.
func EmpConfig() Config {
	return Config{
		Verbs:        querytotext.EmpVerbs(),
		QueryOptions: querytotext.Options{},
		DataOptions:  datatotext.Options{Style: nlg.Compact},
	}
}

// Database exposes the storage layer.
func (s *System) Database() *storage.Database { return s.db }

// Engine exposes the execution engine.
func (s *System) Engine() *engine.Engine { return s.eng }

// SchemaGraph exposes the annotated schema graph.
func (s *System) SchemaGraph() *schemagraph.Graph { return s.graph }

// DataTranslator exposes the content translator.
func (s *System) DataTranslator() *datatotext.Translator {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data
}

// QueryTranslator exposes the query translator.
func (s *System) QueryTranslator() *querytotext.Translator { return s.queries }

// Explainer exposes the feedback subsystem.
func (s *System) Explainer() *explain.Explainer { return s.explain }

// ---------------------------------------------------------------------------
// Talk-back operations
// ---------------------------------------------------------------------------

// parseCached parses sql through the AST cache. The returned statement is
// shared across sessions and must be treated as read-only.
func (s *System) parseCached(sql string) (sqlparser.Statement, string, error) {
	key := cache.NormalizeSQL(sql)
	stmt, err := s.parseCachedKey(key, sql)
	return stmt, key, err
}

// parseCachedKey is parseCached for callers that already normalized sql.
func (s *System) parseCachedKey(key, sql string) (sqlparser.Statement, error) {
	if s.parseCache != nil {
		if stmt, ok := s.parseCache.Get(key); ok {
			return stmt, nil
		}
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if s.parseCache != nil {
		s.parseCache.Put(key, stmt)
	}
	return stmt, nil
}

// translateCached translates a parsed statement through the translation
// cache; key is the normalized SQL from parseCached.
func (s *System) translateCached(key string, stmt sqlparser.Statement) (*querytotext.Translation, error) {
	if s.transCache != nil {
		if tr, ok := s.transCache.Get(key); ok {
			return tr, nil
		}
	}
	tr, err := s.queries.TranslateStatement(stmt)
	if err != nil {
		return nil, err
	}
	if s.transCache != nil {
		s.transCache.Put(key, tr)
	}
	return tr, nil
}

// DescribeQuery translates a SQL statement into natural language without
// executing it — the paper's verification use case ("it may be nice for the
// user to see it expressed in the most familiar way ... before the query is
// sent for execution"). The returned Translation may be served from the
// cache and shared; callers must not mutate it.
func (s *System) DescribeQuery(sql string) (*querytotext.Translation, error) {
	stmt, key, err := s.parseCached(sql)
	if err != nil {
		return nil, err
	}
	return s.translateCached(key, stmt)
}

// QueryGraph builds the Fig. 2-style query graph of a SELECT, each call
// anew; the statement itself comes through the parse cache.
func (s *System) QueryGraph(sql string) (*querygraph.Graph, error) {
	stmt, _, err := s.parseCached(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("core: query graphs require a SELECT statement")
	}
	return querygraph.Build(sel, s.db.Schema())
}

// CacheStats reports hit/miss/eviction counters for the parse, translation,
// and response caches; empty when caching is disabled.
func (s *System) CacheStats() map[string]cache.Stats {
	out := make(map[string]cache.Stats, 3)
	if s.parseCache != nil {
		out["parse"] = s.parseCache.Stats()
	}
	if s.transCache != nil {
		out["translation"] = s.transCache.Stats()
	}
	if s.respCache != nil {
		out["response"] = s.respCache.Stats()
	}
	return out
}

// Response is a full talk-back interaction. A SELECT's Response may be shared
// through the response cache, together with the encoded reply it carries
// (Wire); callers must not mutate it.
type Response struct {
	// Verification is the NL rendering of the query, shown before results.
	Verification *querytotext.Translation
	// Result is the executed answer (nil for DML).
	Result *engine.Result
	// Affected counts DML rows.
	Affected int
	// Answer narrates the result in natural language.
	Answer string
	// Feedback carries empty-answer diagnosis or large-answer explanation,
	// when applicable.
	Feedback string
	// Plan records the executed query plan (nil for DML). Cached responses
	// keep it, so a served answer always says which plan produced it.
	Plan *planner.Summary

	// wire is the reply encoded by the first Wire call. It lives and dies
	// with the Response, so a cached answer's bytes are dropped with its
	// cache entry and never outlive the snapshot they describe.
	wire atomic.Pointer[[]byte]
}

// Wire returns r encoded for the wire: the bytes an earlier call stored, or
// encode(r), stored for the next call. A Response served from the response
// cache is encoded once however many requests it answers. The memo is meant
// for one reply format (talkbackd's /ask body), and its contract is the
// caller's to keep:
//   - every caller passes the same encoder, a pure function of r: the memo
//     does not record which encoder filled it, so a different one gets the
//     first one's bytes. Two racing first calls may both encode; either
//     result is kept.
//   - a Response is never copied (go vet's copylocks reports copies): a copy
//     carries the stored bytes, which no longer describe it once a field of
//     the copy changes.
func (r *Response) Wire(encode func(*Response) []byte) []byte {
	if b := r.wire.Load(); b != nil {
		return *b
	}
	b := encode(r)
	r.wire.Store(&b)
	return b
}

// Ask runs the complete loop: translate, execute, narrate the answer, and
// attach feedback for empty or very large answers. EXPLAIN PLAN statements
// run the query and narrate the executed plan instead of the rows. Ask has
// no deadline; AskContext is the bounded form.
func (s *System) Ask(sql string) (*Response, error) {
	return s.AskContext(context.Background(), sql)
}

// AskContext is Ask bounded by a request budget: ctx's deadline and
// cancellation, plus the Config row/byte quotas, are polled cooperatively at
// morsel boundaries throughout planning and execution. A tripped budget
// surfaces as an *engine.CancelError carrying how far the query got; DML it
// stops either commits whole through the WAL or leaves no trace. A context
// that can never fire and zero quotas make AskContext byte-identical to Ask.
func (s *System) AskContext(ctx context.Context, sql string) (resp *Response, err error) {
	// Requests already abandoned by their caller are refused before pinning
	// a snapshot or touching any cache.
	if ctx.Err() != nil {
		return nil, engine.NewBudget(ctx, s.cfg.MaxRowsScanned, s.cfg.MaxBytesScanned).Step(0)
	}
	// Pin the MVCC version first: everything below — the response cache
	// key, planning, execution, narration, feedback — is answered from
	// this one immutable snapshot, no matter how many writers commit while
	// the question is being handled.
	snap := s.db.Snapshot()
	pinPub := s.db.Published()

	// Full-response fast path: repeated SELECTs over unchanged data are
	// answered straight from the cache, before even parsing. Only SELECT
	// responses are ever stored, so a hit cannot replay side effects. The
	// key carries the snapshot seq and the data generation, so any
	// committed write makes every older entry unreachable — and since
	// table statistics (hence plan choice) only change with the data, the
	// key also pins the plan: a cached Response can never be served under
	// a different plan than the one recorded in its Plan field. The
	// returned Response is shared, and so is the reply its Wire method
	// stores; callers must not mutate either.
	key := cache.NormalizeSQL(sql)
	var respKey string
	if s.respCache != nil {
		respKey = responseKey(snap.Seq(), s.dataGen.Load(), key)
		if cached, ok := s.respCache.Get(respKey); ok {
			return cached, nil
		}
	}
	// The budget is built past the hit path: building it calls ctx.Done,
	// which arms a RequestContext's timer, and a hit waits on nothing.
	bud := engine.NewBudget(ctx, s.cfg.MaxRowsScanned, s.cfg.MaxBytesScanned)

	stmt, err := s.parseCachedKey(key, sql)
	if err != nil {
		return nil, err
	}
	sel, isSelect := stmt.(*sqlparser.SelectStmt)

	verification, err := s.translateCached(key, stmt)
	if err != nil {
		return nil, err
	}
	resp = &Response{Verification: verification}

	if exp, isExplain := stmt.(*sqlparser.ExplainStmt); isExplain {
		done := s.beginRead()
		diag, err := s.explainerAt(snap, bud).ExplainPlan(exp.Query)
		done(engine.IsCancel(err))
		if err != nil {
			return nil, err
		}
		resp.Plan = diag.Plan
		resp.Answer = diag.Text + " " + s.snapshotNarration(snap, pinPub)
		return resp, nil
	}

	if !isSelect {
		s.execMu.Lock()
		_, n, err := s.eng.WithBudget(bud).ExecStatement(stmt)
		s.execMu.Unlock()
		// Invalidate even on error: DML can partially apply before failing
		// (e.g. a multi-row insert hitting a duplicate key), and cached
		// SELECTs must not outlive the rows that did land.
		s.InvalidateResults()
		if err != nil {
			return nil, bud.WrapWALStall(err)
		}
		resp.Affected = n
		resp.Answer = lexicon.Sentence(fmt.Sprintf("Done; %s affected", lexicon.CountNoun(n, "row")))
		return resp, nil
	}

	done := s.beginRead()
	defer func() { done(engine.IsCancel(err)) }()
	eng := s.eng.At(snap).WithBudget(bud)
	res, plan, err := eng.SelectExplained(sel)
	if err != nil {
		return nil, err
	}
	resp.Result = res
	resp.Plan = plan.Summarize()
	resp.Answer = s.NarrateResult(res)

	// Feedback reads the answer and its plan, and its probes re-execute
	// predicate subsets; running them on the same pinned snapshot
	// guarantees the diagnosis describes the version the answer came from,
	// not whatever a concurrent writer left behind.
	var feedErr error
	switch {
	case len(res.Rows) == 0:
		var diag *explain.EmptyDiagnosis
		if diag, feedErr = explain.New(eng, s.queries).ExplainEmptyAnswer(sel, res); feedErr == nil {
			resp.Feedback = diag.Text
		}
	case len(res.Rows) > s.cfg.LargeThreshold:
		var diag *explain.LargeDiagnosis
		if diag, feedErr = explain.New(eng, s.queries).ExplainLargeAnswer(sel, res, plan, s.cfg.LargeThreshold); feedErr == nil {
			resp.Feedback = diag.Text
		}
	}
	if feedErr != nil {
		// The answer stands without its feedback. The failure is counted, and
		// a budget that stopped the feedback says so; the response is not
		// cached, so the next ask tries the feedback again.
		s.feedbackFailed.Add(1)
		var ce *engine.CancelError
		if errors.As(feedErr, &ce) {
			resp.Feedback = lexicon.Sentence("I could not finish the feedback on this answer") + " " + querytotext.CancelEnglish(ce)
		}
		return resp, nil
	}
	if s.respCache != nil {
		s.respCache.Put(respKey, resp)
	}
	return resp, nil
}

// responseKey is the response cache's key, "seq|gen|key", built without
// fmt (which boxes each number above 255): one allocation, the string.
func responseKey(seq uint64, gen int64, key string) string {
	var buf [42]byte // two 20-digit numbers and two separators
	b := strconv.AppendUint(buf[:0], seq, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, gen, 10)
	b = append(b, '|')
	return string(b) + key
}

// FeedbackFailures counts the empty- or large-answer feedbacks that errored
// or were cancelled since the System started: answers that went out without
// the diagnosis they would otherwise carry.
func (s *System) FeedbackFailures() uint64 { return s.feedbackFailed.Load() }

// ExplainPlan plans and executes sql, returning the executed plan with its
// English narration and optimization tips — the backbone of the /explain
// endpoint. sql may be a SELECT or an EXPLAIN [PLAN] SELECT.
func (s *System) ExplainPlan(sql string) (*explain.PlanDiagnosis, error) {
	return s.ExplainPlanContext(context.Background(), sql)
}

// ExplainPlanContext is ExplainPlan bounded by the same request budget as
// AskContext: the explain's probe executions poll ctx and the Config quotas
// at morsel boundaries.
func (s *System) ExplainPlanContext(ctx context.Context, sql string) (diag *explain.PlanDiagnosis, err error) {
	bud := engine.NewBudget(ctx, s.cfg.MaxRowsScanned, s.cfg.MaxBytesScanned)
	if err := bud.Step(0); err != nil {
		return nil, err
	}
	stmt, _, err := s.parseCached(sql)
	if err != nil {
		return nil, err
	}
	var sel *sqlparser.SelectStmt
	switch t := stmt.(type) {
	case *sqlparser.SelectStmt:
		sel = t
	case *sqlparser.ExplainStmt:
		sel = t.Query
	default:
		return nil, fmt.Errorf("core: EXPLAIN requires a SELECT statement")
	}
	snap := s.db.Snapshot()
	pinPub := s.db.Published()
	done := s.beginRead()
	defer func() { done(engine.IsCancel(err)) }()
	diag, err = s.explainerAt(snap, bud).ExplainPlan(sel)
	if err != nil {
		return nil, err
	}
	diag.Text += " " + s.snapshotNarration(snap, pinPub)
	return diag, nil
}

// explainerAt builds a transient explainer bound to the pinned snapshot and
// request budget, so its probe re-executions see exactly the version the
// answer came from and stop when the request does.
func (s *System) explainerAt(snap *storage.Snapshot, bud *engine.Budget) *explain.Explainer {
	return explain.New(s.eng.At(snap).WithBudget(bud), s.queries)
}

// snapshotNarration is the postscript the MVCC layer earns in EXPLAIN
// output: it names the pinned version and how many writers committed while
// the query ran — concurrency the reader never felt.
func (s *System) snapshotNarration(snap *storage.Snapshot, publishedAtPin uint64) string {
	if rs, ok := s.ReplicaStatus(); ok && rs.Follower {
		return replicaNarration(rs, snap.Seq())
	}
	committed := s.db.Published() - publishedAtPin
	if committed == 0 {
		return fmt.Sprintf("Answered from snapshot @%d.", snap.Seq())
	}
	return fmt.Sprintf("Answered from snapshot @%d while %s committed without blocking this read.",
		snap.Seq(), lexicon.CountNoun(int(committed), "writer"))
}

// beginRead registers an in-flight snapshot read and returns its completion
// func; cancelled reports whether a budget stopped the read early. Reads run
// without any System-level lock; this counter only exists so DrainReaders
// can hand a quiescent database to the final checkpoint and so the stats
// surfaces can report reader traffic — and distinguish reads that finished
// from reads the deadline killed.
func (s *System) beginRead() func(cancelled bool) {
	s.readers.Add(1)
	return func(cancelled bool) {
		s.readers.Add(-1)
		if cancelled {
			s.readsCancelled.Add(1)
		} else {
			s.readsDone.Add(1)
		}
	}
}

// ReaderStats reports in-flight, completed, and budget-cancelled snapshot
// reads.
func (s *System) ReaderStats() (inFlight int64, completed, cancelled uint64) {
	return s.readers.Load(), s.readsDone.Load(), s.readsCancelled.Load()
}

// DrainReaders blocks until every in-flight snapshot read has completed.
// Graceful shutdown calls it after the listener stops accepting work and
// before the final checkpoint, so no reader is abandoned mid-pipeline. Reads
// pin immutable snapshots, so the wait is bounded by query runtime — nothing
// a writer or the checkpoint does can wedge it.
func (s *System) DrainReaders() {
	for s.readers.Load() > 0 {
		time.Sleep(200 * time.Microsecond)
	}
}

// InvalidateResults discards all cached SELECT responses. Ask does this
// automatically for DML it executes; callers that mutate data behind the
// System's back (direct engine Exec, storage Insert/InsertRows/Update/
// Delete) must call it themselves. The generation bump makes stale entries
// unreachable immediately — including Puts from SELECTs still in flight,
// which land under the old generation — and the Clear releases their
// memory rather than waiting for LRU pressure.
func (s *System) InvalidateResults() {
	s.dataGen.Add(1)
	if s.respCache != nil {
		s.respCache.Clear()
	}
}

// NarrateResult renders a query answer as text (§2.1: "Whatever holds for
// whole databases, of course, holds for query answers as well").
func (s *System) NarrateResult(res *engine.Result) string {
	if len(res.Rows) == 0 {
		return "There are no results."
	}
	max := s.cfg.MaxNarratedRows
	rows := res.Rows
	truncated := 0
	if len(rows) > max {
		truncated = len(rows) - max
		rows = rows[:max]
	}
	var text string
	switch {
	case len(res.Columns) == 1 && len(rows) == 1:
		text = lexicon.Sentence("The answer is " + rows[0][0].Prose())
	case len(res.Columns) == 1:
		items := make([]string, len(rows))
		for i, r := range rows {
			items[i] = r[0].Prose()
		}
		text = lexicon.Sentence(fmt.Sprintf("There are %s: %s",
			lexicon.CountNoun(len(res.Rows), "answer"), lexicon.JoinAnd(items)))
	default:
		names := make([]string, len(res.Columns))
		for ci, c := range res.Columns {
			names[ci] = lexicon.Humanize(c)
		}
		var sentences []string
		for _, r := range rows {
			fields := make([]string, 0, len(r))
			for ci, v := range r {
				if v.IsNull() {
					continue
				}
				fields = append(fields, names[ci]+" "+v.Prose())
			}
			sentences = append(sentences, lexicon.Sentence("One result has "+lexicon.JoinAnd(fields)))
		}
		text = nlg.Paragraph(sentences...)
	}
	if truncated > 0 {
		text += " " + lexicon.Sentence(fmt.Sprintf("%s more omitted", lexicon.NumberWord(truncated)))
	}
	return text
}

// DescribeEntity narrates one entity (the Woody Allen narrative). The
// narration reads a pinned snapshot, so a concurrent writer can neither
// block it nor change the entity mid-sentence.
func (s *System) DescribeEntity(rel, attr string, val value.Value) (string, error) {
	return s.DescribeEntityAs("", rel, attr, val)
}

// DescribeDatabase narrates the database from a starting relation, reading
// one pinned snapshot throughout.
func (s *System) DescribeDatabase(start string) (string, error) {
	return s.DescribeDatabaseAs("", start)
}

// narrate runs one content narration under the named profile ("" means the
// system default, resolved without touching shared state): the translator
// reads one pinned snapshot through the system's engine, bounded by the same
// request budget as AskContext, so a tripped budget surfaces as an
// *engine.CancelError and never as a partial paragraph.
func (s *System) narrate(ctx context.Context, profile string, describe func(*datatotext.Translator) (string, error)) (text string, err error) {
	bud := engine.NewBudget(ctx, s.cfg.MaxRowsScanned, s.cfg.MaxBytesScanned)
	if err := bud.Step(0); err != nil {
		return "", err
	}
	tr := s.DataTranslator()
	if profile != "" {
		p := s.db.Schema().Profile(profile)
		if p == nil {
			return "", fmt.Errorf("core: unknown profile %q", profile)
		}
		opts := tr.Options()
		opts.Profile = p
		tr = tr.WithOptions(opts)
	}
	done := s.beginRead()
	defer func() { done(engine.IsCancel(err)) }()
	return describe(tr.WithSource(s.db.Snapshot()).WithBudget(bud))
}

// DescribeEntityAs narrates one entity under the named profile without
// changing the system-wide default — the per-session personalization path
// (§2.2). An empty profile name uses the default translator.
func (s *System) DescribeEntityAs(profile, rel, attr string, val value.Value) (string, error) {
	return s.DescribeEntityAsContext(context.Background(), profile, rel, attr, val)
}

// DescribeEntityAsContext is DescribeEntityAs bounded by the request budget
// (see narrate).
func (s *System) DescribeEntityAsContext(ctx context.Context, profile, rel, attr string, val value.Value) (string, error) {
	return s.narrate(ctx, profile, func(tr *datatotext.Translator) (string, error) {
		return tr.DescribeEntity(rel, attr, val)
	})
}

// DescribeDatabaseAs narrates the database under the named profile without
// changing the system-wide default.
func (s *System) DescribeDatabaseAs(profile, start string) (string, error) {
	return s.DescribeDatabaseAsContext(context.Background(), profile, start)
}

// DescribeDatabaseAsContext is DescribeDatabaseAs bounded by the request
// budget (see narrate).
func (s *System) DescribeDatabaseAsContext(ctx context.Context, profile, start string) (string, error) {
	return s.narrate(ctx, profile, func(tr *datatotext.Translator) (string, error) {
		return tr.DescribeDatabase(start)
	})
}

// DescribeSchema narrates the schema itself (§2.1: "describing the schema
// itself ... is just a special case of a database description").
func (s *System) DescribeSchema() string {
	var sentences []string
	for _, n := range s.graph.Nodes() {
		rel := n.Rel
		if rel.Bridge {
			continue
		}
		attrs := make([]string, 0, len(rel.Attributes))
		for _, a := range rel.Attributes {
			attrs = append(attrs, lexicon.Humanize(a.Name))
		}
		sentence := fmt.Sprintf("Each %s has %s", rel.Concept(), lexicon.JoinAnd(attrs))
		var related []string
		for _, j := range n.Joins {
			if j.To.Rel.Bridge {
				// Look through the bridge to its other end.
				for _, j2 := range j.To.Joins {
					if j2.To != n {
						related = append(related, lexicon.Pluralize(j2.To.Rel.Concept()))
					}
				}
				continue
			}
			related = append(related, lexicon.Pluralize(j.To.Rel.Concept()))
		}
		if len(related) > 0 {
			sentence += " and relates to " + lexicon.JoinAnd(dedupe(related))
		}
		sentences = append(sentences, lexicon.Sentence(sentence))
	}
	return nlg.Paragraph(sentences...)
}

// DescribeStatistics narrates the database's size profile — the paper's
// §2.1 observation that "database samples, histograms, data distribution
// approximations are all, in some sense, small databases and can be
// summarized textually".
func (s *System) DescribeStatistics() string {
	done := s.beginRead()
	defer done(false)
	snap := s.db.Snapshot()
	stats := snap.Stats()
	var sentences []string
	var parts []string
	for _, n := range s.graph.Nodes() {
		rel := n.Rel
		if rel.Bridge {
			continue
		}
		count := stats[rel.Name]
		parts = append(parts, lexicon.CountNoun(count, rel.Concept()))
	}
	sentences = append(sentences, lexicon.Sentence("The database holds "+lexicon.JoinAnd(parts)))
	// One distribution note per relation with a heading attribute.
	for _, n := range s.graph.Nodes() {
		rel := n.Rel
		if rel.Bridge || stats[rel.Name] == 0 {
			continue
		}
		h := rel.Heading()
		if h == nil {
			continue
		}
		distinct, err := snap.DistinctCount(rel.Name, h.Name)
		if err != nil || distinct == stats[rel.Name] {
			continue
		}
		sentences = append(sentences, lexicon.Sentence(fmt.Sprintf(
			"the %d %s share %s distinct %s values",
			stats[rel.Name], lexicon.Pluralize(rel.Concept()),
			lexicon.NumberWord(distinct), lexicon.Humanize(h.Name))))
	}
	return nlg.Paragraph(sentences...)
}

func dedupe(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Spoken sessions (§2.1)
// ---------------------------------------------------------------------------

// VoiceSession couples the recognizer and synthesizer simulators with the
// full talk-back loop.
type VoiceSession struct {
	sys   *System
	rec   *speech.Recognizer
	synth *speech.Synthesizer
}

// NewVoiceSession builds a session with the given grammar.
func (s *System) NewVoiceSession(grammar []speech.Pattern) *VoiceSession {
	return &VoiceSession{
		sys:   s,
		rec:   speech.NewRecognizer(grammar),
		synth: speech.NewSynthesizer(),
	}
}

// VoiceTurn is one spoken interaction.
type VoiceTurn struct {
	// Utterance is the user's spoken question.
	Utterance string
	// SQL is the recognized query.
	SQL string
	// Verification is the NL echo of the query ("I understood: ...").
	Verification string
	// Answer is the narrated result.
	Answer string
	// Events is the synthesized speech stream of the answer.
	Events []speech.Event
}

// Ask runs one spoken turn.
func (v *VoiceSession) Ask(utterance string) (*VoiceTurn, error) {
	rec, err := v.rec.Recognize(utterance)
	if err != nil {
		return nil, err
	}
	resp, err := v.sys.Ask(rec.SQL)
	if err != nil {
		return nil, err
	}
	answer := resp.Answer
	if resp.Feedback != "" {
		answer += " " + resp.Feedback
	}
	return &VoiceTurn{
		Utterance:    utterance,
		SQL:          strings.TrimSpace(rec.SQL),
		Verification: resp.Verification.Text,
		Answer:       answer,
		Events:       v.synth.Speak(answer),
	}, nil
}

// Profile applies a personalization profile to content translation (§2.2)
// as the new system-wide default. It swaps in a personalized clone of the
// content translator under a lock, so concurrent describes keep using a
// consistent translator throughout their call. Per-session personalization
// should use DescribeEntityAs / DescribeDatabaseAs instead.
func (s *System) Profile(name string) error {
	p := s.db.Schema().Profile(name)
	if p == nil {
		return fmt.Errorf("core: unknown profile %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	opts := s.data.Options()
	opts.Profile = p
	s.data = s.data.WithOptions(opts)
	return nil
}

// RegisterProfile adds a personalization profile. Safe for concurrent use.
func (s *System) RegisterProfile(p *catalog.Profile) error {
	return s.db.Schema().AddProfile(p)
}
