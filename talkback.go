// Package talkback is the public API of the reproduction of "DBMSs Should
// Talk Back Too" (Ioannidis & Simitsis, CIDR 2009): a database system that
// translates its own contents and the queries posed to it into natural
// language.
//
// The package re-exports the assembled system from internal/core plus the
// handful of types a caller needs to configure it. A minimal session:
//
//	sys, err := talkback.NewMovieSystem()
//	if err != nil { ... }
//	resp, err := sys.Ask("select m.title from MOVIES m, CAST c, ACTOR a " +
//	    "where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'")
//	fmt.Println(resp.Verification.Text) // "Find movies where Brad Pitt plays."
//	fmt.Println(resp.Answer)            // narrated answer
//
// The main entry points:
//
//   - NewMovieSystem / NewEmpSystem build Systems over the paper's two
//     example schemas with their annotation sets installed.
//   - New builds a System over any catalog schema + database.
//   - System.DescribeQuery translates SQL to English without executing it.
//   - System.Ask runs the full loop: verify, execute, narrate, and attach
//     empty/large-answer feedback.
//   - System.DescribeEntity / DescribeDatabase / DescribeSchema narrate
//     contents (§2 of the paper).
//   - System.NewVoiceSession wires the simulated spoken loop (§2.1).
//   - System.ExplainPlan (and the `EXPLAIN PLAN <select>` statement through
//     Ask) executes a query and narrates its cost-based plan in English.
//
// # Storage layout
//
// internal/storage is columnar: a table holds one typed vector per
// attribute — []int64 for INT, []float64 for FLOAT, dictionary-encoded TEXT
// as []uint32 codes into a per-column string dictionary, DATE as epoch-day
// []int64, []bool for BOOL — each with a packed null bitmap. The row-shaped
// API (Tuple, Tuples, LookupPK) is a
// compatibility surface that materializes tuples on demand. The query
// pipeline reads the vectors directly: arena rows fill via CopyRow, simple
// filters vectorize into typed comparisons on the column payloads (text
// equality compares dictionary codes; LIKE and text ordering precompute one
// verdict per dictionary entry), and the scan hands on row positions, so a
// single-table query materializes each row once, in its exactly-sized
// result. Values themselves are small — value.Value is 40 bytes,
// storing dates as epoch days and booleans in the integer payload — and the
// composite-key encoding every hash structure is built on is byte-for-byte
// stable across the layout change.
//
// Every column additionally keeps a zone map: per 4096-row range (the unit
// at which scans poll their budget), the null count, typed min/max bounds,
// and NaN presence for floats — maintained per row: an arriving value (an
// inserted row, an UPDATE's new value, a row a DELETE slides into the zone)
// widens the bounds, and a leaving one adjusts the null count and marks its
// zone for a rescan only when it sat on a bound or was NaN, so a write pays
// for the rows it touches. Two lightweight encodings ride on the same
// maintenance pass:
// Int/Date columns whose per-zone spans fit a byte carry frame-of-reference
// deltas (a per-zone base plus one uint8 per row, so range predicates stream
// an eighth of the bytes), and a text column opted in via EnableSortedDict
// keeps its dictionary's code<->rank tables in string sort order, turning
// text ordering and LIKE-prefix predicates into integer rank-range compares
// instead of per-dictionary-entry verdict loops. Ranks rebuild lazily on the
// first ranked read after the vocabulary changes, never per statement, so
// bulk loads stay linear.
//
// # The write path
//
// An UPDATE or DELETE costs the rows it matches plus the rows it moves. Its
// WHERE resolves to ascending row positions before any row mutates, through
// the plan SELECT * FROM rel WHERE ... would get against the live table, run
// for the scan's row positions alone: a primary-key probe for `where id = 42`,
// otherwise the scan a SELECT runs (vectorized filter prefix with zone
// skipping, compiled residual filters, compiled subquery predicates), polling
// the request budget where a SELECT does — so a WHERE error or a budget trip
// leaves no trace.
// Every WHERE runs a plan; a column the planner cannot resolve is evaluated
// row by row where the plan reaches it, and raises its error there. UPDATE's
// SET expressions compile once over the same single-table plan and evaluate
// once per matched row into one run of values per set attribute. Storage
// then applies by position (Database.UpdateAt, DeleteAt; the predicate forms
// Update and Delete are a scan for positions in front of the same code, and
// WAL replay calls the positional forms with the positions it logged). An
// UPDATE checks its rows before it writes them, then writes a column at a
// time: it copies each touched chunk once when a published snapshot still
// shares it, rewrites only changed values and their distinct counts, patches
// the primary key only when it changed (not at all for a non-key update),
// rescans only the zones whose bounds a replaced value held, and logs only
// the set columns. A DELETE slides the rows
// behind the first removed one down as blocks, copies the primary key's page
// headers once — frozen snapshot views share them — and re-points only the
// removed and the moved rows. The
// primary key is a flat, pointer-free slot table of row positions (each slot
// the key's hash and a position; a probe confirms against the row's own
// columns), so that copy is one memmove, like each column vector's, rather
// than a re-insertion of every key. A replacement whose new primary key
// already belongs to another row is refused with INSERT's "duplicate primary
// key" error before that row mutates; as after any constraint failure
// mid-statement, the rows replaced earlier stay replaced and logged.
// BENCH_17.json (X21) records the effect: a keyed UPDATE on 20 000 rows went
// from 8.3 ms and 60 201 allocations to 0.3 ms and 130.
//
// # The query planner
//
// Every SELECT is planned before execution (internal/planner): per-table
// statistics — row counts, per-attribute distinct counts, min/max, read off
// the columns: bounds and NULL counts from the zone maps, TEXT distinct
// counts from the dictionaries, numeric ones from a per-column count-map —
// drive selectivity estimates, greedy join reordering by
// estimated output cardinality, and per-step access-path choice between a
// full scan, a primary-key probe, a hash join, a primary-key join, and a
// nested loop. The primary key is the one keyed access path. Plans execute
// over flat slot-addressed rows: every column reference resolves to a slot
// at plan time, so the join inner loop does no map lookups, string comparisons, or
// per-row environment copies (a ~28,000x allocation reduction on the 100k-row
// join benchmark; see BENCH_2.json). The pipeline extends past the join:
// ORDER BY sort keys compile to slot readers, a bounded top-K heap stands in
// for the full sort when ORDER BY and LIMIT are both present, and a bare
// LIMIT stops the projection loop early. The planned pipeline is the only one:
// outer joins keep FROM order (a LEFT step pads a row so far that matched
// nothing, a RIGHT step then emits its relation's unmatched rows), a view's
// body is materialized into a table the plan reads like any other, a
// FROM-less SELECT plans to zero steps and one empty row, a condition the
// planner cannot resolve compiles to its error at the step that binds it, and
// a subquery compiles to a closure that plans and runs it per invocation, its
// references to the enclosing query reading that query's row. Rows of a
// query without a total ORDER BY come out in pipeline order — the first
// step's rows in table order, each followed by its matches — which is the
// same at every worker count, and is FROM order only where the plan keeps
// it. The engine's original interpreter survives
// only in its tests, as the oracle: the planned pipeline emits exactly the
// rows the interpreter's nested loops produce, in the same order when the
// plan keeps FROM order — a property the differential test suites pin.
//
// Grouped queries aggregate in one of two executors. The faster is the fused
// vectorized pipeline (the plan's vec-aggregate shape step): when every
// group key and aggregate argument is a plain column and every filter
// vectorizes, scan, joins, and accumulation run as a single push-based loop
// over table positions — group keys and COUNT/SUM/AVG/MIN/MAX (+ DISTINCT
// via per-group bitsets over the argument's code domain) read the column
// vectors directly into unboxed typed accumulator arrays, and no joined row
// is ever materialized. Rows map to groups through a flat array indexed by
// the composed key code when statistics bound the combined key domain
// (dictionary sizes × min-max spans), and through a hash table over packed
// fixed-width key bytes otherwise. The base scan fans out when every
// accumulator provably merges without rounding (integer sums are
// associative; AVG qualifies when statistics bound every intermediate float
// sum under 2^53) and the table is large enough: on the engine's one
// scheduler, which every parallel loop shares, each worker aggregates one
// contiguous range of positions privately, and the partial states merge in
// range order — the order a serial scan creates the groups in, with a
// MIN/MAX replaced only on a strict improvement — so any worker count is
// byte-identical to serial execution. The planner knows neither dialect nor
// the worker count: the engine's compiler, having compiled the query onto
// the fused pipeline, turns the plan's aggregate step into vec-aggregate
// and, when it will run more than one worker, adds a parallel-scan step
// naming the count — so the plan names a tier, or workers, only if they
// run. Every other
// grouped query feeds the same group table and accumulators the arena rows:
// group keys and aggregate arguments compiled to slot readers, HAVING a
// compiled post-filter, and a subquery anywhere in them compiled at its own
// node.
//
// Selective scans prune whole morsels before touching payloads: when the
// planner prices a multi-morsel full scan as selective enough, each filter
// the scan applies vectorized answers per zone from the column zone maps —
// the selection kernel that tests the rows holds its accepted set against the
// zone's bounds — and, when some kernel can be decided from bounds, the
// engine adds the zone-skip shape step to the plan. Every scan site — the
// row pipeline's scan step and the fused aggregation's per-worker ranges —
// skips a 4096-row morsel
// whose min/max bounds disprove the filters, and count-style passes
// short-circuit morsels the bounds prove entirely matching. Verdicts stay
// conservative around the dialect's edges (NULL-laden zones never claim
// all-true, NaN-bearing float zones decide only a test that treats every
// float alike because NaN = x is true here, LIKE prefixes
// prune only when byte order and rune matching provably agree), so zones on
// versus off is byte-identical — a differential suite pins it. EXPLAIN PLAN
// narrates the outcome: "the scan consulted zone maps over 64 morsels of
// 4096 rows and skipped 62 of 64 morsels whose min/max bounds disproved the
// filters without touching their payloads." The layer has no off switch in
// production; the engine's tests turn it off (pruning, frame-of-reference
// reads, rank compares) to hold the two executions to each other.
//
// The paper's §3.1 asks the DBMS to explain *why* a query is expensive;
// `EXPLAIN PLAN`, System.ExplainPlan, and the talkbackd /explain endpoint
// answer with the plan's steps, estimated versus actual row counts, the
// indexes used, and optimization tips ("g joins without an equality
// condition (a cross product); adding one would shrink the intermediate
// result"), all rendered in English by the query translator. Post-join shaping — aggregation
// (with group counts estimated from distinct statistics), sorting, top-K,
// limiting — shows up as its own `EXPLAIN PLAN` rows and narration
// sentences. Every Ask response also records the fingerprint of the plan
// that produced it — including responses served from the cache.
//
// # Concurrency guarantees — MVCC snapshot reads
//
// A System is safe for concurrent use by many sessions, and reads never
// wait on writers. The storage layer is multi-versioned: each table is an
// immutable prefix of sealed 4096-row zones plus one mutable boundary
// zone, and every commit freezes the tables it touched into a new
// immutable version — column views share the sealed prefix, the boundary
// state is privately copied, and in-place mutations of frozen rows
// copy-on-write first — installed with a single atomic pointer store (on
// a durable database, only after the WAL fsync, so a version always names
// an acknowledged durable prefix of the log). Every read operation — Ask
// with SELECT or EXPLAIN statements, DescribeQuery, QueryGraph,
// DescribeEntity, DescribeDatabase, DescribeSchema, DescribeStatistics —
// pins the published version on entry and runs its whole pipeline
// (planning with snapshot-local statistics, vectorized execution,
// narration, empty/large-answer diagnosis) against those frozen tables
// without taking any lock, so a long DML statement or a running checkpoint
// cannot block it and can never change what it sees mid-query. EXPLAIN
// narrates the fact: "Answered from snapshot @41 while two writers
// committed without blocking this read."
//
// Schema metadata and translators are immutable after construction, the
// engine's view registry and the profile registry are lock-protected, and
// System.Profile swaps in a personalized translator clone instead of
// mutating the shared one (use DescribeEntityAs / DescribeDatabaseAs for
// per-session personalization). Repeated SELECTs are answered from
// sharded LRU caches keyed on normalized SQL; cached Translations, query
// graphs, and Responses are shared across sessions and must be treated as
// read-only. The response cache key carries the snapshot sequence —
// sequences only grow, so an answer recorded under one version is
// unreachable under any other — plus a generation stamp for writes that
// bypass Ask (direct engine or storage calls), which must be followed by
// System.InvalidateResults. DML submitted through Ask is serialized
// against other System DML by an internal writer lock; it does not
// exclude readers. System.DrainReaders waits out in-flight snapshot reads
// (talkbackd calls it between the HTTP drain and the final checkpoint).
// Large joins and scans fan out across GOMAXPROCS workers with
// deterministic output order; Engine.SetParallelism caps or disables the
// fan-out.
//
// # Durability
//
// A System is in-memory by default. core.NewDurable (or
// storage.Database.EnableDurability) attaches a write-ahead log: every
// DML statement is one storage call whose ops form one record, which is
// CRC32C-framed, appended to wal.log, and fsynced before Ask acknowledges
// it, so a crash loses at most statements whose Ask call never returned. A failed append or fsync latches the layer:
// every later write is rejected with storage.ErrWALFailed until a restart
// re-runs recovery, so no statement is ever acknowledged past a torn
// frame. Checkpoints serialize every table's typed
// column vectors to checkpoint.seg (tmp+rename with a directory fsync
// before the log truncates, so the swap survives power loss);
// they run automatically past a log-size threshold, on talkbackd's
// graceful shutdown, and on demand via System.Checkpoint. Recovery loads
// the checkpoint and replays the WAL tail through the same code paths as
// live execution (logged UPDATE and DELETE positions go straight to the
// positional apply) — zone maps, statistics, dictionaries, and the primary
// key are rebuilt, and recovered state is bit-identical to never-crashed state. A
// damaged log never fails recovery: the longest valid committed prefix is
// salvaged, the damaged suffix is set aside in wal.corrupt, and the
// outcome is narrated in English ("I replayed 14202 of the 14207
// statements in the log; the last five were torn by the crash"). Render
// the report with querytotext.RecoveryEnglish; inspect the counters with
// System.DurabilityStats.
//
// # Overload & cancellation
//
// Every request carries a budget: core.System.AskContext (and the
// Context variants of ExplainPlan and the describes) derives one from
// the caller's context deadline plus the Config.MaxRowsScanned /
// MaxBytesScanned quotas, and every execution loop polls it — each
// zone-sized piece of a scan, the fused vectorized aggregate, row
// pipelines, and DML.
// A tripped budget returns a *engine.CancelError that names the cause
// (deadline, cancellation, row quota, memory quota, wal-stall) and how
// far the query got; querytotext.CancelEnglish renders it as a
// first-person refusal. Cancellation is loss-free: a cancelled SELECT
// returns the exact full answer or a refusal — never a partial row set
// — a cancelled DML either commits whole through the WAL or leaves
// storage byte-identical to never having run, and a cancelled entity or
// database narrative, whose tuples are the answers of planned SELECTs
// under the same budget, is the whole text or a refusal. Cancelled readers release
// their snapshot pins, so DrainReaders never waits on an abandoned
// request. WAL fsyncs get a grace window (DurableOptions.SyncGrace)
// past the request deadline: a sync inside it commits normally even
// though the client is gone; one that outlives deadline + grace returns
// a narrated wal-stall refusal in bounded time and latches the log
// against further writes. core.Admission is the serving-layer valve —
// a bounded semaphore plus a short wait queue whose shed and timeout
// outcomes querytotext.OverloadEnglish narrates; talkbackd wraps every
// query endpoint in it (429/504 with a narrated answer, 413 for
// oversized bodies, a bounded session registry).
//
// # Replication & failover
//
// internal/repl ships the WAL: a primary (repl.NewPrimary on a durable
// database) streams every committed record — the exact CRC32C frames the
// log fsyncs — to followers over TCP, and a follower (repl.StartFollower
// on a bare in-memory database) applies them through the crash-recovery
// replay path, publishing one MVCC version per record. The WAL is the
// outbox: a bounded in-memory ring covers the live tail and a follower
// that falls off it is re-fed from the checkpoint segment plus the log,
// so shipping is asynchronous and a wedged follower never stalls a
// commit. Links heartbeat, reconnect with jittered backoff, and resume
// from the follower's applied sequence; provable divergence (a sequence
// gap, a corrupt frame, a stale checkpoint, a schema mismatch) latches a
// quarantine that keeps serving the last consistent snapshot while
// narrating why. A follower's answers speak in its own voice — "Answered
// by a follower at snapshot @78, three statements behind the primary." —
// local DML is refused with storage.ErrReadOnlyReplica (narrated by
// querytotext.ReadOnlyEnglish), and core.System.SetReplica registers the
// status provider that switches the narration. talkbackd exposes the
// whole thing as -listen-repl / -replicate-from / -max-lag.
package talkback

import (
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datatotext"
	"repro/internal/engine"
	"repro/internal/querytotext"
	"repro/internal/speech"
	"repro/internal/storage"
	"repro/internal/value"
)

// System is a database that talks back. See internal/core for the full
// method set: Ask, DescribeQuery, DescribeEntity, DescribeDatabase,
// DescribeSchema, QueryGraph, NewVoiceSession, Profile.
type System = core.System

// Config customizes a System built with New.
type Config = core.Config

// Response is a full talk-back interaction (verification + result +
// narrated answer + feedback).
type Response = core.Response

// VoiceSession is a simulated spoken session.
type VoiceSession = core.VoiceSession

// VoiceTurn is one spoken interaction.
type VoiceTurn = core.VoiceTurn

// Translation is a natural-language rendering of a statement with its
// difficulty classification.
type Translation = querytotext.Translation

// Result is a query answer (columns + rows).
type Result = engine.Result

// Schema describes relations and their translation annotations.
type Schema = catalog.Schema

// Relation is one relation's metadata.
type Relation = catalog.Relation

// Attribute is one attribute's metadata.
type Attribute = catalog.Attribute

// AttrType is the domain of an attribute.
type AttrType = catalog.Type

// Attribute type constants.
const (
	TypeInt   = catalog.Int
	TypeFloat = catalog.Float
	TypeText  = catalog.Text
	TypeDate  = catalog.Date
	TypeBool  = catalog.Bool
)

// Profile is a personalization overlay (per-user heading attributes and
// weights).
type Profile = catalog.Profile

// Database is the in-memory store behind a System.
type Database = storage.Database

// Tuple is one stored row.
type Tuple = storage.Tuple

// Value is one typed datum.
type Value = value.Value

// Pattern is one spoken-grammar rule for voice sessions.
type Pattern = speech.Pattern

// Relationship annotates a content-translation relationship between two
// relations (possibly through a bridge).
type Relationship = datatotext.Relationship

// New assembles a System over db. See core.New.
func New(db *Database, cfg Config) (*System, error) { return core.New(db, cfg) }

// NewMovieSystem builds a System over the paper's curated Fig. 1 movie
// database with its annotation sets installed.
func NewMovieSystem() (*System, error) { return core.NewMovieSystem() }

// NewEmpSystem builds a System over the §3.1 EMP/DEPT example database.
func NewEmpSystem() (*System, error) { return core.NewEmpSystem() }

// MovieConfig is the standard configuration for movie-schema databases.
func MovieConfig() Config { return core.MovieConfig() }

// MovieGrammar is the demo spoken grammar over the movie schema.
func MovieGrammar() []Pattern { return speech.MovieGrammar() }

// NewSchema creates an empty schema.
func NewSchema(name string) *Schema { return catalog.NewSchema(name) }

// NewDatabase creates empty tables for every relation of schema.
func NewDatabase(schema *Schema) (*Database, error) { return storage.NewDatabase(schema) }

// NewProfile creates an empty personalization profile.
func NewProfile(name string) *Profile { return catalog.NewProfile(name) }

// Scalar constructors for loading data through the public API.
var (
	// Int wraps an integer value.
	Int = value.NewInt
	// Float wraps a floating-point value.
	Float = value.NewFloat
	// Text wraps a string value.
	Text = value.NewText
	// Date wraps a date value.
	Date = value.NewDate
	// Bool wraps a boolean value.
	Bool = value.NewBool
	// Null is the NULL value constructor.
	Null = value.NewNull
)
