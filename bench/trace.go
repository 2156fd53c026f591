package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/explain"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// span is one timed call into a layer's public function. Spans of one
// scripted request share Req; Parent is the index of the span that caused
// this one, -1 for a root. A layer's self time is its span's duration minus
// its children's.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// in times fn as one span.
func (t *tracer) in(name string, req, parent int, fn func()) {
	i := t.begin(name, req, parent)
	fn()
	t.end(i)
}

// selfMicros groups the spans' self times, in microseconds, by name.
func (t *tracer) selfMicros() map[string][]float64 {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-children[i])/1e3)
	}
	return out
}

// Sample sizes of the in-process replay: enough calls for a median, few
// enough that the whole traced run stays near the length of a timed one.
const (
	hotSample   = 2000 // cache-hit asks
	coldSample  = 24   // cold_talkback cycles of eight
	writeSample = 8    // durable_write cycles of 25
	allocRuns   = 20   // testing.AllocsPerRun repetitions
)

// httpLayer is what the traced run's HTTP phase hands to the layer report.
type httpLayer struct {
	lat              []int64 // the scripted requests' latencies
	replyBytesPerReq float64
	peakRSSMB        float64
	stats            map[string]float64 // GET /stats deltas around the script
	replayedBatches  float64            // what the boot's recovery replayed, from /stats
	plans, fallback  int
	probe            []request
	probeLat         []int64
}

// layerMetrics produces the per-layer metrics of a traced run. The
// talkbackd.* figures and the counters come from the HTTP phase on the
// workload's own server; every *_us, *_ms and *_allocs figure of an inner
// layer comes from replaying a seeded sample of all four scripts in process,
// with a span around each call into a layer's public function, so each layer
// is measured on every traced run whichever workload it accompanies.
func layerMetrics(sess *session, seed int64, out, workload string, h httpLayer) ([]metric, error) {
	tr := newTracer()
	v := map[string]float64{}
	ctx := context.Background()

	// The in-memory database hot_ask and cold_talkback are served from.
	scale := workloadByName(sess.workloads, "hot_ask").scale
	start := time.Now()
	db, err := generate(scale)
	if err != nil {
		return nil, err
	}
	v["dataset.generate_ms"] = time.Since(start).Seconds() * 1e3
	sys, err := core.New(db, core.MovieConfig())
	if err != nil {
		return nil, err
	}
	g := newScriptGen(seed, newOracle(db))
	req := 0

	// hot_ask: the cached answer and what stands in front of it.
	hot := g.hotKeys(64, 3)
	respCache := cache.New[*core.Response](0)
	for _, r := range hot {
		resp, err := sys.AskContext(ctx, r.sql)
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", r.sql, err)
		}
		respCache.Put(cache.NormalizeSQL(r.sql), resp)
	}
	adm := core.NewAdmission(8, 16)
	for i := 0; i < hotSample; i, req = i+1, req+1 {
		sql := hot[g.rng.Intn(len(hot))].sql
		tr.in("core.Admission.Acquire", req, -1, func() {
			if release, err := adm.Acquire(ctx); err == nil {
				release()
			}
		})
		tr.in("core.AskContext/hit", req, -1, func() { sys.AskContext(ctx, sql) })
		var key string
		tr.in("cache.NormalizeSQL", req, -1, func() { key = cache.NormalizeSQL(sql) })
		tr.in("cache.Get", req, -1, func() { respCache.Get(key) })
	}

	// cold_talkback: each layer of the pipeline called on its own, in the
	// order AskContext calls them, beside the real AskContext as the whole.
	var unattributed []float64
	var morsels, skipped float64
	for c := 0; c < coldSample; c++ {
		for _, r := range g.coldCycle(c) {
			req++
			switch r.class {
			case classAsk:
				var parts, whole time.Duration
				steps := [2]func(){
					func() { parts, err = replayAsk(tr, sys, r.sql, req, &morsels, &skipped) },
					func() {
						i := tr.begin("core.AskContext/cold", req, -1)
						_, err = sys.AskContext(ctx, r.sql)
						tr.end(i)
						whole = time.Duration(tr.spans[i].End - tr.spans[i].Start)
					},
				}
				// Whichever runs second finds the data in the CPU's caches;
				// alternate so neither side keeps the advantage.
				if req%2 == 0 {
					steps[0], steps[1] = steps[1], steps[0]
				}
				for _, step := range steps {
					if step(); err != nil {
						return nil, fmt.Errorf("replaying %s: %w", r.sql, err)
					}
				}
				unattributed = append(unattributed, float64(whole-parts)/1e3)
			case classDescribe:
				var stmt sqlparser.Statement
				tr.in("sqlparser.Parse", req, -1, func() { stmt, err = sqlparser.Parse(r.sql) })
				if err != nil {
					return nil, err
				}
				tr.in("querytotext.TranslateStatement", req, -1, func() { sys.QueryTranslator().TranslateStatement(stmt) })
			case classEntity:
				tr.in("core.DescribeEntityAsContext", req, -1, func() {
					_, err = sys.DescribeEntityAsContext(ctx, "", r.entRel, "id", value.NewInt(r.entID))
				})
				if err != nil {
					return nil, err
				}
			}
		}
	}
	for id := int64(1); id <= 3; id++ {
		tr.in("core.DescribeEntityAsContext/director", int(id), -1, func() {
			_, err = sys.DescribeEntityAsContext(ctx, "", "DIRECTOR", "id", value.NewInt(id))
		})
		if err != nil {
			return nil, err
		}
	}
	if err := allocProbes(sys, v); err != nil {
		return nil, err
	}

	// durable_write: the same statements on an in-memory database, on a
	// durable one whose files are memory, and on a durable one on disk.
	if err := replayWrites(tr, sess, seed, scale, sys, v); err != nil {
		return nil, err
	}
	// read_write_mix's boot: recovery of the prepared directory.
	if err := replayRecovery(tr, sess, v); err != nil {
		return nil, err
	}

	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": tr.spans})
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(out, "trace-"+workload+".json"), data, 0o644); err != nil {
			return nil, err
		}
	}

	self := tr.selfMicros()
	us := func(name string) float64 { return median(self[name]) }
	ms := okMillis(h.lat)
	probeP50 := func(c class) float64 { return classP50(h.probe, h.probeLat, c) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	st := h.stats
	hitRatio := func(c string) float64 {
		hits, misses := st["caches."+c+".Hits"], st["caches."+c+".Misses"]
		return ratio(hits, hits+misses)
	}
	var evictions float64
	for _, c := range []string{"parse", "graph", "translation", "response"} {
		evictions += st["caches."+c+".Evictions"]
	}
	return []metric{
		{"talkbackd.http_overhead_us", probeP50(classHit)*1e3 - us("core.AskContext/hit"), "us"},
		{"talkbackd.resp_bytes_per_req", h.replyBytesPerReq, "B"},
		{"talkbackd.peak_rss_mb", h.peakRSSMB, "MB"},
		{"talkbackd.lat_p90_ms", quantile(ms, 0.90), "ms"},
		{"talkbackd.lat_p99_ms", quantile(ms, 0.99), "ms"},
		{"talkbackd.lat_max_ms", quantile(ms, 1), "ms"},
		{"talkbackd.admitted", st["admission.admitted"], "count"},
		{"talkbackd.shed", st["admission.rejected"] + st["admission.timed_out"], "count"},
		{"talkbackd.hit_p50_ms", probeP50(classHit), "ms"},
		{"talkbackd.miss_p50_ms", probeP50(classMiss), "ms"},
		{"talkbackd.ask_p50_ms", probeP50(classAsk), "ms"},
		{"talkbackd.describe_p50_ms", probeP50(classDescribe), "ms"},
		{"talkbackd.entity_p50_ms", probeP50(classEntity), "ms"},
		{"talkbackd.write_p50_ms", probeP50(classWrite), "ms"},
		{"core.admission_us", us("core.Admission.Acquire"), "us"},
		{"core.ask_hit_us", us("core.AskContext/hit"), "us"},
		{"core.ask_hit_allocs", v["core.ask_hit_allocs"], "count"},
		{"core.ask_cold_us", us("core.AskContext/cold"), "us"},
		{"core.ask_cold_allocs", v["core.ask_cold_allocs"], "count"},
		{"core.ask_unattributed_us", median(unattributed), "us"},
		{"core.narrate_us", us("core.NarrateResult"), "us"},
		{"cache.normalize_us", us("cache.NormalizeSQL"), "us"},
		{"cache.normalize_allocs", v["cache.normalize_allocs"], "count"},
		{"cache.get_us", us("cache.Get"), "us"},
		{"cache.resp_hit_ratio", hitRatio("response"), "ratio"},
		{"cache.parse_hit_ratio", hitRatio("parse"), "ratio"},
		{"cache.evictions", evictions, "count"},
		{"sqlparser.tokenize_us", us("sqlparser.Tokenize"), "us"},
		{"sqlparser.parse_us", us("sqlparser.Parse"), "us"},
		{"sqlparser.parse_allocs", v["sqlparser.parse_allocs"], "count"},
		{"querytotext.translate_us", us("querytotext.TranslateStatement"), "us"},
		{"querytotext.translate_allocs", v["querytotext.translate_allocs"], "count"},
		{"storage.snapshot_us", us("storage.Snapshot"), "us"},
		{"engine.select_us", us("engine.SelectExplained"), "us"},
		{"engine.select_allocs", v["engine.select_allocs"], "count"},
		{"engine.fallback_share", ratio(float64(h.fallback), float64(h.plans)), "ratio"},
		{"engine.morsels_skipped_share", ratio(skipped, morsels), "ratio"},
		{"explain.empty_us", us("explain.ExplainEmpty"), "us"},
		{"explain.large_us", us("explain.ExplainLarge"), "us"},
		{"explain.plan_us", us("explain.ExplainPlan"), "us"},
		{"datatotext.entity_us", us("core.DescribeEntityAsContext"), "us"},
		{"datatotext.entity_allocs", v["datatotext.entity_allocs"], "count"},
		{"datatotext.entity_director_ms", us("core.DescribeEntityAsContext/director") / 1e3, "ms"},
		{"storage.apply_us", us("storage.Database.Insert/Update/Delete"), "us"},
		{"engine.dml_apply_us", us("engine.ExecStatement/memory"), "us"},
		{"storage.commit_memfs_us", us("engine.ExecStatement/memfs"), "us"},
		{"storage.commit_dirfs_us", us("engine.ExecStatement/dirfs"), "us"},
		{"storage.commit_allocs", v["storage.commit_allocs"], "count"},
		{"storage.wal_bytes_per_write", v["storage.wal_bytes_per_write"], "B"},
		{"storage.syncs_per_write", ratio(st["durability.syncs"], st["durability.batches"]), "ratio"},
		{"storage.published_versions", st["snapshots.published_versions"], "count"},
		{"storage.checkpoints", st["durability.checkpoints"], "count"},
		{"storage.checkpoint_ms", us("storage.Checkpoint") / 1e3, "ms"},
		{"storage.checkpoint_bytes", v["storage.checkpoint_bytes"], "B"},
		{"storage.recover_ms", us("storage.EnableDurability") / 1e3, "ms"},
		{"storage.recover_allocs", v["storage.recover_allocs"], "count"},
		{"storage.replayed_batches", h.replayedBatches, "count"},
		{"wal.append_us", us("wal.Writer.Append"), "us"},
		{"wal.fsync_us", us("wal.Writer.Sync"), "us"},
		{"wal.scan_mb_per_s", v["wal.scan_mb_per_s"], "MB/s"},
		{"dataset.generate_ms", v["dataset.generate_ms"], "ms"},
	}, nil
}

// replayAsk calls the layers AskContext runs for a never-seen SELECT, each
// under its own span, and returns the time they took together. Tokenize and
// ExplainPlan are timed beside them as roots: the first is part of Parse,
// the second is /explain's path, so neither belongs in the sum.
func replayAsk(tr *tracer, sys *core.System, sql string, req int, morsels, skipped *float64) (time.Duration, error) {
	var err error
	root := tr.begin("replay", req, -1)
	tr.in("cache.NormalizeSQL", req, root, func() { cache.NormalizeSQL(sql) })
	var stmt sqlparser.Statement
	tr.in("sqlparser.Parse", req, root, func() { stmt, err = sqlparser.Parse(sql) })
	if err != nil {
		return 0, err
	}
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok {
		return 0, fmt.Errorf("not a SELECT: %s", sql)
	}
	tr.in("querytotext.TranslateStatement", req, root, func() { _, err = sys.QueryTranslator().TranslateStatement(stmt) })
	if err != nil {
		return 0, err
	}
	var snap *storage.Snapshot
	tr.in("storage.Snapshot", req, root, func() { snap = sys.Database().Snapshot() })
	eng := sys.Engine().At(snap)
	var res *engine.Result
	var plan *planner.Plan
	tr.in("engine.SelectExplained", req, root, func() { res, plan, err = eng.SelectExplained(sel) })
	if err != nil {
		return 0, err
	}
	tr.in("core.NarrateResult", req, root, func() { sys.NarrateResult(res) })
	switch rows := len(res.Rows); {
	case rows == 0:
		tr.in("explain.ExplainEmpty", req, root, func() { explain.New(eng, sys.QueryTranslator()).ExplainEmpty(sel) })
	case rows > 100:
		tr.in("explain.ExplainLarge", req, root, func() { explain.New(eng, sys.QueryTranslator()).ExplainLarge(sel, 100) })
	}
	tr.end(root)
	for _, sh := range plan.Shape {
		if sh.Kind == planner.ShapeZoneSkip {
			*morsels += float64(sh.K)
			*skipped += float64(sh.ActualRows)
		}
	}
	var parts int64
	for _, s := range tr.spans[root+1:] {
		if s.Parent == root {
			parts += s.End - s.Start
		}
	}
	tr.in("sqlparser.Tokenize", req, -1, func() { sqlparser.Tokenize(sql) })
	tr.in("explain.ExplainPlan", req, -1, func() { explain.New(eng, sys.QueryTranslator()).ExplainPlan(sel) })
	return time.Duration(parts), nil
}

// allocProbes counts allocations of the pure-CPU layers on fixed statements,
// so the counts do not depend on the seed and repeat exactly.
func allocProbes(sys *core.System, v map[string]float64) error {
	ctx := context.Background()
	const point = "select m.title, m.year from MOVIES m where m.id = 42"
	join := threeWayJoin + "a.id = 42"
	stmt, err := sqlparser.Parse(join)
	if err != nil {
		return err
	}
	if _, err := sys.AskContext(ctx, point); err != nil {
		return err
	}
	v["cache.normalize_allocs"] = testing.AllocsPerRun(allocRuns, func() { cache.NormalizeSQL(point) })
	v["core.ask_hit_allocs"] = testing.AllocsPerRun(allocRuns, func() { sys.AskContext(ctx, point) })
	v["sqlparser.parse_allocs"] = testing.AllocsPerRun(allocRuns, func() { sqlparser.Parse(join) })
	v["querytotext.translate_allocs"] = testing.AllocsPerRun(allocRuns, func() { sys.QueryTranslator().TranslateStatement(stmt) })
	eng, sel := sys.Engine().At(sys.Database().Snapshot()), stmt.(*sqlparser.SelectStmt)
	v["engine.select_allocs"] = testing.AllocsPerRun(allocRuns, func() { eng.SelectExplained(sel) })
	v["datatotext.entity_allocs"] = testing.AllocsPerRun(allocRuns, func() {
		sys.DescribeEntityAsContext(ctx, "", "ACTOR", "id", value.NewInt(42))
	})
	// A cold ask is a statement no cache has seen: a new id on every call
	// (AllocsPerRun makes one warm-up call before the counted ones).
	id := 100
	v["core.ask_cold_allocs"] = testing.AllocsPerRun(allocRuns, func() {
		id++
		sys.AskContext(ctx, coldPoints[id-101])
	})
	return nil
}

// coldPoints are the statements of the cold-ask allocation probe, built
// ahead so that building them is not counted.
var coldPoints = func() []string {
	out := make([]string, allocRuns+1)
	for i := range out {
		// Year before title: a text no script draws, so never a cache hit.
		out[i] = fmt.Sprintf("select m.year, m.title from MOVIES m where m.id = %d", 101+i)
	}
	return out
}()

// replayWrites runs one sample of durable_write's script four times — as
// direct storage calls (the storage layer without the engine), on the
// in-memory system, on a database durable in memory (encode + frame + freeze
// + publish, no device) and on one durable on disk — then times the log's own
// Append and Sync, and checkpoints.
func replayWrites(tr *tracer, sess *session, seed int64, scale int, memory *core.System, v map[string]float64) error {
	durable := func(fs wal.FS) (*core.System, error) {
		db, err := generate(scale)
		if err != nil {
			return nil, err
		}
		sys, _, err := core.NewDurable(db, fs, storage.DurableOptions{}, core.MovieConfig())
		return sys, err
	}
	direct, err := generate(scale)
	if err != nil {
		return err
	}
	memFS := wal.NewMemFS()
	onMem, err := durable(memFS)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(sess.dir, "trace-writes-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dirFS, err := wal.NewDirFS(dir)
	if err != nil {
		return err
	}
	onDisk, err := durable(dirFS)
	if err != nil {
		return err
	}
	defer onDisk.Database().CloseDurability()

	g := newScriptGen(seed, newOracle(memory.Database()))
	var script []request
	for i := 0; i < 8; i++ {
		script = append(script, g.insert())
	}
	for i := 0; i < writeSample; i++ {
		script = append(script, g.writeCycle(i)...)
	}
	logBefore := len(memFS.Bytes(storage.WALFileName))
	for i, r := range script {
		stmt, err := sqlparser.Parse(r.sql)
		if err != nil {
			return err
		}
		tr.in("storage.Database.Insert/Update/Delete", i, -1, func() { _, err = r.apply(direct) })
		if err != nil {
			return fmt.Errorf("replaying %s on storage: %w", r.sql, err)
		}
		for _, target := range []struct {
			name string
			sys  *core.System
		}{{"memory", memory}, {"memfs", onMem}, {"dirfs", onDisk}} {
			tr.in("engine.ExecStatement/"+target.name, i, -1, func() { _, _, err = target.sys.Engine().ExecStatement(stmt) })
			if err != nil {
				return fmt.Errorf("replaying %s on %s: %w", r.sql, target.name, err)
			}
		}
	}
	v["storage.wal_bytes_per_write"] = float64(len(memFS.Bytes(storage.WALFileName))-logBefore) / float64(len(script))

	update := [2]sqlparser.Statement{}
	for i, year := range []int{1999, 2001} {
		if update[i], err = sqlparser.Parse(fmt.Sprintf("update MOVIES set year = %d where id = 42", year)); err != nil {
			return err
		}
	}
	n := 0
	v["storage.commit_allocs"] = testing.AllocsPerRun(allocRuns, func() {
		n++
		onMem.Engine().ExecStatement(update[n%2])
	})

	f, err := dirFS.Create("probe.log")
	if err != nil {
		return err
	}
	w := wal.NewWriter(f, 0)
	defer w.Close()
	record := make([]byte, 64) // a single-row statement's record
	for i := range script {
		tr.in("wal.Writer.Append", i, -1, func() { err = w.Append(record) })
		if err == nil {
			tr.in("wal.Writer.Sync", i, -1, func() { err = w.Sync() })
		}
		if err != nil {
			return err
		}
	}
	for i := 0; i < 3; i++ {
		tr.in("storage.Checkpoint", i, -1, func() { err = onDisk.Checkpoint() })
		if err != nil {
			return err
		}
	}
	size, err := dirFS.Size(storage.CheckpointFileName)
	v["storage.checkpoint_bytes"] = float64(size)
	return err
}

// replayRecovery prepares read_write_mix's directory (checkpoint of -scale
// 60000 plus 20000 log records) and recovers it three times from disk.
func replayRecovery(tr *tracer, sess *session, v map[string]float64) error {
	mix := workloadByName(sess.workloads, "read_write_mix")
	db, err := generate(mix.scale)
	if err != nil {
		return err
	}
	mem, err := prepareRecovered(db, mix.tail, nil)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(sess.dir, "trace-recover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := dump(mem, dir); err != nil {
		return err
	}
	fs, err := wal.NewDirFS(dir)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		empty, err := storage.NewDatabase(dataset.MovieSchema())
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr.in("storage.EnableDurability", i, -1, func() { _, err = empty.EnableDurability(fs, storage.DurableOptions{}) })
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		v["storage.recover_allocs"] = float64(after.Mallocs - before.Mallocs)
		if err := empty.CloseDurability(); err != nil {
			return err
		}
	}
	log := mem.Bytes(storage.WALFileName)
	var mbPerS []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		wal.Scan(log)
		mbPerS = append(mbPerS, float64(len(log))/1e6/time.Since(start).Seconds())
	}
	sort.Float64s(mbPerS)
	v["wal.scan_mb_per_s"] = quantile(mbPerS, 0.5)
	return nil
}
