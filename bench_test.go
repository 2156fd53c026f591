// Package talkback_test carries the experiment benchmark harness: one
// testing.B benchmark per experiment family in DESIGN.md §3 (figures F1–F7,
// narratives N1–N4, translations T1–T10, and the X-series behaviours),
// plus the scale sweep X6. Run with:
//
//	go test -bench=. -benchmem .
package talkback_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	talkback "repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/datatotext"
	"repro/internal/engine"
	"repro/internal/explain"
	"repro/internal/nlg"
	"repro/internal/queryclassify"
	"repro/internal/querygraph"
	"repro/internal/querytotext"
	"repro/internal/repl"
	"repro/internal/schemagraph"
	"repro/internal/simtest"
	"repro/internal/speech"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// ---------------------------------------------------------------------------
// F-series: figure regeneration
// ---------------------------------------------------------------------------

// BenchmarkF1SchemaGraphBuild regenerates Fig. 1 (schema graph + render).
func BenchmarkF1SchemaGraphBuild(b *testing.B) {
	schema := dataset.MovieSchema()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := schemagraph.Build(schema)
		if err != nil {
			b.Fatal(err)
		}
		if g.DOT(false) == "" {
			b.Fatal("empty render")
		}
	}
}

func benchQueryGraph(b *testing.B, label string) {
	b.Helper()
	sel, err := sqlparser.ParseSelect(sqlparser.PaperQueries[label])
	if err != nil {
		b.Fatal(err)
	}
	schema := dataset.MovieSchema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := querygraph.Build(sel, schema)
		if err != nil {
			b.Fatal(err)
		}
		if g.ASCII() == "" {
			b.Fatal("empty render")
		}
	}
}

// BenchmarkF2QueryGraphRender regenerates Fig. 2 (the parameterized-class
// rendering, exercised on Q1).
func BenchmarkF2QueryGraphRender(b *testing.B) { benchQueryGraph(b, "Q1") }

// BenchmarkF3QueryGraphPath regenerates Fig. 3 (Q1).
func BenchmarkF3QueryGraphPath(b *testing.B) { benchQueryGraph(b, "Q1") }

// BenchmarkF4QueryGraphSubgraph regenerates Fig. 4 (Q2).
func BenchmarkF4QueryGraphSubgraph(b *testing.B) { benchQueryGraph(b, "Q2") }

// BenchmarkF5QueryGraphMultiInstance regenerates Fig. 5 (Q3).
func BenchmarkF5QueryGraphMultiInstance(b *testing.B) { benchQueryGraph(b, "Q3") }

// BenchmarkF6QueryGraphCyclic regenerates Fig. 6 (Q4).
func BenchmarkF6QueryGraphCyclic(b *testing.B) { benchQueryGraph(b, "Q4") }

// BenchmarkF7QueryGraphAggregate regenerates Fig. 7 (Q7 with NQ1).
func BenchmarkF7QueryGraphAggregate(b *testing.B) { benchQueryGraph(b, "Q7") }

// ---------------------------------------------------------------------------
// N-series: content narratives
// ---------------------------------------------------------------------------

func movieTranslator(b *testing.B, opts datatotext.Options) *datatotext.Translator {
	b.Helper()
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		b.Fatal(err)
	}
	tr, err := datatotext.NewMovieTranslator(db, opts)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkN1ContentCompact regenerates the compact Woody Allen narrative.
func BenchmarkN1ContentCompact(b *testing.B) {
	tr := movieTranslator(b, datatotext.Options{Style: nlg.Compact})
	key := talkback.Text("Woody Allen")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.DescribeEntity("DIRECTOR", "name", key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkN2ContentProcedural regenerates the procedural variant.
func BenchmarkN2ContentProcedural(b *testing.B) {
	tr := movieTranslator(b, datatotext.Options{Style: nlg.Procedural})
	key := talkback.Text("Woody Allen")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.DescribeEntity("DIRECTOR", "name", key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkN3CommonExpressionMerge measures the born-in/born-on factoring.
func BenchmarkN3CommonExpressionMerge(b *testing.B) {
	clauses := []nlg.Clause{
		{Subject: "Woody Allen", Predicate: "was born in Brooklyn, New York, USA"},
		{Subject: "Woody Allen", Predicate: "was born on December 1, 1935"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := nlg.FactorClauses(clauses); len(out) != 1 {
			b.Fatal("merge failed")
		}
	}
}

// BenchmarkN4SplitPattern measures the split-pattern relative-clause merge.
func BenchmarkN4SplitPattern(b *testing.B) {
	head := "the movie M1 involves the director D1 and the actor A1"
	subs := []nlg.Clause{
		{Subject: "D1", Predicate: "was born in Italy", Kind: nlg.Person},
		{Subject: "A1", Predicate: "is Greek", Kind: nlg.Person},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if nlg.MergeSplit(head, subs) == "" {
			b.Fatal("merge failed")
		}
	}
}

// ---------------------------------------------------------------------------
// T-series: query translations
// ---------------------------------------------------------------------------

func benchTranslate(b *testing.B, label string, elaborate bool) {
	b.Helper()
	schema := dataset.MovieSchema()
	verbs := querytotext.MovieVerbs()
	if label == "Q0" {
		schema = dataset.EmpDeptSchema()
		verbs = querytotext.EmpVerbs()
	}
	tr := querytotext.New(schema, verbs, querytotext.Options{Elaborate: elaborate})
	sel, err := sqlparser.ParseSelect(sqlparser.PaperQueries[label])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Translate(sel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT1TranslatePath translates Q1.
func BenchmarkT1TranslatePath(b *testing.B) { benchTranslate(b, "Q1", true) }

// BenchmarkT2TranslateSubgraph translates Q2.
func BenchmarkT2TranslateSubgraph(b *testing.B) { benchTranslate(b, "Q2", false) }

// BenchmarkT3TranslateMultiInstance translates Q3 (pairs idiom).
func BenchmarkT3TranslateMultiInstance(b *testing.B) { benchTranslate(b, "Q3", false) }

// BenchmarkT4TranslateCyclic translates Q4.
func BenchmarkT4TranslateCyclic(b *testing.B) { benchTranslate(b, "Q4", false) }

// BenchmarkT5Unnest translates Q5 (IN-unnesting then path translation).
func BenchmarkT5Unnest(b *testing.B) { benchTranslate(b, "Q5", true) }

// BenchmarkT6TranslateDivision translates Q6 (division idiom).
func BenchmarkT6TranslateDivision(b *testing.B) { benchTranslate(b, "Q6", false) }

// BenchmarkT7TranslateAggregate translates Q7.
func BenchmarkT7TranslateAggregate(b *testing.B) { benchTranslate(b, "Q7", false) }

// BenchmarkT8TranslateSameYearIdiom translates Q8.
func BenchmarkT8TranslateSameYearIdiom(b *testing.B) { benchTranslate(b, "Q8", false) }

// BenchmarkT9TranslateEarliestIdiom translates Q9.
func BenchmarkT9TranslateEarliestIdiom(b *testing.B) { benchTranslate(b, "Q9", false) }

// BenchmarkT10TranslateComparative translates the §3.1 EMP query.
func BenchmarkT10TranslateComparative(b *testing.B) { benchTranslate(b, "Q0", false) }

// BenchmarkTNaiveAblation measures the naive per-edge rendering of Q3, the
// baseline the idioms replace.
func BenchmarkTNaiveAblation(b *testing.B) {
	tr := querytotext.New(dataset.MovieSchema(), querytotext.MovieVerbs(), querytotext.Options{})
	sel, err := sqlparser.ParseSelect(sqlparser.PaperQueries["Q3"])
	if err != nil {
		b.Fatal(err)
	}
	g, err := querygraph.Build(sel, dataset.MovieSchema())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.TranslateNaive(sel, g) == "" {
			b.Fatal("empty")
		}
	}
}

// ---------------------------------------------------------------------------
// X-series: end-to-end behaviours
// ---------------------------------------------------------------------------

// BenchmarkX1Classify classifies the whole corpus.
func BenchmarkX1Classify(b *testing.B) {
	var graphs []*querygraph.Graph
	for _, label := range sqlparser.PaperQueryOrder {
		schema := dataset.MovieSchema()
		if label == "Q0" {
			schema = dataset.EmpDeptSchema()
		}
		sel, err := sqlparser.ParseSelect(sqlparser.PaperQueries[label])
		if err != nil {
			b.Fatal(err)
		}
		g, err := querygraph.Build(sel, schema)
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queryclassify.Classify(graphs[i%len(graphs)])
	}
}

// BenchmarkX2ExplainEmpty diagnoses an empty answer.
func BenchmarkX2ExplainEmpty(b *testing.B) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		b.Fatal(err)
	}
	ex := engine.New(db)
	tr := querytotext.New(db.Schema(), querytotext.MovieVerbs(), querytotext.Options{})
	e := explain.New(ex, tr)
	sel, err := sqlparser.ParseSelect(`select m.title from MOVIES m, CAST c, ACTOR a
		where m.id = c.mid and c.aid = a.id and a.name = 'Nobody Unknown'`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExplainEmpty(sel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX3ExplainLarge explains a large answer on a generated database.
func BenchmarkX3ExplainLarge(b *testing.B) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{Seed: 9, Movies: 300, Actors: 100, Directors: 10, CastPerMovie: 3, GenresPerMovie: 2})
	if err != nil {
		b.Fatal(err)
	}
	ex := engine.New(db)
	tr := querytotext.New(db.Schema(), querytotext.MovieVerbs(), querytotext.Options{})
	e := explain.New(ex, tr)
	sel, err := sqlparser.ParseSelect("select m.title, c.role from MOVIES m, CAST c where m.id = c.mid")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExplainLarge(sel, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX4SummarySweep measures budgeted database narration across
// budgets (the §2.2 size-control sweep).
func BenchmarkX4SummarySweep(b *testing.B) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		b.Fatal(err)
	}
	for _, budget := range []int{4, 8, 16, 0} {
		tr, err := datatotext.NewMovieTranslator(db, datatotext.Options{
			Style: nlg.Procedural, MaxSentences: budget, MaxTuplesPerRelation: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tr.DescribeDatabase("MOVIES"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkX5VoiceLoop measures the full spoken round trip.
func BenchmarkX5VoiceLoop(b *testing.B) {
	sys, err := talkback.NewMovieSystem()
	if err != nil {
		b.Fatal(err)
	}
	v := sys.NewVoiceSession(speech.MovieGrammar())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Ask("which movies does Brad Pitt play in"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX6ContentScale sweeps database size for entity narration (the
// translation cost should stay near-constant while the database grows —
// narratives touch only the relevant neighborhood).
func BenchmarkX6ContentScale(b *testing.B) {
	for _, movies := range []int{10, 100, 1000, 10000} {
		db, err := dataset.GenerateMovieDB(dataset.GenConfig{
			Seed: 21, Movies: movies, Actors: movies / 2, Directors: movies/10 + 1,
			CastPerMovie: 3, GenresPerMovie: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		tr, err := datatotext.NewMovieTranslator(db, datatotext.Options{Style: nlg.Compact})
		if err != nil {
			b.Fatal(err)
		}
		// Narrate the first generated director.
		name := db.Table("DIRECTOR").Tuple(0)[1]
		b.Run(fmt.Sprintf("movies=%d", movies), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tr.DescribeEntity("DIRECTOR", "name", name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkX7AskEndToEnd measures the full Ask loop on the curated DB.
func BenchmarkX7AskEndToEnd(b *testing.B) {
	sys, err := talkback.NewMovieSystem()
	if err != nil {
		b.Fatal(err)
	}
	src := sqlparser.PaperQueries["Q1"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX8AskCached measures the serving-layer cache: repeated Ask of
// the same query with the parse, translation and response caches on vs.
// off. The cached variant must come out ≥2x faster (tracked in BENCH_1.json).
func BenchmarkX8AskCached(b *testing.B) {
	build := func(b *testing.B, disable bool) *talkback.System {
		db, err := dataset.CuratedMovieDB()
		if err != nil {
			b.Fatal(err)
		}
		cfg := talkback.MovieConfig()
		cfg.DisableCache = disable
		sys, err := talkback.New(db, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}
	src := sqlparser.PaperQueries["Q1"]
	b.Run("uncached", func(b *testing.B) {
		sys := build(b, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Ask(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		sys := build(b, false)
		if _, err := sys.Ask(src); err != nil { // warm the caches
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Ask(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkX10PlannerScan measures a selective equality predicate on a
// non-key attribute over a 100k-row table, which the planner runs as a full
// scan with zone maps and selection kernels.
func BenchmarkX10PlannerScan(b *testing.B) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 13, Movies: 100000, Actors: 25000, Directors: 1001,
		CastPerMovie: 1, GenresPerMovie: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(db)
	title := db.Table("MOVIES").Tuple(54321)[1]
	src := fmt.Sprintf("select m.year from MOVIES m where m.title = %s", title.SQL())
	sel, err := sqlparser.ParseSelect(src)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := eng.Select(sel)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) == 0 {
				b.Fatal("scan found nothing")
			}
		}
	})
}

// BenchmarkX11GroupedAggregate measures grouped aggregation over the 100k
// corpus on the aggregator's two feeds. planned takes the fused
// vectorized-aggregation path: typed accumulators straight off the column
// vectors, no joined-row materialization (tracked in BENCH_5.json; the
// acceptance floor is ≥ 4x fewer bytes/op than the BENCH_4.json row-at-a-time
// recording). row-fed groups the same join by the expression m.year / 10,
// which is outside the fused dialect, so the joined rows are materialized and
// fed to the same group table and accumulators. Both arms' allocs and bytes
// are gated in benchgate.
func BenchmarkX11GroupedAggregate(b *testing.B) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 17, Movies: 100000, Actors: 25000, Directors: 1001,
		CastPerMovie: 1, GenresPerMovie: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(db)
	for _, arm := range []struct{ name, key string }{{"planned", "g.genre"}, {"row-fed", "m.year / 10"}} {
		sel, err := sqlparser.ParseSelect(`select ` + arm.key + `, count(*), avg(m.year), max(m.year)
from MOVIES m, GENRE g where m.id = g.mid group by ` + arm.key + ` having count(*) > 10`)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Select(sel)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}

// BenchmarkX12TopKSort measures ORDER BY + LIMIT on the planned pipeline:
// the bounded top-K heap (LIMIT present) against the stable full sort of the
// same rows (LIMIT absent, truncated by the caller). The heap must win
// (tracked in BENCH_3.json).
func BenchmarkX12TopKSort(b *testing.B) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 19, Movies: 100000, Actors: 25000, Directors: 1001,
		CastPerMovie: 1, GenresPerMovie: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(db)
	topK, err := sqlparser.ParseSelect("select m.title, m.year from MOVIES m order by m.year desc, m.title limit 10")
	if err != nil {
		b.Fatal(err)
	}
	fullSort, err := sqlparser.ParseSelect("select m.title, m.year from MOVIES m order by m.year desc, m.title")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		sel  *sqlparser.SelectStmt
		want int
	}{{"top-k", topK, 10}, {"full-sort", fullSort, 100000}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := eng.Select(mode.sel)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != mode.want {
					b.Fatalf("got %d rows", len(res.Rows))
				}
				if len(res.Rows[0]) > 0 {
					_ = res.Rows[0][0]
				}
			}
		})
	}
}

// BenchmarkX13ScanFilter measures full-scan filter throughput over the 100k
// corpus: a selective year-range predicate over MOVIES projecting the title
// (columnar vector filter + direct column projection). Its time and bytes/op
// against the PR-3 row layout are tracked in BENCH_4.json (floors: 3x time,
// 5x bytes/op), beside the interpreter's env-per-row numbers, which are no
// longer measured: the interpreter is a test oracle now.
func BenchmarkX13ScanFilter(b *testing.B) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 23, Movies: 100000, Actors: 25000, Directors: 1001,
		CastPerMovie: 1, GenresPerMovie: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(db)
	sel, err := sqlparser.ParseSelect("select m.title from MOVIES m where m.year >= 1955 and m.year <= 1956")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Select(sel)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) == 0 {
				b.Fatal("filter matched nothing")
			}
		}
	})
}

// BenchmarkX14JoinBuild measures hash-join build-side allocations on the
// planned pipeline: a 100k x 100k equi-join whose build side has ~100k
// distinct keys. The build structure must allocate O(distinct keys) at most —
// not one slice per key (tracked in BENCH_4.json).
func BenchmarkX14JoinBuild(b *testing.B) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 17, Movies: 100000, Actors: 25000, Directors: 1001,
		CastPerMovie: 1, GenresPerMovie: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(db)
	sel, err := sqlparser.ParseSelect("select m.id from MOVIES m, GENRE g where m.id = g.mid")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Select(sel)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("join produced nothing")
		}
	}
}

// BenchmarkX22JoinSmallOuter measures a hash join whose outer side is one
// row: the paper's MOVIES–CAST–ACTOR join for a single actor id, which plans
// as a: primary-key probe → c: hash join → m: primary-key join. The engine
// hashes the one ACTOR row and scans CAST.aid for it, so nothing is allocated
// per CAST row: allocs/op at movies=20000 must stay within 1.25x of
// movies=2000 (gated in cmd/benchgate/ceilings.json, tracked in
// BENCH_19.json). The large-outer side of the same choice is X14.
func BenchmarkX22JoinSmallOuter(b *testing.B) {
	for _, movies := range []int{2000, 20000} {
		gen := dataset.DefaultGenConfig()
		gen.Movies = movies
		gen.Actors = movies / 2
		db, err := dataset.GenerateMovieDB(gen)
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.New(db)
		b.Run(fmt.Sprintf("movies=%d", movies), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sel, err := sqlparser.ParseSelect(fmt.Sprintf(
					"select m.title from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id and a.id = %d",
					1+(i*7919)%gen.Actors))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Select(sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkX26UnclusteredScan measures the scan behind an actor's entity
// narrative: an equality on CAST.aid, which the table is not ordered by, so
// no zone is skipped and the selection kernel reads all 80 000 rows. scan is
// the bare filter; entity is the /entity request's query (datatotext's
// relatedTuples through CAST), whose scan feeds a primary-key join into
// MOVIES. Each op asks for the next of a fixed set of actors that have cast
// rows; allocs and bytes are gated in cmd/benchgate/ceilings.json.
func BenchmarkX26UnclusteredScan(b *testing.B) {
	gen := dataset.DefaultGenConfig()
	gen.Movies, gen.Actors = 20000, 10000
	db, err := dataset.GenerateMovieDB(gen)
	if err != nil {
		b.Fatal(err)
	}
	if n := db.Table("CAST").Len(); n < 80000 {
		b.Fatalf("CAST holds %d rows, want at least 80000", n)
	}
	eng := engine.New(db)
	for _, arm := range []struct{ name, sql string }{
		{"scan", "select c.mid from CAST c where c.aid = %d"},
		{"entity", "select t.* from CAST v, MOVIES t where v.aid = %d and t.id = v.mid"},
	} {
		var sels []*sqlparser.SelectStmt
		for k := 1; len(sels) < 16; k += 619 {
			sel, err := sqlparser.ParseSelect(fmt.Sprintf(arm.sql, k))
			if err != nil {
				b.Fatal(err)
			}
			if res, err := eng.Select(sel); err != nil {
				b.Fatal(err)
			} else if len(res.Rows) > 0 {
				sels = append(sels, sel)
			}
		}
		b.Run(arm.name, func(b *testing.B) {
			// Two collections empty every sync.Pool, the scan's survivor
			// bitmaps' included, so a one-op reading always pays for its
			// bitmap and repeats from run to run.
			runtime.GC()
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Select(sels[i%len(sels)])
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) == 0 {
					b.Fatal("the actor has no cast rows")
				}
			}
		})
	}
}

// BenchmarkX27BulkInsert measures the one insert path on the bulk load's
// shape: each op is one InsertRows of a 4 096-row CAST chunk — two foreign
// keys probed, a composite primary key, a TEXT column whose roles are new to
// its dictionary — into a generated 20 000-movie database in memory, and the
// version it publishes. The chunk's rows pair 4 096 movies with an actor the
// setup added, and each op's roles are its own; after each op, off the clock,
// the chunk is deleted again (a tail delete), so every op inserts into the
// same table. Allocs and bytes are gated in cmd/benchgate/ceilings.json.
func BenchmarkX27BulkInsert(b *testing.B) {
	const chunk = 4096
	gen := dataset.DefaultGenConfig()
	gen.Movies, gen.Actors = 20000, 10000
	db, err := dataset.GenerateMovieDB(gen)
	if err != nil {
		b.Fatal(err)
	}
	actors := make([]storage.Tuple, 64)
	for a := range actors {
		actors[a] = storage.Tuple{value.NewInt(int64(gen.Actors + 1 + a)), value.NewText(fmt.Sprintf("X27 Actor %d", a))}
	}
	if _, err := db.InsertRows(context.Background(), "ACTOR", actors); err != nil {
		b.Fatal(err)
	}
	rows := make([]storage.Tuple, chunk)
	tail := make([]int, chunk)
	// The collector's background work settles first, so the one-op reading
	// counts the insert alone.
	simtest.SettleAllocs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		aid := int64(gen.Actors + 1 + i%len(actors))
		for r := range rows {
			mid := int64(1 + (i/len(actors)*chunk+r)%gen.Movies)
			rows[r] = storage.Tuple{value.NewInt(mid), value.NewInt(aid), value.NewText(fmt.Sprintf("X27 Role %d-%d", i, r))}
		}
		base := db.Table("CAST").Len()
		b.StartTimer()
		if n, err := db.InsertRows(context.Background(), "CAST", rows); err != nil || n != chunk {
			b.Fatalf("inserted %d of %d rows: %v", n, chunk, err)
		}
		b.StopTimer()
		for r := range tail {
			tail[r] = base + r
		}
		if _, err := db.DeleteAt(context.Background(), "CAST", tail); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkX9ParallelJoin measures the engine's fan-out on a two-table
// hash join at 10k and 100k probe rows, serial vs. all cores: the CAST
// filter keeps nearly every row, so the plan scans MOVIES, hashes it and
// probes it with CAST, and the join step's rows so far (every movie) pass
// parallelThreshold. Each parallel arm first checks that the join step ran
// on more than one worker. On a single-core host the parallel subbenches
// skip with an explanation instead of recording a meaningless 0% speedup:
// workersFor caps at GOMAXPROCS, so serial and parallel are the same
// execution by construction.
func BenchmarkX9ParallelJoin(b *testing.B) {
	src := `select m.title from MOVIES m, CAST c
where m.id = c.mid and c.aid > 100`
	sel, err := sqlparser.ParseSelect(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, movies := range []int{10000, 100000} {
		db, err := dataset.GenerateMovieDB(dataset.GenConfig{
			Seed: 7, Movies: movies, Actors: movies / 4, Directors: movies/100 + 1,
			CastPerMovie: 2, GenresPerMovie: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.New(db)
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(fmt.Sprintf("rows=%d/%s", movies, mode.name), func(b *testing.B) {
				if mode.workers == 0 && runtime.GOMAXPROCS(0) == 1 {
					b.Skip("GOMAXPROCS=1: the fan-out caps at one worker, so this measurement would equal the serial subbench; run on a multi-core host to record parallel speedup")
				}
				eng.SetParallelism(mode.workers)
				if mode.workers == 0 {
					_, plan, err := eng.SelectExplained(sel)
					if err != nil {
						b.Fatal(err)
					}
					if join := plan.Steps[len(plan.Steps)-1]; join.Workers < 2 {
						b.Fatalf("plan %s: the join step ran on %d worker(s)", plan.Fingerprint(), join.Workers)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Select(sel); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkX15MorselAggregate measures the fused vectorized aggregation over
// a single-table 100k scan: group keys and accumulators read the column
// vectors directly (flat array tier over the year domain), one selection
// vector at a time, with the scan either pinned to one worker or free to fan
// out over contiguous ranges, one per worker. Host ns/op varies run to run by
// ~35%, so the gate (benchgate; ceilings from BENCH_41.json) is on allocs and
// bytes — which also prove the parallel scan allocates per worker, not per
// row. The parallel subbench runs serially on a single
// core (the engine's gate gives it one worker); the differential suite
// separately proves any worker count is byte-identical.
func BenchmarkX15MorselAggregate(b *testing.B) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 29, Movies: 100000, Actors: 25000, Directors: 1001,
		CastPerMovie: 1, GenresPerMovie: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(db)
	sel, err := sqlparser.ParseSelect(`select m.year, count(*), min(m.title), avg(m.year)
from MOVIES m where m.year >= 1955 group by m.year`)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			eng.SetParallelism(mode.workers)
			defer eng.SetParallelism(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Select(sel)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}

// BenchmarkX16ZoneSkipScan measures zone-map morsel pruning on selective
// scans over a 256k-row table whose columns are sorted (id, frame-of-
// reference encoded) or clustered (grp; s under a sorted dictionary). Every
// subbench asserts the skipped-morsel counter actually engaged (the smoke
// runs at -benchtime=1x, so a silently rotten skip path fails CI) and reports
// the fraction of morsels skipped as skipratio. Time collapses with pruning
// but is too noisy to gate; the benchgate ceilings (BENCH_6.json) gate allocs
// everywhere and bytes on the text-range workload, where the sorted
// dictionary's rank compares replace the O(dictionary) verdict array (a scan
// without zone maps allocated ~66x more bytes per op, BENCH_6.json). The
// zones=on in each name is kept so the gated names stay stable.
func BenchmarkX16ZoneSkipScan(b *testing.B) {
	db := zoneScanDB(b, 1<<18)
	eng := engine.New(db)
	workloads := []struct{ name, sql string }{
		// Sorted column: FOR-encoded id, tight per-zone bounds.
		{"sorted", `select t.grp, count(*), sum(t.n) from T t
where t.id between 100000 and 103071 group by t.grp`},
		// Clustered column: grp is constant within a zone.
		{"clustered", `select t.grp, count(*), sum(t.n) from T t
where t.grp = 17 group by t.grp`},
		// Sorted dictionary: rank-range compare vs per-entry verdicts.
		{"text-range", `select count(*) from T t
where t.s >= 'u00100000' and t.s < 'u00103072'`},
	}
	for _, w := range workloads {
		sel, err := sqlparser.ParseSelect(w.sql)
		if err != nil {
			b.Fatal(err)
		}
		modes := []struct {
			name    string
			workers int
		}{{"serial", 1}}
		if w.name != "text-range" {
			modes = append(modes, struct {
				name    string
				workers int
			}{"parallel", 0})
		}
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s/%s/zones=on", w.name, mode.name), func(b *testing.B) {
				eng.SetParallelism(mode.workers)
				defer eng.SetParallelism(0)
				// Warm up once: the first ranked read after the load pays the
				// lazy sorted-dict rank rebuild, which would otherwise land
				// entirely in a -benchtime=1x smoke measurement.
				if _, err := eng.Select(sel); err != nil {
					b.Fatal(err)
				}
				engine.ResetZoneSkipStats()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := eng.Select(sel)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) == 0 {
						b.Fatal("selective scan matched nothing")
					}
				}
				b.StopTimer()
				probed, skipped := engine.ZoneSkipStats()
				if skipped == 0 {
					b.Fatal("no morsel was skipped — the pruning path has rotted")
				}
				b.ReportMetric(float64(skipped)/float64(probed), "skipratio")
			})
		}
	}
}

// zoneScanDB builds the X16 table: n rows with a sorted primary key (id, so
// frame-of-reference encoding holds), a zone-clustered group (grp), a small
// payload (n) and a sorted-dictionary text column with one distinct string
// per row — the worst case for verdict-array predicates and the best for
// rank compares.
func zoneScanDB(b *testing.B, n int) *storage.Database {
	b.Helper()
	schema := catalog.NewSchema("zonescan")
	if err := schema.AddRelation(&catalog.Relation{
		Name: "T",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "grp", Type: catalog.Int, NotNull: true},
			{Name: "n", Type: catalog.Int, NotNull: true},
			{Name: "s", Type: catalog.Text, NotNull: true},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		b.Fatal(err)
	}
	db, err := storage.NewDatabase(schema)
	if err != nil {
		b.Fatal(err)
	}
	if err := db.EnableSortedDict("T", "s"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Insert("T", storage.Tuple{
			value.NewInt(int64(i)),
			value.NewInt(int64(i / 4096)),
			value.NewInt(int64(i % 97)),
			value.NewText(fmt.Sprintf("u%08d", i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// ---------------------------------------------------------------------------
// X17: crash recovery
// ---------------------------------------------------------------------------

// BenchmarkX17Recovery measures the two halves of boot-after-crash: replaying
// a WAL of committed statements into an empty database, and loading a
// checkpointed columnar segment (the post-graceful-shutdown path). The disk
// image is built once per shape and cloned per iteration, so each op is one
// full recovery of the same bytes.
//
//   - wal-replay: 50 000 rows of the one-table X17 schema, 100 per record.
//   - checkpoint-load: the same rows as one checkpoint segment with a
//     512-entry dictionary.
//   - checkpoint-load-movies: a checkpoint of a generated movie database
//     (20 000 movies, 10 000 actors): six table segments, which load
//     concurrently, and dictionaries of titles, names and roles.
func BenchmarkX17Recovery(b *testing.B) {
	const rows = 50_000
	const perBatch = 100

	build := func(b *testing.B, checkpoint bool) *wal.MemFS {
		b.Helper()
		fs := wal.NewMemFS()
		db := recoveryBenchDB(b)
		if _, err := db.EnableDurability(fs, storage.DurableOptions{CheckpointBytes: -1}); err != nil {
			b.Fatal(err)
		}
		batch := make([]storage.Tuple, perBatch)
		for i := 0; i < rows; i += perBatch {
			for j := range batch {
				batch[j] = storage.Tuple{
					value.NewInt(int64(i + j)),
					value.NewInt(int64((i + j) / 4096)),
					value.NewInt(int64((i + j) % 97)),
					value.NewText(fmt.Sprintf("u%08d", (i+j)%512)),
				}
			}
			if _, err := db.InsertRows(context.Background(), "T", batch); err != nil {
				b.Fatal(err)
			}
		}
		if checkpoint {
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.CloseDurability(); err != nil {
			b.Fatal(err)
		}
		return fs
	}
	movieSchema := func(b *testing.B) *storage.Database {
		db, err := storage.NewDatabase(dataset.MovieSchema())
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	// buildMovies checkpoints the generated database — EnableDurability on a
	// populated database writes its first checkpoint — and returns the disk
	// and its row count.
	buildMovies := func(b *testing.B) (*wal.MemFS, int) {
		b.Helper()
		cfg := dataset.DefaultGenConfig()
		cfg.Movies, cfg.Actors = 20_000, 10_000
		db, err := dataset.GenerateMovieDB(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fs := wal.NewMemFS()
		if _, err := db.EnableDurability(fs, storage.DurableOptions{CheckpointBytes: -1}); err != nil {
			b.Fatal(err)
		}
		if err := db.CloseDurability(); err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, name := range db.TableNames() {
			n += db.Table(name).Len()
		}
		return fs, n
	}

	for _, shape := range []struct {
		name     string
		empty    func(b *testing.B) *storage.Database
		disk     func(b *testing.B) (*wal.MemFS, int)
		replayed int
	}{
		{"wal-replay", recoveryBenchDB, func(b *testing.B) (*wal.MemFS, int) { return build(b, false), rows }, rows / perBatch},
		{"checkpoint-load", recoveryBenchDB, func(b *testing.B) (*wal.MemFS, int) { return build(b, true), rows }, 0},
		{"checkpoint-load-movies", movieSchema, buildMovies, 0},
	} {
		b.Run(shape.name, func(b *testing.B) {
			disk, want := shape.disk(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db := shape.empty(b)
				report, err := db.EnableDurability(disk.Clone(), storage.DurableOptions{CheckpointBytes: -1})
				if err != nil {
					b.Fatal(err)
				}
				if report.Rows != want || !report.Clean() {
					b.Fatalf("recovery: rows=%d (want %d) clean=%v", report.Rows, want, report.Clean())
				}
				if report.ReplayedBatches != shape.replayed {
					b.Fatalf("replayed %d batches, want %d", report.ReplayedBatches, shape.replayed)
				}
			}
			b.ReportMetric(float64(want)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkX18SnapshotReadDuringWrite measures the reader side of MVCC
// snapshot reads. Each op is one full Ask (parse, translate, plan, execute,
// narrate) over a generated movie database through a durable System with the
// response cache disabled, so allocs/op is the whole read pipeline and stays
// deterministic.
//
//   - solo: the reader alone — the pure reader allocation baseline.
//   - vs-writer: every read races one durable INSERT commit (WAL append +
//     fsync) kicked off just before it and joined just after, so reader and
//     writer are concurrently runnable for the whole op. Readers pin a
//     snapshot and never take the writer's locks; the reads-during-commit
//     metric counts ops that completed while at least one version install
//     landed — wall-clock overlap the old reader/writer lock made impossible.
//
// Allocation gating: both shapes are gated in cmd/benchgate/ceilings.json
// (vs-writer includes the one paced insert commit per op, which is itself
// deterministic). Time is not gated, per the bench-host discipline.
func BenchmarkX18SnapshotReadDuringWrite(b *testing.B) {
	build := func(b *testing.B) *core.System {
		b.Helper()
		gen := dataset.DefaultGenConfig()
		gen.Movies = 2000
		gen.Actors = 1000
		db, err := dataset.GenerateMovieDB(gen)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.MovieConfig()
		cfg.DisableCache = true
		sys, _, err := core.NewDurable(db, wal.NewMemFS(), storage.DurableOptions{CheckpointBytes: -1}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}
	const readQ = `select count(*) from MOVIES m where m.year >= 1980`

	b.Run("solo", func(b *testing.B) {
		sys := build(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := sys.Ask(readQ)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Result == nil || len(resp.Result.Rows) != 1 {
				b.Fatal("bad read result")
			}
		}
	})

	b.Run("vs-writer", func(b *testing.B) {
		sys := build(b)
		db := sys.Database()
		reqs := make(chan int)
		acks := make(chan error)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range reqs {
				_, err := sys.Ask(fmt.Sprintf(
					"insert into ACTOR (id, name) values (%d, 'x18 writer %d')", 1_000_000+i, i%13))
				acks <- err
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		during := 0
		for i := 0; i < b.N; i++ {
			p0 := db.Published()
			reqs <- i // the commit is now in flight
			resp, err := sys.Ask(readQ)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Result == nil || len(resp.Result.Rows) != 1 {
				b.Fatal("bad read result")
			}
			overlapped := db.Published() != p0
			if err := <-acks; err != nil {
				b.Fatal(err)
			}
			if overlapped {
				during++
			}
		}
		b.StopTimer()
		close(reqs)
		wg.Wait()
		_, completed, _ := sys.ReaderStats()
		if completed < uint64(b.N) {
			b.Fatalf("reader counter undercounts: %d < %d", completed, b.N)
		}
		b.ReportMetric(float64(during)/float64(b.N)*100, "%reads-during-commit")
	})
}

// BenchmarkX19OverloadShed measures what overload costs the victims: with a
// 1-query admission limit held by a writer wedged in an injected slow fsync
// (FaultFS holds its WAL sync until the measured loop is over, and the loop
// starts only once the commit is inside it, so the writer's own allocations
// stay out of the meter), each op is one request hitting the full valve —
// instant shed, OverloadError, narrated answer. The op must
// return in microseconds even though the admitted query is stalled in disk
// I/O for five orders of magnitude longer: shedding is gated on the valve,
// never on the stalled disk. Every op asserts its latency stayed under the
// 100ms request deadline; the max observed shed latency is reported as a
// metric.
//
// Allocation gating: the shed path (context timer, valve bookkeeping, error,
// narration) is deterministic and gated in cmd/benchgate/ceilings.json. Time
// is not gated, per the bench-host discipline.
func BenchmarkX19OverloadShed(b *testing.B) {
	b.Run("instant-shed", func(b *testing.B) {
		ffs := wal.NewFaultFS(wal.NewMemFS())
		db, err := dataset.CuratedMovieDB()
		if err != nil {
			b.Fatal(err)
		}
		sys, _, err := core.NewDurable(db, ffs, storage.DurableOptions{CheckpointBytes: -1}, core.MovieConfig())
		if err != nil {
			b.Fatal(err)
		}
		// One sync that outlasts any measured loop; ClearFaults ends it.
		ffs.DelaySyncs(time.Hour)
		adm := core.NewAdmission(1, 0)

		// The admitted query: holds the single execution slot for the whole
		// benchmark, its commit wedged in the delayed fsync.
		release, err := adm.Acquire(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release()
			if _, err := sys.Ask("insert into ACTOR (id, name) values (2000000, 'x19 stalled writer')"); err != nil {
				b.Error(err)
			}
		}()
		// Meter the shed path alone: the writer allocates nothing more once
		// its commit is inside the fsync.
		for ffs.StalledSyncs() == 0 {
			time.Sleep(time.Millisecond)
		}

		const deadline = 100 * time.Millisecond
		shed := func() time.Duration {
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			start := time.Now()
			rel, err := adm.Acquire(ctx)
			elapsed := time.Since(start)
			cancel()
			if err == nil {
				rel()
				b.Fatal("request admitted past a full valve")
			}
			var ov *core.OverloadError
			if !errors.As(err, &ov) {
				b.Fatalf("shed returned %v, want OverloadError", err)
			}
			if ans := querytotext.OverloadEnglish(ov.Running, ov.Waiting, ov.Limit, ov.Waited, ov.TimedOut); ans == "" {
				b.Fatal("empty shed narration")
			}
			if elapsed >= deadline {
				b.Fatalf("shed request held %v, deadline %v — shedding is gated on the stalled disk", elapsed, deadline)
			}
			return elapsed
		}
		// The settling GC empties the sync.Pools the narration's fmt calls
		// draw from; one unmetered shed refills them, so the window holds
		// what a shed costs in steady state.
		simtest.SettleAllocs()
		shed()
		var maxShed time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			maxShed = max(maxShed, shed())
		}
		b.StopTimer()
		ffs.ClearFaults()
		wg.Wait()
		b.ReportMetric(float64(maxShed.Nanoseconds()), "max-shed-ns")
	})
}

// recoveryBenchDB builds the empty X17 schema: the X16 shape (sorted Int PK
// so frame-of-reference encoding holds, a clustered group, a small payload,
// a 512-entry text dictionary) so the checkpoint exercises every column
// encoder the segment writer has.
func recoveryBenchDB(b *testing.B) *storage.Database {
	b.Helper()
	schema := catalog.NewSchema("recovery")
	if err := schema.AddRelation(&catalog.Relation{
		Name: "T",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "grp", Type: catalog.Int, NotNull: true},
			{Name: "n", Type: catalog.Int, NotNull: true},
			{Name: "s", Type: catalog.Text, NotNull: true},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		b.Fatal(err)
	}
	db, err := storage.NewDatabase(schema)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// ---------------------------------------------------------------------------
// X20: WAL-shipping replication
// ---------------------------------------------------------------------------

// BenchmarkX20Replication measures the replication pipeline end to end over
// loopback TCP, primary and follower in one process so allocations on both
// sides of the wire land in the same meter.
//
//   - replicated-commit: each op is one durable INSERT committed on the
//     primary and waited onto the follower — WAL append + fsync + commit-sink
//     copy on one side, frame decode + record-atomic apply + version publish +
//     ack on the other. ns/op is dominated by the convergence wait (loopback
//     latency), which is exactly the point: commits themselves never wait.
//   - follower-catchup: each op is one cold follower joining a primary with a
//     seeded checkpoint and a 1000-record log — the full re-seed + replay
//     path a rebuilt replica takes, reported as records/s.
//
// Allocation gating: both shapes move a fixed record count through a fixed
// pipeline, so allocs/op is deterministic and gated in
// cmd/benchgate/ceilings.json. Time is not gated, per the bench-host
// discipline.
func BenchmarkX20Replication(b *testing.B) {
	startPrimary := func(b *testing.B) (*storage.Database, *repl.Primary, string) {
		b.Helper()
		db, err := dataset.CuratedMovieDB()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.EnableDurability(wal.NewMemFS(), storage.DurableOptions{CheckpointBytes: -1}); err != nil {
			b.Fatal(err)
		}
		p, err := repl.NewPrimary(db, repl.PrimaryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		p.Start(ln)
		return db, p, ln.Addr().String()
	}
	startFollower := func(b *testing.B, addr string) *repl.Follower {
		b.Helper()
		fdb, err := storage.NewDatabase(dataset.MovieSchema())
		if err != nil {
			b.Fatal(err)
		}
		f, err := repl.StartFollower(fdb, repl.FollowerOptions{Addr: addr})
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	waitApplied := func(b *testing.B, f *repl.Follower, seq uint64) {
		b.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for f.Status().AppliedSeq < seq {
			if q := f.Quarantined(); q != nil {
				b.Fatalf("follower quarantined at %d: %s", q.Seq, q.Reason)
			}
			if time.Now().After(deadline) {
				b.Fatalf("follower stuck at %d, want %d", f.Status().AppliedSeq, seq)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}

	b.Run("replicated-commit", func(b *testing.B) {
		db, p, addr := startPrimary(b)
		defer func() {
			p.Close()
			if err := db.CloseDurability(); err != nil {
				b.Fatal(err)
			}
		}()
		f := startFollower(b, addr)
		defer f.Close()
		waitApplied(b, f, p.Stats().LastSeq) // baseline re-seed off the clock
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Insert("ACTOR", storage.Tuple{
				value.NewInt(int64(3_000_000 + i)), value.NewText("x20 replicated"),
			}); err != nil {
				b.Fatal(err)
			}
			waitApplied(b, f, p.Stats().LastSeq)
		}
		b.StopTimer()
		st := p.Stats()
		if st.Dropped != 0 || len(st.Followers) != 1 {
			b.Fatalf("primary stats after run: %+v", st)
		}
	})

	b.Run("follower-catchup", func(b *testing.B) {
		const records = 1000
		db, p, addr := startPrimary(b)
		defer func() {
			p.Close()
			if err := db.CloseDurability(); err != nil {
				b.Fatal(err)
			}
		}()
		for i := 0; i < records; i++ {
			if err := db.Insert("ACTOR", storage.Tuple{
				value.NewInt(int64(4_000_000 + i)), value.NewText("x20 backlog"),
			}); err != nil {
				b.Fatal(err)
			}
		}
		last := p.Stats().LastSeq
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := startFollower(b, addr)
			waitApplied(b, f, last)
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}

// BenchmarkX21KeyedDML measures the write statements durable_write sends,
// through the same call talkbackd makes: core.AskContext with a deadline
// budget bound, durable on wal.MemFS, over a 20 000-row generated MOVIES.
//
//   - update-by-key: one UPDATE … WHERE id = K per op, K striding the table.
//   - insert+delete-by-key: one INSERT of a fresh id and one DELETE … WHERE
//     id = K of that tail row per op, so the table size stays fixed.
//   - quarter-table-update: one UPDATE over a 15-year span (a quarter of the
//     rows) per op, shifting it a century forward and back in alternation.
//
// A keyed statement must cost the rows it touches — a PK probe, one copy of
// the chunks a published snapshot shares, the row's values subtracted from
// and folded into its zones — not a pass over the table. Allocs and bytes are gated in cmd/benchgate/ceilings.json; one
// warm-up op runs off the clock so -benchtime=1x measures the steady state.
// Each shape also reports the WAL bytes its statements log per op (logB/op,
// the log's growth in DurabilityStats; the log never checkpoints here).
func BenchmarkX21KeyedDML(b *testing.B) {
	const rows = 20_000
	build := func(b *testing.B) (*core.System, *storage.Database) {
		b.Helper()
		gen := dataset.DefaultGenConfig()
		gen.Movies = rows
		gen.Actors = rows / 2
		db, err := dataset.GenerateMovieDB(gen)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.MovieConfig()
		cfg.DisableCache = true
		sys, _, err := core.NewDurable(db, wal.NewMemFS(), storage.DurableOptions{CheckpointBytes: -1}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return sys, db
	}
	walBytes := func(b *testing.B, db *storage.Database) int64 {
		b.Helper()
		st, ok := db.DurabilityStats()
		if !ok {
			b.Fatal("the database is not durable")
		}
		return st.WALBytes
	}
	ask := func(b *testing.B, sys *core.System, want int, sql string) {
		b.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		resp, err := sys.AskContext(ctx, sql)
		cancel()
		if err != nil {
			b.Fatalf("%s: %v", sql, err)
		}
		if want >= 0 && resp.Affected != want {
			b.Fatalf("%s: affected %d rows, want %d", sql, resp.Affected, want)
		}
	}
	for _, shape := range []struct {
		name string
		op   func(b *testing.B, sys *core.System, i int)
	}{
		{"update-by-key", func(b *testing.B, sys *core.System, i int) {
			ask(b, sys, 1, fmt.Sprintf("update MOVIES set year = %d where id = %d", 1950+i%60, 1+(i*7919)%rows))
		}},
		{"insert+delete-by-key", func(b *testing.B, sys *core.System, i int) {
			id := 1_000_000 + i
			ask(b, sys, 1, fmt.Sprintf("insert into MOVIES (id, title, year) values (%d, 'X21 %d', %d)", id, id, 1950+i%60))
			ask(b, sys, 1, fmt.Sprintf("delete from MOVIES where id = %d", id))
		}},
		{"quarter-table-update", func(b *testing.B, sys *core.System, i int) {
			if i%2 == 0 {
				ask(b, sys, -1, "update MOVIES set year = year + 100 where year between 1950 and 1964")
			} else {
				ask(b, sys, -1, "update MOVIES set year = year - 100 where year between 2050 and 2064")
			}
		}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			sys, db := build(b)
			shape.op(b, sys, 0)
			shape.op(b, sys, 1)
			logged := walBytes(b, db)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shape.op(b, sys, i+2)
			}
			b.StopTimer()
			b.ReportMetric(float64(walBytes(b, db)-logged)/float64(b.N), "logB/op")
		})
	}
}

// BenchmarkX23PaperNested runs the paper's path query Q1 and its nested
// queries — Q5 (IN chain, Q1's nested twin), Q6 (double NOT EXISTS), Q7
// (correlated scalar subquery in HAVING) and Q9 (correlated <= ALL) — through
// engine.Select on a 200-movie generated DB. Every subquery runs once per
// outer row, planned and compiled per invocation, so this is where the cost
// of subquery execution shows; allocs are gated in
// cmd/benchgate/ceilings.json.
func BenchmarkX23PaperNested(b *testing.B) {
	db, err := dataset.GenerateMovieDB(dataset.GenConfig{
		Seed: 23, Movies: 200, Actors: 80, Directors: 16,
		CastPerMovie: 2, GenresPerMovie: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(db)
	for _, label := range []string{"Q1", "Q5", "Q6", "Q7", "Q9"} {
		sel, err := sqlparser.ParseSelect(sqlparser.PaperQueries[label])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Select(sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
