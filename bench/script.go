package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"

	"repro/internal/storage"
	"repro/internal/value"
)

// class tags a scripted request with the path it takes through the server,
// so a latency percentile can be attributed to one kind of work.
type class uint8

const (
	classHit      class = iota // /ask answered from the response cache
	classMiss                  // /ask point lookup the response cache does not hold
	classAsk                   // /ask of a never-repeated text: the whole pipeline runs
	classDescribe              // POST /describe: parse + translate, no execution
	classEntity                // GET /entity: data→text narration
	classWrite                 // /ask DML
	numClasses
)

var classNames = [numClasses]string{"hit", "miss", "ask", "describe", "entity", "write"}

// request is one scripted HTTP exchange with the oracle's verdict attached.
type request struct {
	path string // path and query
	body []byte // JSON body of a POST; nil means GET
	sql  string // the statement inside body, for the in-process replay
	// entRel and entID name the entity of a GET /entity, for the same replay.
	entRel string
	entID  int64
	// apply is a DML statement's mutation as direct storage calls, which the
	// replay times to split the storage layer from the engine above it.
	apply func(*storage.Database) (int, error)
	class class
	// key ≥ 0 marks a hot statement that recurs: its first reply is checked
	// against the oracle and every later reply must equal it byte for byte.
	// key < 0 is a one-off whose reply is kept and checked after the phase.
	key   int
	check func(reply []byte) error
}

// workload is one of the four scripted traffic shapes. perWindow is sized so
// a window, yardstick bursts included, lasts about windowSeconds at the speed
// measured when the benchmark was defined; it is a whole number of script
// cycles, so every window holds the same mix of work.
type workload struct {
	name      string
	why       string
	scale     int  // talkbackd -scale
	durable   bool // talkbackd -data <fresh directory>
	tail      int  // > 0: boot recovers a prepared checkpoint plus this many WAL records
	perWindow int
	slice     int // requests between two yardstick bursts, about 30 ms; divides perWindow
	build     func(g *scriptGen, timed int) (warm, script []request)
}

// windowSeconds is the nominal window length perWindow is sized for.
const windowSeconds = 0.75

// Scripted writes use ids no generated row has: the prepared WAL tail of
// read_write_mix holds tailBase+1.., scripted INSERTs scriptBase+1.., and the
// traced run's route probe probeBase+1...
const (
	tailBase   = 1_000_000
	scriptBase = 2_000_000
	probeBase  = 9_000_000
)

var workloads = []*workload{
	{
		name:      "hot_ask",
		why:       "64 SELECTs replayed from the response cache: HTTP, admission, NormalizeSQL and the cache lookup do all the work, the engine none",
		scale:     20000,
		perWindow: 4000,
		slice:     200,
		build:     buildHotAsk,
	},
	{
		name:      "cold_talkback",
		why:       "never-repeated /ask, /describe and /entity texts: every cache misses, so parse, translate, plan, execute, narrate, feedback and entity narration do the work",
		scale:     20000,
		perWindow: 128,
		slice:     8,
		build:     buildColdTalkback,
	},
	{
		name:      "durable_write",
		why:       "one DML per request on -data with fsync and auto-checkpoints: batch encode, WAL append, fsync, freeze + publish and checkpoint stalls dominate",
		scale:     20000,
		durable:   true,
		perWindow: 100,
		slice:     5,
		build:     buildDurableWrite,
	},
	{
		name:      "read_write_mix",
		why:       "recovered server, each durable INSERT invalidates hot keys read once as a miss and twice as a hit: a hit-path gain paid for by dearer Put or publish shows as a loss",
		scale:     60000,
		durable:   true,
		tail:      20000,
		perWindow: 2376,
		slice:     88,
		build:     buildReadWriteMix,
	},
}

// workloadByName finds name in a table of workloads (the four above, or a
// test's scaled-down copies).
func workloadByName(ws []*workload, name string) *workload {
	for _, w := range ws {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scriptGen draws a workload's requests from the seed. The server never sees
// the seed, only the requests.
type scriptGen struct {
	rng    *rand.Rand
	o      *oracle
	seen   map[string]bool // every statement text drawn so far
	keys   int             // hot keys handed out
	nextID int64           // id of the next scripted INSERT
	live   []int64         // scripted INSERTs not yet deleted, oldest first
}

func newScriptGen(seed int64, o *oracle) *scriptGen {
	return &scriptGen{rng: rand.New(rand.NewSource(seed)), o: o, seen: map[string]bool{}, nextID: scriptBase}
}

// post builds a request carrying sql as talkbackd's JSON body.
func post(path, sql string, c class, check func([]byte) error) request {
	body, _ := json.Marshal(map[string]string{"sql": sql})
	return request{path: path, body: body, sql: sql, class: c, key: -1, check: check}
}

// fresh draws statements until one has not been used before: a repeated text
// would be a cache hit where the script promises a miss.
func (g *scriptGen) fresh(draw func() string) string {
	for {
		s := draw()
		if !g.seen[s] {
			g.seen[s] = true
			return s
		}
	}
}

// sel builds an /ask SELECT whose answer must be rows; the empty- and
// large-answer explanations must appear exactly when the answer is empty or
// beyond talkbackd's default threshold of 100 rows.
func sel(c class, sql string, rows [][]string) request {
	return post("/ask", sql, c, wantRows(rows, len(rows) == 0 || len(rows) > 100))
}

func (g *scriptGen) movieID() int64 { return 1 + g.rng.Int63n(int64(g.o.nMovies)) }
func (g *scriptGen) actorID() int64 { return 1 + g.rng.Int63n(int64(len(g.o.actorNames))) }

// pointLookup is a primary-key SELECT on MOVIES or ACTOR.
func (g *scriptGen) pointLookup(c class) request {
	var rows [][]string
	sql := g.fresh(func() string {
		if g.rng.Intn(3) == 0 {
			id := g.actorID()
			rows = [][]string{{g.o.actorNames[id-1]}}
			return fmt.Sprintf("select a.name from ACTOR a where a.id = %d", id)
		}
		id := g.movieID()
		m := g.o.movies[id]
		rows = [][]string{{m.title, fmt.Sprint(m.year)}}
		return fmt.Sprintf("select m.title, m.year from MOVIES m where m.id = %d", id)
	})
	return sel(c, sql, rows)
}

const threeWayJoin = "select m.title from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id and "

// hotKeys returns n recurring statements: point lookups plus `joins` copies
// of the paper's Brad-Pitt three-way join, each on another actor name.
func (g *scriptGen) hotKeys(n, joins int) []request {
	names := make([]string, 0, len(g.o.nameActors))
	for name := range g.o.nameActors {
		names = append(names, name)
	}
	sort.Strings(names)
	keys := make([]request, n)
	for i := range keys {
		if i < joins {
			var name string
			sql := g.fresh(func() string {
				name = names[g.rng.Intn(len(names))]
				return threeWayJoin + fmt.Sprintf("a.name = '%s'", name)
			})
			keys[i] = sel(classHit, sql, g.o.titlesOfActors(g.o.nameActors[name]...))
		} else {
			keys[i] = g.pointLookup(classHit)
		}
		keys[i].key = g.keys
		g.keys++
	}
	return keys
}

func buildHotAsk(g *scriptGen, timed int) (warm, script []request) {
	// 61 + 3: the joins' 15 KB replies are under 5 % of requests, so p50 and
	// p90 both sit more than five points inside the point-lookup class.
	warm = g.hotKeys(64, 3)
	for len(script) < timed {
		script = append(script, warm[g.rng.Intn(len(warm))])
	}
	return warm, script
}

// coldCycle is cold_talkback's unit of eight one-off requests: five /ask
// templates, two /describe and one /entity (MOVIES when even, ACTOR when odd).
func (g *scriptGen) coldCycle(i int) []request {
	o := g.o
	var out []request

	var aid int64
	sql := g.fresh(func() string { aid = g.actorID(); return threeWayJoin + fmt.Sprintf("a.id = %d", aid) })
	out = append(out, sel(classAsk, sql, o.titlesOfActors(aid)))

	var k int64
	sql = g.fresh(func() string {
		k = g.movieID()
		return fmt.Sprintf("select g.genre, count(*) from GENRE g where g.mid > %d group by g.genre", k)
	})
	out = append(out, sel(classAsk, sql, o.genreCountsAbove(k)))

	var lo, hi int64
	sql = g.fresh(func() string {
		lo = g.movieID()
		hi = lo + 10 + g.rng.Int63n(40)
		return fmt.Sprintf("select m.title from MOVIES m where m.id between %d and %d", lo, hi)
	})
	out = append(out, sel(classAsk, sql, o.titlesWhere(func(id int64, _ movie) bool { return id >= lo && id <= hi })))

	// No year reaches 3000 — generated and scripted years end at 2009 and
	// durable_write's shifts add a century at most: an empty answer, explained.
	sql = g.fresh(func() string {
		return fmt.Sprintf("select m.title from MOVIES m where m.year = 3000 and m.id < %d", g.movieID())
	})
	out = append(out, sel(classAsk, sql, nil))

	// Some forty movies' cast entries, about four each: a large answer, explained.
	var rows [][]string
	sql = g.fresh(func() string {
		for {
			lo = g.movieID()
			hi = lo + 40 + g.rng.Int63n(20)
			if rows = o.rolesBetween(lo, hi); len(rows) > 100 {
				return fmt.Sprintf("select c.role from CAST c where c.mid between %d and %d", lo, hi)
			}
		}
	})
	out = append(out, sel(classAsk, sql, rows))

	for _, draw := range []func() string{
		func() string {
			return fmt.Sprintf("select m.title from MOVIES m, DIRECTED d where m.id = d.mid and d.did = %d and m.year > %d and m.id > %d",
				1+g.rng.Intn(80), 1950+g.rng.Intn(60), g.movieID())
		},
		func() string {
			return fmt.Sprintf("select a.name from ACTOR a, CAST c where a.id = c.aid and c.mid = %d and a.id <> %d", g.movieID(), g.actorID())
		},
	} {
		out = append(out, post("/describe", g.fresh(draw), classDescribe, wantText("text", "Find")))
	}

	rel, id, want := "MOVIES", g.movieID(), []string(nil)
	if i%2 == 0 {
		m := o.movies[id]
		want = []string{m.title, fmt.Sprint(m.year)}
	} else {
		rel, id = "ACTOR", g.actorID()
		for len(o.actorMovies[id-1]) == 0 {
			id = g.actorID()
		}
		want = []string{o.actorNames[id-1]}
		for _, r := range o.titlesOfActors(id) {
			want = append(want, r[0])
		}
	}
	ent := request{
		path:  "/entity?" + url.Values{"rel": {rel}, "attr": {"id"}, "value": {fmt.Sprint(id)}}.Encode(),
		class: classEntity, key: -1, entRel: rel, entID: id,
		check: wantText("narrative", want...),
	}
	return append(out, ent)
}

func buildColdTalkback(g *scriptGen, timed int) (warm, script []request) {
	warm = append(g.coldCycle(0), g.coldCycle(1)...)
	for i := 0; len(script) < timed; i++ {
		script = append(script, g.coldCycle(i)...)
	}
	return warm, script[:timed]
}

func dml(sql string, affected int, apply func(*storage.Database) (int, error)) request {
	r := post("/ask", sql, classWrite, wantAffected(affected))
	r.apply = apply
	return r
}

// insert scripts one single-row INSERT into MOVIES.
func (g *scriptGen) insert() request {
	g.nextID++
	id, year := g.nextID, 1950+g.rng.Int63n(60)
	title := fmt.Sprintf("Scripted %d", id)
	g.o.insert(id, title, year)
	g.live = append(g.live, id)
	return dml(fmt.Sprintf("insert into MOVIES (id, title, year) values (%d, '%s', %d)", id, title, year), 1,
		func(db *storage.Database) (int, error) {
			return 1, db.Insert("MOVIES", storage.Tuple{value.NewInt(id), value.NewText(title), value.NewInt(year)})
		})
}

// setYear builds the storage form of UPDATE MOVIES SET year = … WHERE pred.
func setYear(pred func(storage.Tuple) bool, year func(old int64) int64) func(*storage.Database) (int, error) {
	return func(db *storage.Database) (int, error) {
		return db.Update("MOVIES", pred, func(t storage.Tuple) storage.Tuple {
			t[2] = value.NewInt(year(t[2].Int()))
			return t
		})
	}
}

// writeCycle is durable_write's unit of 25 statements: eight times INSERT a
// row, UPDATE a generated row by key, DELETE the oldest scripted row; then
// one UPDATE that shifts every movie of a 15-year span (a quarter of the
// table, about 165 KB of log) a century forward or back, which is what fills
// the 4 MiB log to its checkpoints.
func (g *scriptGen) writeCycle(i int) []request {
	var out []request
	for j := 0; j < 8; j++ {
		out = append(out, g.insert())
		id, year := g.movieID(), 1950+g.rng.Int63n(60)
		g.o.setYear(id, year)
		out = append(out, dml(fmt.Sprintf("update MOVIES set year = %d where id = %d", year, id), 1,
			setYear(func(t storage.Tuple) bool { return t[0].Int() == id }, func(int64) int64 { return year })))
		del := g.live[0]
		g.live = g.live[1:]
		delete(g.o.movies, del)
		out = append(out, dml(fmt.Sprintf("delete from MOVIES where id = %d", del), 1,
			func(db *storage.Database) (int, error) {
				return db.Delete("MOVIES", func(t storage.Tuple) bool { return t[0].Int() == del })
			}))
	}
	lo, shift, op := int64(1950+15*(i%4)), int64(100), "+"
	if (i/4)%2 == 1 {
		lo, shift, op = lo+100, -100, "-"
	}
	hi := lo + 14
	sql := fmt.Sprintf("update MOVIES set year = year %s 100 where year between %d and %d", op, lo, hi)
	return append(out, dml(sql, g.o.shiftYears(lo, hi, shift),
		setYear(func(t storage.Tuple) bool { return t[2].Int() >= lo && t[2].Int() <= hi }, func(y int64) int64 { return y + shift })))
}

func buildDurableWrite(g *scriptGen, timed int) (warm, script []request) {
	// Eight rows for the first cycle's DELETEs to find.
	for i := 0; i < 8; i++ {
		warm = append(warm, g.insert())
	}
	for i := 0; len(script) < timed; i++ {
		script = append(script, g.writeCycle(i)...)
	}
	return warm, script[:timed]
}

// mixKeys is how many hot keys follow each INSERT of read_write_mix. With
// seven, a cycle of 22 is 1 write, 7 misses and 14 hits: p50 falls 13 points
// inside the hits and p90 five points inside the misses.
const mixKeys = 7

func buildReadWriteMix(g *scriptGen, timed int) (warm, script []request) {
	// Point lookups only: the scripted INSERTs take fresh ids, so no hot
	// reply ever changes and byte equality with the first reply holds.
	warm = g.hotKeys(64, 0)
	for len(script) < timed {
		script = append(script, g.insert())
		for _, k := range g.rng.Perm(len(warm))[:mixKeys] {
			miss, hit := warm[k], warm[k]
			miss.class = classMiss
			script = append(script, miss, hit, hit)
		}
	}
	return warm, script[:timed]
}

// buildProbe scripts the traced run's route probe: a few requests of every
// class, sent after the workload's own script, so each per-route latency is
// measured on every workload's server.
func buildProbe(g *scriptGen) []request {
	const n = 40
	var out []request
	for i := 0; i < 8; i++ {
		out = append(out, g.coldCycle(i)...)
	}
	hot := g.hotKeys(1, 0)[0]
	first := hot
	first.class = classMiss
	out = append(out, first)
	for i := 0; i < n; i++ {
		out = append(out, hot)
	}
	for i := 0; i < n; i++ {
		out = append(out, g.pointLookup(classMiss))
	}
	g.nextID = probeBase
	for i := 0; i < n; i++ {
		out = append(out, g.insert())
	}
	return out
}

// readBack scripts the durability check: the whole of MOVIES, read in id
// ranges from a server restarted after SIGKILL, must equal the oracle — which
// holds exactly the acknowledged writes.
func readBack(o *oracle) []request {
	const chunk = 5000
	var out []request
	for lo := int64(1); ; lo += chunk {
		hi := lo + chunk - 1
		cond := fmt.Sprintf("m.id between %d and %d", lo, hi)
		if lo > int64(o.nMovies) {
			hi = 1 << 62
			cond = fmt.Sprintf("m.id >= %d", lo)
		}
		var rows [][]string
		for id, m := range o.movies {
			if id >= lo && id <= hi {
				rows = append(rows, []string{fmt.Sprint(id), m.title, fmt.Sprint(m.year)})
			}
		}
		out = append(out, sel(classAsk, "select m.id, m.title, m.year from MOVIES m where "+cond, rows))
		if hi == 1<<62 {
			return out
		}
	}
}

// scriptSHA256 fingerprints the requests a run sends, in order.
func scriptSHA256(parts ...[]request) string {
	h := sha256.New()
	for _, p := range parts {
		for _, r := range p {
			fmt.Fprintf(h, "%s\n%s\n", r.path, r.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scriptedHitRatio is the response-cache hit ratio the script itself fixes:
// every /ask looks the cache up once, and only class hit finds its entry.
func scriptedHitRatio(script []request) float64 {
	var hits, lookups float64
	for _, r := range script {
		switch r.class {
		case classHit:
			hits++
			lookups++
		case classMiss, classAsk, classWrite:
			lookups++
		}
	}
	if lookups == 0 {
		return 0
	}
	return hits / lookups
}
