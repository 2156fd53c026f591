package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// metric is one named number of a run, in the order BENCHMARK.json lists it.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one run of one workload produced.
type result struct {
	workload   string
	seed       int64
	scriptSHA  string
	attempted  int
	failed     int
	correct    bool
	windows    int
	metrics    []metric           // end-to-end metrics, or per-layer metrics of a traced run
	raw        []metric           // the end-to-end estimators before division by the yardstick, and peak RSS
	counters   map[string]float64 // GET /stats deltas around the timed phase
	hitRatio   float64            // response-cache hit ratio the script fixes
	classP50ms [numClasses]float64
	notes      []string
}

// bootsPerRun is how often a run boots its server from identical initial
// state; setup_s is the median boot. bootBursts yardstick bursts (40 ms) are
// taken on each side of a boot.
const (
	bootsPerRun = 3
	bootBursts  = 5
)

// player sends scripted requests to one server at a time and keeps the
// verdicts. Hot replies are compared with their first, oracle-checked copy;
// one-off replies are kept and checked once the phase is over, so the oracle
// costs the timed loop nothing.
type player struct {
	srv    *server
	golden [][]byte
	kept   []keptReply
	buf    bytes.Buffer

	failed   int
	notes    []string
	bytes    int64 // reply bytes of successful requests
	plans    int   // kept /ask replies that name a plan
	fallback int   // … whose plan is the naive interpreter's
}

type keptReply struct {
	req  *request
	body []byte
	lat  *int64
}

func (p *player) fail(lat *int64, format string, args ...any) {
	*lat = -1
	p.failed++
	if len(p.notes) < 5 {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

// exchange performs one HTTP exchange on the server's single keep-alive
// connection and leaves the reply in buf.
func (srv *server) exchange(path string, body []byte, buf *bytes.Buffer) (status int, err error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, srv.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := srv.http.Do(hr)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// play sends reqs in order, closed loop, over the server's one connection.
// lat[i] receives request i's latency in nanoseconds, or -1 if it failed: a
// transport error, a status other than 200 or a reply the oracle rejects.
func (p *player) play(reqs []request, lat []int64) {
	for i := range reqs {
		r := &reqs[i]
		start := time.Now()
		status, err := p.srv.exchange(r.path, r.body, &p.buf)
		lat[i] = int64(time.Since(start))
		reply := p.buf.Bytes()
		switch {
		case err != nil:
			p.fail(&lat[i], "%s: %v", r.path, err)
		case status != http.StatusOK:
			p.fail(&lat[i], "%s %s: status %d: %.200s", r.path, r.sql, status, reply)
		case r.key >= 0 && p.golden[r.key] != nil:
			if !bytes.Equal(reply, p.golden[r.key]) {
				p.fail(&lat[i], "%s: reply differs from the first reply to the same statement", r.sql)
			}
		default:
			p.kept = append(p.kept, keptReply{r, bytes.Clone(reply), &lat[i]})
		}
		if lat[i] >= 0 {
			p.bytes += int64(len(reply))
		}
	}
}

// settle runs the oracle over the replies kept since the last call.
func (p *player) settle() {
	for _, k := range p.kept {
		if err := k.req.check(k.body); err != nil {
			p.fail(k.lat, "%s %s: %v", k.req.path, k.req.sql, err)
			continue
		}
		if k.req.key >= 0 {
			p.golden[k.req.key] = k.body
		}
		if i := bytes.Index(k.body, []byte(`"plan": "`)); i >= 0 {
			p.plans++
			if bytes.HasPrefix(k.body[i+9:], []byte("naive(")) {
				p.fallback++
			}
		}
	}
	p.kept = p.kept[:0]
}

// prepareRecovered builds read_write_mix's starting directory in memory: a
// checkpoint of db plus a WAL tail of `tail` single-row INSERTs, none of them
// checkpointed. The oracle, when given, follows the tail.
func prepareRecovered(db *storage.Database, tail int, o *oracle) (*wal.MemFS, error) {
	mem := wal.NewMemFS()
	if _, err := db.EnableDurability(mem, storage.DurableOptions{}); err != nil {
		return nil, err
	}
	for i := 1; i <= tail; i++ {
		id, title, year := int64(tailBase+i), fmt.Sprintf("Tail %d", i), int64(1950+i%60)
		if err := db.Insert("MOVIES", storage.Tuple{value.NewInt(id), value.NewText(title), value.NewInt(year)}); err != nil {
			return nil, err
		}
		if o != nil {
			o.insert(id, title, year)
		}
	}
	return mem, nil
}

// dump writes a MemFS out as a real directory.
func dump(mem *wal.MemFS, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range mem.Names() {
		if err := os.WriteFile(filepath.Join(dir, name), mem.Bytes(name), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runWorkload performs one run: untimed preparation, bootsPerRun timed
// boots, the windowed timed phase on the last boot, the oracle and — for
// durable workloads — the crash check. A traced run boots once, adds the
// route probe and the in-process layer suite, and reports per-layer metrics.
func runWorkload(sess *session, w *workload, seed int64, seconds int, trace bool, traceOut string) (*result, error) {
	windows := int(math.Round(float64(seconds) / windowSeconds))
	if windows < 2 {
		windows = 2
	}
	db, err := generate(w.scale)
	if err != nil {
		return nil, err
	}
	o := newOracle(db)
	var prepared *wal.MemFS
	if w.tail > 0 {
		if prepared, err = prepareRecovered(db, w.tail, o); err != nil {
			return nil, err
		}
	}
	g := newScriptGen(seed, o)
	warm, script := w.build(g, windows*w.perWindow)
	var probe []request
	if trace {
		probe = buildProbe(g)
	}
	res := &result{workload: w.name, seed: seed, windows: windows, scriptSHA: scriptSHA256(warm, script), hitRatio: scriptedHitRatio(script)}
	p := &player{golden: make([][]byte, g.keys)}
	y := &yardstick{ref: sess.ref}

	// Boots: each starts from the same bytes on disk and ends when the
	// warm-up script has been answered; the yardstick is read on both sides.
	dataDir := filepath.Join(sess.dir, w.name)
	args := []string{"-scale", strconv.Itoa(w.scale)}
	if w.durable {
		args = append(args, "-data", dataDir)
	}
	boots := bootsPerRun
	if trace {
		boots = 1
	}
	var setup, setupRaw []float64
	for b := 0; b < boots; b++ {
		if p.srv != nil {
			p.srv.stop()
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		if prepared != nil {
			if err := dump(prepared, dataDir); err != nil {
				return nil, err
			}
		}
		if err := y.bursts(bootBursts); err != nil {
			return nil, err
		}
		start := time.Now()
		if p.srv, err = sess.start(sess.talkbackd, args...); err != nil {
			return nil, err
		}
		p.play(warm, make([]int64, len(warm)))
		elapsed := time.Since(start).Seconds()
		if err := y.bursts(bootBursts); err != nil {
			return nil, err
		}
		setupRaw = append(setupRaw, elapsed)
		setup = append(setup, elapsed/y.speed())
		p.settle()
	}
	defer func() { p.srv.stop() }()
	if p.failed > 0 {
		return nil, fmt.Errorf("%s: warm-up failed: %v", w.name, p.notes)
	}

	// Timed phase: windows of a fixed request count, each sent in slices
	// with a yardstick burst after every slice, so each window knows how fast
	// the machine was while it ran. Only the slices count as the window's time.
	before, err := p.srv.counters()
	if err != nil {
		return nil, err
	}
	lat := make([]int64, len(script))
	wins := make([]window, 0, windows)
	for lo := 0; lo < len(script); lo += w.perWindow {
		cpu0, err := p.srv.cpuMillis()
		if err != nil {
			return nil, err
		}
		var busy time.Duration
		for at := lo; at < lo+w.perWindow; at += w.slice {
			start := time.Now()
			p.play(script[at:at+w.slice], lat[at:at+w.slice])
			busy += time.Since(start)
			if err := y.bursts(1); err != nil {
				return nil, err
			}
		}
		cpu1, err := p.srv.cpuMillis()
		if err != nil {
			return nil, err
		}
		wins = append(wins, window{lat: lat[lo : lo+w.perWindow], busy: busy, cpuMillis: cpu1 - cpu0, speed: y.speed()})
	}
	after, err := p.srv.counters()
	if err != nil {
		return nil, err
	}
	rss, err := p.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	p.settle()
	res.attempted = len(script)
	res.counters = map[string]float64{}
	for k, v := range after {
		res.counters[k] = v - before[k]
	}
	for c := class(0); c < numClasses; c++ {
		res.classP50ms[c] = classP50(script, lat, c)
	}

	if trace {
		replyBytes, asked := float64(p.bytes), float64(res.attempted-p.failed)
		probeLat := make([]int64, len(probe))
		p.play(probe, probeLat)
		p.settle()
		res.attempted += len(probe)
		res.metrics, err = layerMetrics(sess, seed, traceOut, w.name, httpLayer{
			lat: lat, replyBytesPerReq: replyBytes / asked, peakRSSMB: rss, stats: res.counters,
			replayedBatches: after["durability.recovery.replayed_batches"],
			plans:           p.plans, fallback: p.fallback,
			probe: probe, probeLat: probeLat,
		})
		if err != nil {
			return nil, err
		}
	} else {
		res.metrics, res.raw = endToEnd(wins, median(setup), median(setupRaw))
		res.raw = append(res.raw, metric{"peak_rss_mb", rss, "MB"})
		if w.durable {
			// Crash, restart on the same directory, read everything back.
			p.srv.kill()
			restarted, err := sess.start(sess.talkbackd, args...)
			if err != nil {
				// p.srv stays the killed server: stopping it again is harmless.
				return nil, fmt.Errorf("restart after SIGKILL: %w", err)
			}
			p.srv = restarted
			back := readBack(o)
			p.play(back, make([]int64, len(back)))
			p.settle()
		}
	}
	res.failed = p.failed
	res.notes = append(res.notes, p.notes...)
	res.correct = p.failed == 0
	return res, nil
}

// window is one fixed-count stretch of the timed phase.
type window struct {
	lat       []int64
	busy      time.Duration // time spent on the window's own requests
	cpuMillis float64       // server CPU over the whole window
	speed     float64       // the yardstick's slowdown factor over the window
}

// endToEnd folds the windows into the end-to-end metrics. Each window's
// timings are divided by its yardstick reading (its throughput multiplied),
// which puts them in milliseconds of the reference machine state; a workload's
// value is the median window. raw holds the same medians of the undivided
// timings and the median yardstick reading, for the report.
func endToEnd(wins []window, setup, setupRaw float64) (metrics, raw []metric) {
	fold := func(normalise bool) []metric {
		var rps, p50, cpu []float64
		for _, w := range wins {
			f := 1.0
			if normalise {
				f = w.speed
			}
			ok := okMillis(w.lat)
			rps = append(rps, float64(len(ok))/w.busy.Seconds()*f)
			p50 = append(p50, quantile(ok, 0.50)/f)
			cpu = append(cpu, w.cpuMillis/float64(len(w.lat))/f)
		}
		return []metric{
			{"throughput_rps", median(rps), "1/s"},
			{"lat_p50_ms", median(p50), "ms"},
			{"server_cpu_ms_per_req", median(cpu), "ms"},
		}
	}
	var speeds []float64
	for _, w := range wins {
		speeds = append(speeds, w.speed)
	}
	metrics = append([]metric{{"setup_s", setup, "s"}}, fold(true)...)
	raw = append([]metric{{"setup_s", setupRaw, "s"}}, fold(false)...)
	raw = append(raw, metric{"yardstick_speed", median(speeds), "x"})
	return metrics, raw
}

// classP50 is the median latency of the successful requests of one class.
func classP50(reqs []request, lat []int64, c class) float64 {
	var of []int64
	for i := range reqs {
		if reqs[i].class == c {
			of = append(of, lat[i])
		}
	}
	if ms := okMillis(of); len(ms) > 0 {
		return quantile(ms, 0.5)
	}
	return 0
}
