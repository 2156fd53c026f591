package main

import (
	"os"
	"path/filepath"
	"testing"
)

// tiny returns the four workloads scaled down to a database of a few hundred
// movies and windows of one or two script cycles, so a whole run takes a
// fraction of a second.
func tiny() []*workload {
	perWindow := map[string]int{"hot_ask": 200, "cold_talkback": 16, "durable_write": 25, "read_write_mix": 44}
	slice := map[string]int{"hot_ask": 100, "cold_talkback": 8, "durable_write": 5, "read_write_mix": 22}
	var out []*workload
	for _, w := range workloads {
		c := *w
		c.scale = 600
		c.perWindow, c.slice = perWindow[w.name], slice[w.name]
		if c.tail > 0 {
			c.tail = 50
		}
		out = append(out, &c)
	}
	return out
}

// TestSmoke runs every workload end to end and traced at tiny scale: the
// metric names and units are BENCHMARK.json's, a seed fixes the script and
// the server's counters, the response-cache hit ratio is the scripted one,
// and nothing outlives the session.
func TestSmoke(t *testing.T) {
	spec, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	ws := tiny()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner has %d", len(spec.Workloads), len(ws))
	}
	sess, err := newSession(ws)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			sess.close()
		}
	}()

	run := func(w *workload, seed int64, trace bool) *result {
		t.Helper()
		res, err := runWorkload(sess, w, seed, 1, trace, filepath.Join(sess.dir, "out"))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct || res.failed != 0 || res.windows != 2 {
			t.Fatalf("%s: correct=%v failed=%d windows=%d notes=%v", w.name, res.correct, res.failed, res.windows, res.notes)
		}
		return res
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the runner's is %q", i, spec.Workloads[i].Name, w.name)
		}
		first, again, traced := run(w, 1, false), run(w, 1, false), run(w, 2, true)
		if len(first.metrics) != len(spec.EndToEnd) {
			t.Fatalf("%s: %d end-to-end metrics, BENCHMARK.json lists %d", w.name, len(first.metrics), len(spec.EndToEnd))
		}
		for j, m := range first.metrics {
			if want := spec.EndToEnd[j]; m.name != want.Name || m.unit != want.Unit {
				t.Errorf("%s: metric %d is %s [%s], BENCHMARK.json says %s [%s]", w.name, j, m.name, m.unit, want.Name, want.Unit)
			}
			if !(m.value > 0) {
				t.Errorf("%s: %s = %v", w.name, m.name, m.value)
			}
		}
		if first.scriptSHA != again.scriptSHA {
			t.Errorf("%s: the same seed gave two scripts", w.name)
		}
		if first.scriptSHA == traced.scriptSHA {
			t.Errorf("%s: another seed gave the same script", w.name)
		}
		for _, c := range exactCounters {
			if first.counters[c] != again.counters[c] {
				t.Errorf("%s: /stats Δ %s was %v, then %v with the same seed", w.name, c, first.counters[c], again.counters[c])
			}
		}

		if len(traced.metrics) != len(spec.PerLayer) {
			t.Fatalf("%s: %d per-layer metrics, BENCHMARK.json lists %d", w.name, len(traced.metrics), len(spec.PerLayer))
		}
		for j, m := range traced.metrics {
			if want := spec.PerLayer[j]; m.name != want.Name || m.unit != want.Unit {
				t.Errorf("%s: layer metric %d is %s [%s], BENCHMARK.json says %s [%s]", w.name, j, m.name, m.unit, want.Name, want.Unit)
			}
			if m.name == "cache.resp_hit_ratio" && m.value != traced.hitRatio {
				t.Errorf("%s: cache.resp_hit_ratio = %v, the script fixes %v", w.name, m.value, traced.hitRatio)
			}
			if m.name == "talkbackd.shed" && m.value != 0 {
				t.Errorf("%s: %v requests shed", w.name, m.value)
			}
		}
		if _, err := os.Stat(filepath.Join(sess.dir, "out", "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}

	closed = true
	if err := sess.close(); err != nil {
		t.Error(err)
	}
	if _, err := os.Stat(sess.dir); !os.IsNotExist(err) {
		t.Errorf("run directory %s survives the session", sess.dir)
	}
}
