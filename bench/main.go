// Command bench is the repository's benchmark: four scripted HTTP workloads
// against a real talkbackd child, end-to-end metrics measured against a
// yardstick server so that they repeat on a noisy host, and a traced run that
// attributes time to layers. See README.md.
//
//	go run -C bench .                                  # all four workloads
//	go run -C bench . -workload hot_ask -seed 7        # one workload, one JSON line last
//	go run -C bench . -workload hot_ask -trace 1       # per-layer metrics
//	go run -C bench . -selfcheck                       # two sets of runs against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

// defaultSeed is the seed of every number in README.md.
const defaultSeed = 20090104

func main() {
	os.Exit(run())
}

func run() (code int) {
	name := flag.String("workload", "", "run one workload (hot_ask, cold_talkback, durable_write, read_write_mix); empty runs all four")
	seed := flag.Int64("seed", defaultSeed, "seed of the request scripts")
	seconds := flag.Int("seconds", 18, "nominal length of the timed phase; the script is cut into windows of 0.75 s")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", "", "traced run: directory that receives trace-<workload>.json")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of five full runs and hold spread and drift to the bounds in BENCHMARK.json")
	flag.Parse()

	todo := workloads
	if *name != "" {
		w := workloadByName(workloads, *name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			return 2
		}
		todo = []*workload{w}
	}

	sess, err := newSession(workloads)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// Every way out — return, panic, signal — stops the children and removes
	// the run directory; a survivor turns the exit code non-zero.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sigs
		sess.close()
		os.Exit(130)
	}()
	defer func() {
		v := recover()
		if err := sess.close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
		if v != nil {
			panic(v)
		}
	}()

	if *selfcheck {
		return selfCheck(sess, todo, *seed, *seconds)
	}
	for _, w := range todo {
		res, err := runWorkload(sess, w, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		report(res)
		if !res.correct {
			code = 1
		}
		if *name != "" {
			// The contract line: last on standard output.
			fmt.Println(res.json())
		}
	}
	return code
}

// report prints a run for people.
func report(r *result) {
	fmt.Printf("== %s  seed=%d  windows=%d  requests=%d  failed=%d  script_sha256=%s\n",
		r.workload, r.seed, r.windows, r.attempted, r.failed, r.scriptSHA[:16])
	for _, m := range r.metrics {
		fmt.Printf("   %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, m := range r.raw {
		fmt.Printf("   raw %-30s %14.6g %s\n", m.name, m.value, m.unit)
	}
	var classes []string
	for c, ms := range r.classP50ms {
		if ms > 0 {
			classes = append(classes, fmt.Sprintf("%s=%.3f", classNames[c], ms))
		}
	}
	fmt.Printf("   scripted-class p50 (ms): %s\n", strings.Join(classes, " "))
	for _, k := range exactCounters {
		if v, ok := r.counters[k]; ok && v != 0 {
			fmt.Printf("   /stats Δ %-40s %.0f\n", k, v)
		}
	}
	for _, n := range r.notes {
		fmt.Printf("   note: %s\n", n)
	}
}

// exactCounters are the GET /stats deltas that a fixed script repeats
// exactly from run to run (cache evictions depend on a per-process hash seed
// and are left out).
var exactCounters = []string{
	"caches.response.Hits", "caches.response.Misses",
	"caches.parse.Hits", "caches.parse.Misses",
	"caches.translation.Hits", "caches.translation.Misses",
	"admission.admitted", "admission.rejected", "admission.timed_out",
	"snapshots.published_versions",
	"durability.batches", "durability.ops", "durability.syncs", "durability.checkpoints",
}

// json renders the contract's result object.
func (r *result) json() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range r.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	b, _ := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	return string(b)
}
