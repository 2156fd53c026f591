package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json the runner reads back: the
// metric names, units and bounds it must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// runsPerSet is how many full runs of every workload make one set.
const runsPerSet = 5

// selfCheck answers the question every later comparison rests on: do two
// sets of runs of the same code agree within the benchmark's own bounds? Both
// sets use the same seeds (seed, seed+1, …), so the exact counters must agree
// pairwise. Per workload and end-to-end metric it prints each set's median
// and (max − min)/median and the gap between the set medians; any of the
// three beyond the metric's bound is a breach, whichever set is the better
// one. The interquartile spread is printed beside them because it is what the
// driver measures.
func selfCheck(sess *session, todo []*workload, seed int64, seconds int) int {
	spec, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	counters := [2]map[string]string{{}, {}}
	for set := 0; set < 2; set++ {
		for i := 0; i < runsPerSet; i++ {
			for _, w := range todo {
				res, err := runWorkload(sess, w, seed+int64(i), seconds, false, "")
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				if !res.correct {
					fmt.Fprintf(os.Stderr, "%s seed %d: %d failed: %v\n", w.name, res.seed, res.failed, res.notes)
					return 1
				}
				for _, m := range res.metrics {
					k := key{w.name, m.name}
					values[set][k] = append(values[set][k], m.value)
				}
				var exact string
				for _, c := range exactCounters {
					exact += fmt.Sprintf("%s=%.0f ", c, res.counters[c])
				}
				counters[set][fmt.Sprintf("%s/%d", w.name, res.seed)] = res.scriptSHA[:12] + " " + exact
				fmt.Fprintf(os.Stderr, "set %d run %d %s done, raw %v\n", set+1, i+1, w.name, res.raw)
			}
		}
	}

	breaches := 0
	fmt.Printf("| workload | metric | median A | median B | range A | range B | gap B − A | bound | | IQR A | IQR B |\n")
	fmt.Printf("|---|---|---:|---:|---:|---:|---:|---:|---|---:|---:|\n")
	for _, w := range todo {
		for _, m := range spec.EndToEnd {
			a, b := values[0][key{w.name, m.Name}], values[1][key{w.name, m.Name}]
			medA, medB := median(a), median(b)
			gap := (medB - medA) / medA
			verdict := "ok"
			if math.Max(math.Abs(gap), math.Max(spread(a), spread(b))) > m.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %s | %.1f%% | %.1f%% |\n",
				w.name, m.Name, medA, medB, 100*spread(a), 100*spread(b), 100*gap, 100*m.Bound, verdict, 100*iqr(a), 100*iqr(b))
		}
	}
	for run, a := range counters[0] {
		if b := counters[1][run]; a != b {
			fmt.Printf("exact counters differ on %s:\n  A %s\n  B %s\n", run, a, b)
			breaches++
		}
	}
	if breaches > 0 {
		fmt.Printf("%d breaches\n", breaches)
		return 1
	}
	fmt.Printf("script hashes and exact /stats counters identical across both sets (%d runs each)\n", runsPerSet)
	return 0
}
