// Command benchgate turns the CI bench smoke into an allocation-regression
// gate: it parses `go test -bench -benchmem` output and fails when any gated
// benchmark's allocs/op — or, when a ceiling sets bytes_per_op, its B/op —
// exceeds its recorded ceiling. Ceilings live in a JSON file checked into
// the repository (cmd/benchgate/ceilings.json) with generous headroom over
// the measured numbers — the gate exists to catch order-of-magnitude
// regressions (a hash build going back to one allocation per row, grouped
// aggregation re-materializing every joined row), not run-to-run noise.
// Time is deliberately not gated: the bench hosts' ns/op varies ±35% run to
// run, while allocation counts and bytes are deterministic. A gated
// benchmark missing from the input is an error too, so a rename cannot
// silently disable its gate.
//
// With -record FILE it also writes every benchmark line of the input —
// allocs, bytes and ns per op at its GOMAXPROCS — with the host's CPU count
// and the commit, in one fixed schema: the BENCH_N.json files. -trajectory
// prints each benchmark's readings across the BENCH_*.json files in the
// working directory that have that schema, flagging (not gating) allocs or
// bytes more than 25 % above the previous file's.
//
// Usage:
//
//	go test -run xxx -bench . -benchtime=1x -benchmem ./... | tee bench.out
//	go run ./cmd/benchgate -input bench.out -ceilings cmd/benchgate/ceilings.json [-record BENCH_N.json]
//	go run ./cmd/benchgate -trajectory
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// ceiling bounds one benchmark's allocations and (optionally) bytes.
type ceiling struct {
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp gates B/op when positive; zero leaves bytes ungated.
	BytesPerOp int64 `json:"bytes_per_op,omitempty"`
}

// recordSchema names the layout of a -record file; -trajectory reads only
// files that carry it.
const recordSchema = "benchgate-record/1"

// record is the fixed schema -record writes.
type record struct {
	Schema     string      `json:"schema"`
	Commit     string      `json:"commit"`
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []benchLine `json:"benchmarks"`
}

// benchLine is one benchmark line of `go test -bench -benchmem` output.
type benchLine struct {
	Name        string  `json:"name"`       // the -GOMAXPROCS suffix stripped
	Procs       int     `json:"gomaxprocs"` // the suffix; 1 when absent
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func main() {
	input := flag.String("input", "", "bench output file (default stdin)")
	ceilingsPath := flag.String("ceilings", "cmd/benchgate/ceilings.json", "ceilings JSON file")
	recordPath := flag.String("record", "", "also write every benchmark line of the input to this JSON file")
	traj := flag.Bool("trajectory", false, "print each benchmark's readings across the BENCH_*.json records in the working directory, and exit")
	flag.Parse()

	if *traj {
		if err := trajectory(os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}

	raw, err := os.ReadFile(*ceilingsPath)
	if err != nil {
		fatal("reading ceilings: %v", err)
	}
	var ceilings map[string]ceiling
	if err := json.Unmarshal(raw, &ceilings); err != nil {
		fatal("parsing ceilings: %v", err)
	}

	in := os.Stdin
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatal("opening input: %v", err)
		}
		defer f.Close()
		in = f
	}

	var lines []benchLine
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if b, ok := parseBenchLine(sc.Text()); ok {
			lines = append(lines, b)
		}
	}
	if err := sc.Err(); err != nil {
		fatal("reading input: %v", err)
	}
	if *recordPath != "" {
		if err := writeRecord(*recordPath, lines); err != nil {
			fatal("writing record: %v", err)
		}
	}

	// Sub-benchmarks can appear once per package run and per GOMAXPROCS;
	// the gate keeps the worst.
	seen := worst(lines)
	names := make([]string, 0, len(ceilings))
	for name := range ceilings {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		got, ok := seen[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: not found in bench output (renamed or skipped?)\n", name)
			failed = true
			continue
		}
		c := ceilings[name]
		if got.AllocsPerOp > c.AllocsPerOp {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: %d allocs/op exceeds ceiling %d\n", name, got.AllocsPerOp, c.AllocsPerOp)
			failed = true
		} else {
			fmt.Printf("benchgate: ok   %s: %d allocs/op (ceiling %d)\n", name, got.AllocsPerOp, c.AllocsPerOp)
		}
		if c.BytesPerOp > 0 {
			if got.BytesPerOp > c.BytesPerOp {
				fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: %d bytes/op exceeds ceiling %d\n", name, got.BytesPerOp, c.BytesPerOp)
				failed = true
			} else {
				fmt.Printf("benchgate: ok   %s: %d bytes/op (ceiling %d)\n", name, got.BytesPerOp, c.BytesPerOp)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// worst folds lines by name: the highest allocs and bytes, the lowest ns.
func worst(lines []benchLine) map[string]benchLine {
	out := map[string]benchLine{}
	for _, b := range lines {
		w, dup := out[b.Name]
		if !dup {
			out[b.Name] = b
			continue
		}
		w.AllocsPerOp = max(w.AllocsPerOp, b.AllocsPerOp)
		w.BytesPerOp = max(w.BytesPerOp, b.BytesPerOp)
		w.NsPerOp = min(w.NsPerOp, b.NsPerOp)
		out[b.Name] = w
	}
	return out
}

// parseBenchLine reads one `go test -bench -benchmem` output line: the
// benchmark name, the GOMAXPROCS of its -N suffix (stripped from the name;
// go test omits it at 1), and its ns/op, B/op and allocs/op.
func parseBenchLine(line string) (benchLine, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchLine{}, false
	}
	b := benchLine{Name: fields[0], Procs: 1}
	ok := false
	for i := 1; i < len(fields)-1; i++ {
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp, _ = strconv.ParseFloat(fields[i], 64)
		case "B/op":
			b.BytesPerOp, _ = strconv.ParseInt(fields[i], 10, 64)
		case "allocs/op":
			n, err := strconv.ParseInt(fields[i], 10, 64)
			b.AllocsPerOp, ok = n, err == nil
		}
	}
	if !ok {
		return benchLine{}, false
	}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	return b, true
}

// writeRecord writes lines, with the host's CPU count and the commit, to
// path in the record schema. The commit is marked -dirty when tracked files
// differ from it.
func writeRecord(path string, lines []benchLine) error {
	commit := "unknown"
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	raw, err := json.MarshalIndent(record{
		Schema:     recordSchema,
		Commit:     commit,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: lines,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// trajectory prints one line per benchmark across the BENCH_*.json records
// in the working directory, in file-number order: each file's highest
// allocs and bytes and lowest ns over its lines for that benchmark, marked
// with '!' where the allocs or bytes exceed the previous record's by more
// than 25 %. Files without the record schema are skipped.
func trajectory(w io.Writer) error {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return err
	}
	num := func(p string) int {
		n, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(p, "BENCH_"), ".json"))
		return n
	}
	sort.Slice(paths, func(i, j int) bool { return num(paths[i]) < num(paths[j]) })
	type reading struct {
		file string
		benchLine
	}
	series := map[string][]reading{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rec record
		if json.Unmarshal(raw, &rec) != nil || rec.Schema != recordSchema {
			continue
		}
		for name, b := range worst(rec.Benchmarks) {
			series[name] = append(series[name], reading{p, b})
		}
	}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	above := func(now, prev int64) string {
		if float64(now) > 1.25*float64(prev) {
			return "!"
		}
		return ""
	}
	for _, name := range names {
		var b strings.Builder
		b.WriteString(name)
		for i, r := range series[name] {
			fa, fb := "", ""
			if i > 0 {
				prev := series[name][i-1]
				fa, fb = above(r.AllocsPerOp, prev.AllocsPerOp), above(r.BytesPerOp, prev.BytesPerOp)
			}
			fmt.Fprintf(&b, " | %s %d%s allocs %d%s B %.0f ns", strings.TrimSuffix(r.file, ".json"),
				r.AllocsPerOp, fa, r.BytesPerOp, fb, r.NsPerOp)
		}
		fmt.Fprintln(w, b.String())
	}
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
