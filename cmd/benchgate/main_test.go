package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	for _, c := range []struct {
		line string
		want benchLine
		ok   bool
	}{
		{"BenchmarkX15MorselAggregate/serial-4   \t 1\t 1770068 ns/op\t 45424 B/op\t 213 allocs/op",
			benchLine{"BenchmarkX15MorselAggregate/serial", 4, 1770068, 45424, 213}, true},
		{"BenchmarkX16ZoneSkipScan/sorted/serial/zones=on 1 104303 ns/op 0.9688 skipratio 12528 B/op 110 allocs/op",
			benchLine{"BenchmarkX16ZoneSkipScan/sorted/serial/zones=on", 1, 104303, 12528, 110}, true},
		{"BenchmarkX9ParallelJoin/rows=100000/serial-2 1 5 ns/op", benchLine{}, false},
		{"ok  \trepro\t1.2s", benchLine{}, false},
	} {
		got, ok := parseBenchLine(c.line)
		if ok != c.ok || got != c.want {
			t.Errorf("parseBenchLine(%q) = %+v, %v; want %+v, %v", c.line, got, ok, c.want, c.ok)
		}
	}
}

// TestTrajectory: records are read in file-number order, files without the
// schema are skipped, and a reading more than 25 % above the previous
// record's allocs or bytes is marked.
func TestTrajectory(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	line := func(allocs, bytes int64) []benchLine {
		return []benchLine{{Name: "BenchmarkA", Procs: 1, NsPerOp: 10, AllocsPerOp: allocs, BytesPerOp: bytes}}
	}
	for _, r := range []struct {
		file  string
		lines []benchLine
	}{{"BENCH_9.json", line(100, 1000)}, {"BENCH_10.json", line(126, 1250)}, {"BENCH_11.json", line(126, 2000)}} {
		if err := writeRecord(filepath.Join(dir, r.file), r.lines); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile("BENCH_12.json", []byte(`{"pr": 12}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := trajectory(&out); err != nil {
		t.Fatal(err)
	}
	want := "BenchmarkA | BENCH_9 100 allocs 1000 B 10 ns | BENCH_10 126! allocs 1250 B 10 ns | BENCH_11 126 allocs 2000! B 10 ns\n"
	if got := out.String(); got != want {
		t.Errorf("trajectory:\n%s\nwant:\n%s", got, strings.TrimSpace(want))
	}
}
