package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// BenchResult is one benchmark line of `go test -bench` output, reduced
// to the fields the repo's perf trajectory tracks.
type BenchResult struct {
	// Name is the benchmark name with the -N GOMAXPROCS suffix
	// stripped (BenchmarkFig4-8 → Fig4).
	Name string `json:"name"`
	// NsPerOp is the reported wall-clock per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is reported with -benchmem; -1 when absent.
	BytesPerOp int64 `json:"bytes_per_op"`
	// AllocsPerOp is reported with -benchmem; -1 when absent.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Iters is the iteration count the run used; 0 in records written
	// before the field existed. Alloc comparisons are skipped for runs
	// too short to amortize per-run setup.
	Iters int64 `json:"iters,omitempty"`
}

// BenchRecord is the top-level JSON document: enough context to compare
// records across commits plus the per-benchmark results.
type BenchRecord struct {
	Goos   string `json:"goos,omitempty"`   // go test's "goos:" header
	Goarch string `json:"goarch,omitempty"` // go test's "goarch:" header
	CPU    string `json:"cpu,omitempty"`    // go test's "cpu:" header
	// GOMAXPROCS is the -N suffix of the first benchmark line (1 when
	// the line has none); 0 in records written before the field existed.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// NumCPU and GoVersion describe the host and toolchain that wrote
	// the record (runtime.NumCPU and runtime.Version at -benchjson time).
	NumCPU    int    `json:"num_cpu,omitempty"`
	GoVersion string `json:"go_version,omitempty"` // see NumCPU
	// Commit is the source revision the benchmarks ran on, as passed
	// by -commit; empty when not given.
	Commit string `json:"commit,omitempty"`
	// Results holds one entry per benchmark line, in output order.
	Results []BenchResult `json:"results"`
}

// splitProcs splits go test's -N GOMAXPROCS suffix off a benchmark name
// (Fig4-8 → Fig4, 8). A name without a numeric suffix ran at
// GOMAXPROCS=1, which go test leaves unprinted.
func splitProcs(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			return name[:i], n
		}
	}
	return name, 1
}

// parseBench extracts benchmark results from `go test -bench` text. It
// tolerates interleaved PASS/ok/log lines and both -benchmem and plain
// formats:
//
//	BenchmarkFig4-8   375   642250 ns/op   97983 B/op   166 allocs/op
func parseBench(r io.Reader) (*BenchRecord, error) {
	rec := &BenchRecord{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rec.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rec.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rec.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then unit pairs: "<value> <unit>".
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		name, procs := splitProcs(strings.TrimPrefix(fields[0], "Benchmark"))
		if rec.GOMAXPROCS == 0 {
			rec.GOMAXPROCS = procs
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		res := BenchResult{Name: name, NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1}
		if iters, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
			res.Iters = iters
		}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		rec.Results = append(rec.Results, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rec.Results) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	return rec, nil
}

// writeBenchJSON parses benchmark text from r and writes the JSON record,
// stamped with commit, to path.
func writeBenchJSON(r io.Reader, path, commit string) error {
	rec, err := parseBench(r)
	if err != nil {
		return err
	}
	rec.Commit = commit
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "braidio-bench: wrote %d benchmark results to %s\n", len(rec.Results), path)
	return nil
}
