// Command braidio-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	braidio-bench -list
//	braidio-bench                 # run everything
//	braidio-bench -exp fig15,fig9 # run a subset
//	braidio-bench -csv out/       # also write CSV files
//	go test -bench=. -benchmem . | braidio-bench -benchjson BENCH.json -commit $(git rev-parse HEAD)
//	braidio-bench -benchdiff old.json new.json   # regression gate
//
// Each experiment prints a structured report: the paper's claim, the
// measured headline numbers, and the regenerated tables/curves/matrices.
// The -benchjson mode instead parses `go test -bench` output on stdin
// into a machine-readable JSON perf record (name, ns/op, allocs/op), the
// format the repo's perf trajectory (BENCH_*.json) is tracked in.
// The -benchdiff mode compares two such records benchmark-by-benchmark
// and exits 1 if any ns/op or allocs/op grew past -threshold — CI runs
// it against the committed baseline to catch perf regressions.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"braidio/internal/experiments"
	"braidio/internal/obs"
)

func main() {
	list := flag.Bool("list", false, "list available experiments and exit")
	exp := flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
	csvDir := flag.String("csv", "", "also write CSV files to this directory")
	benchJSON := flag.String("benchjson", "", "parse `go test -bench` output from stdin and write a JSON benchmark record to this file")
	commit := flag.String("commit", "", "source revision recorded in the -benchjson record (e.g. the output of git rev-parse HEAD)")
	benchDiff := flag.String("benchdiff", "", "baseline JSON record (from -benchjson); compares against the record named by the trailing argument and exits 1 on regression")
	threshold := flag.Float64("threshold", 0.25, "fractional ns/op and allocs/op growth tolerated by -benchdiff before a benchmark counts as regressed")
	metrics := flag.Bool("metrics", false, "instrument the experiment runs and print a Prometheus-style metrics exposition afterwards")
	flag.Parse()

	if *benchDiff != "" {
		if flag.NArg() != 1 {
			fmt.Fprintf(os.Stderr, "braidio-bench: -benchdiff needs exactly one trailing argument (the new record), got %d\n", flag.NArg())
			os.Exit(2)
		}
		regressions, err := runBenchDiff(*benchDiff, flag.Arg(0), *threshold)
		if err != nil {
			fmt.Fprintf(os.Stderr, "braidio-bench: benchdiff: %v\n", err)
			os.Exit(2)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(os.Stdin, *benchJSON, *commit); err != nil {
			fmt.Fprintf(os.Stderr, "braidio-bench: benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []experiments.Experiment
	if *exp == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "braidio-bench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	var rec *obs.Recorder
	if *metrics {
		// Experiments build their engines internally, so instrumentation
		// flows through the process-default recorder rather than an
		// explicitly threaded pointer.
		rec = obs.NewRecorder()
		obs.SetDefault(rec)
	}

	failed := 0
	for _, e := range selected {
		rep, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "braidio-bench: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		if err := rep.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "braidio-bench: render %s: %v\n", e.ID, err)
			failed++
			continue
		}
		if *csvDir != "" {
			if err := rep.WriteCSV(*csvDir); err != nil {
				fmt.Fprintf(os.Stderr, "braidio-bench: csv %s: %v\n", e.ID, err)
				failed++
			}
		}
	}
	if rec != nil {
		obs.SetDefault(nil)
		snap := rec.Snapshot()
		fmt.Println()
		if err := snap.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "braidio-bench: metrics: %v\n", err)
			os.Exit(1)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
