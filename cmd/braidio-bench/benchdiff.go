package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// readBenchJSON loads a BenchRecord written by -benchjson.
func readBenchJSON(path string) (*BenchRecord, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &BenchRecord{}
	if err := json.Unmarshal(buf, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// diffLine is one benchmark's before/after comparison.
type diffLine struct {
	name                 string
	oldNs, newNs         float64
	oldAllocs, newAllocs int64
	regressed            bool
}

// minAllocIters is the iteration count below which allocs/op is not
// compared: a run of a handful of iterations charges its one-time setup
// (buffers, pools, caches warming) to those few ops, so its allocs/op
// is incomparable to a fully amortized baseline. ns/op is still
// compared — it is far less setup-dominated for the slow benchmarks
// this applies to.
const minAllocIters = 10

// diffBench compares two benchmark records. A benchmark regresses when
// its ns/op grows by more than threshold (a fraction: 0.25 = +25%) or
// its allocs/op grows beyond the same fractional slack — alloc counts
// are deterministic, so they get no measurement-noise allowance beyond
// the ratio itself; runs too short to amortize setup (or records
// predating iteration counts) skip the alloc check per minAllocIters.
// Benchmarks present on only one side are reported but never fail the
// diff (suites grow PR over PR).
func diffBench(oldRec, newRec *BenchRecord, threshold float64) (lines []diffLine, onlyOld, onlyNew []string) {
	oldByName := map[string]BenchResult{}
	for _, r := range oldRec.Results {
		oldByName[r.Name] = r
	}
	newNames := map[string]bool{}
	for _, r := range newRec.Results {
		newNames[r.Name] = true
		o, ok := oldByName[r.Name]
		if !ok {
			onlyNew = append(onlyNew, r.Name)
			continue
		}
		l := diffLine{
			name:  r.Name,
			oldNs: o.NsPerOp, newNs: r.NsPerOp,
			oldAllocs: o.AllocsPerOp, newAllocs: r.AllocsPerOp,
		}
		if r.NsPerOp > o.NsPerOp*(1+threshold) {
			l.regressed = true
		}
		if o.AllocsPerOp >= 0 && r.AllocsPerOp >= 0 &&
			o.Iters >= minAllocIters && r.Iters >= minAllocIters &&
			float64(r.AllocsPerOp) > float64(o.AllocsPerOp)*(1+threshold) {
			l.regressed = true
		}
		lines = append(lines, l)
	}
	for name := range oldByName {
		if !newNames[name] {
			onlyOld = append(onlyOld, name)
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	return lines, onlyOld, onlyNew
}

// pct renders a before→after ratio as a signed percentage.
func pct(oldV, newV float64) string {
	if oldV <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(newV-oldV)/oldV)
}

// procsWarning returns a warning line when two records were taken at
// different GOMAXPROCS, or when either predates the field: ns/op and
// allocs/op of parallel code are not comparable across them. It is
// empty when both records name the same value.
func procsWarning(oldRec, newRec *BenchRecord) string {
	if oldRec.GOMAXPROCS == newRec.GOMAXPROCS && oldRec.GOMAXPROCS != 0 {
		return ""
	}
	procs := func(r *BenchRecord) string {
		if r.GOMAXPROCS == 0 {
			return "unrecorded"
		}
		return fmt.Sprint(r.GOMAXPROCS)
	}
	return fmt.Sprintf("warning: baseline GOMAXPROCS=%s, new GOMAXPROCS=%s; timings may not be comparable",
		procs(oldRec), procs(newRec))
}

// runBenchDiff compares the baseline record at oldPath against newPath
// and prints a per-benchmark table. It returns the number of regressed
// benchmarks; callers exit nonzero when it is positive, which is what
// lets CI gate on a committed baseline.
func runBenchDiff(oldPath, newPath string, threshold float64) (int, error) {
	oldRec, err := readBenchJSON(oldPath)
	if err != nil {
		return 0, err
	}
	newRec, err := readBenchJSON(newPath)
	if err != nil {
		return 0, err
	}
	if w := procsWarning(oldRec, newRec); w != "" {
		fmt.Println(w)
	}
	lines, onlyOld, onlyNew := diffBench(oldRec, newRec, threshold)
	regressions := 0
	fmt.Printf("%-28s %12s %12s %9s %8s %8s  %s\n",
		"benchmark", "old ns/op", "new ns/op", "Δns", "old al", "new al", "verdict")
	for _, l := range lines {
		verdict := "ok"
		if l.regressed {
			verdict = "REGRESSED"
			regressions++
		}
		fmt.Printf("%-28s %12.0f %12.0f %9s %8d %8d  %s\n",
			l.name, l.oldNs, l.newNs, pct(l.oldNs, l.newNs), l.oldAllocs, l.newAllocs, verdict)
	}
	for _, n := range onlyNew {
		fmt.Printf("%-28s %s\n", n, "(new benchmark, no baseline)")
	}
	for _, n := range onlyOld {
		fmt.Printf("%-28s %s\n", n, "(removed since baseline)")
	}
	fmt.Printf("\n%d compared, %d regressed (threshold %+.0f%%), %d new, %d removed\n",
		len(lines), regressions, 100*threshold, len(onlyNew), len(onlyOld))
	return regressions, nil
}
