// Command perfbench is the repository benchmark. One invocation runs
// one seeded workload against the daemon (serve-drift) or the
// simulators (fleet-day, net-campus), checks the outputs, and prints
// the end-to-end metrics (--trace 0) or the per-layer metrics and
// tracing overhead (--trace 1). The last line of standard output is
// the result record:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds it from source:
//
//	bash perfbench/run.sh --workload fleet-day --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for why each workload exists and which layer
// metric should move which end-to-end metric.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose fleet-day and net-campus result
// digests are recorded in this package; any other seed is checked
// against the energy-accounting invariants instead.
const defaultSeed = 1

// setupRepeats is how many times each workload sets up per run; the
// median is reported as setup_s.
const setupRepeats = 3

// buildDir holds everything a run leaves behind: the binary, the Go
// build cache, serve journals and trace files.
const buildDir = ".bench_build"

// e2eMetrics and layerMetrics are the metric names BENCHMARK.json
// declares, with their units. Every workload reports every one of them
// (per-layer metrics whose layer is not on a workload's path read 0).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"visible_p50_ms", "ms"},
	{"live_heap_mb", "MB"},
}

var layerMetrics = []metricDef{
	{"serve.update_handler_ms", "ms"},
	{"serve.epoch_ms_p50", "ms"},
	{"serve.epoch_ms_max", "ms"},
	{"serve.plan_ms_p50", "ms"},
	{"serve.apply_ms_p50", "ms"},
	{"serve.plans_per_update", "ratio"},
	{"serve.journal_bytes_per_op", "B"},
	{"serve.snapshots", "count"},
	{"serve.visible_p99_ms", "ms"},
	{"serve.read_p50_ms", "ms"},
	{"serve.read_p99_ms", "ms"},
	{"serve.read_lag_ms_p99", "ms"},
	{"phy.characterize_columns_us", "us"},
	{"phy.characterize_us", "us"},
	{"linkcache.misses_per_member_round", "ratio"},
	{"linkcache.evictions", "count"},
	{"core.optimize_batch_us", "us"},
	{"core.lp_solves_per_member_round", "ratio"},
	{"core.alloc_reuse_share", "ratio"},
	{"lp.warm_start_share", "ratio"},
	{"sim.walk_us", "us"},
	{"sim.walk_share", "ratio"},
	{"hub.member_rounds", "count"},
	{"hub.replans", "count"},
	{"net.plan_round_ms", "ms"},
	{"net.relay_plan_share", "ratio"},
	{"net.relay_rounds", "count"},
	{"net.carrier_shares", "count"},
	{"net.interfered_rounds", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.sched_latency_p99_us", "us"},
	{"process.cpu_util", "ratio"},
	{"trace.overhead_share", "ratio"},
}

type metricDef struct{ name, unit string }

// metric is one measured value and the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`   // as measured
	Unit    string  `json:"unit"`    // as declared
	Samples int     `json:"samples"` // observations behind Value
}

// runConfig is what a workload is told.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	// problems lists every failed output check.
	problems []string
	// metrics holds the declared metrics for this mode; extra holds the
	// workload's own names for them (updates_per_s, read_p99_ms, ...),
	// printed for people but not part of the result record.
	metrics map[string]metric
	extra   map[string]metric
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]metric), extra: make(map[string]metric)}
}

// set records a declared metric; the unit comes from the declaration.
func (o *outcome) set(name string, v float64, samples int) {
	o.metrics[name] = metric{Value: v, Samples: samples}
}

// alias records a workload-specific name printed beside the declared
// metrics.
func (o *outcome) alias(name string, v float64, unit string, samples int) {
	o.extra[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"serve-drift": runServeDrift,
	"fleet-day":   runFleetDay,
	"net-campus":  runNetCampus,
}

func main() {
	workload := flag.String("workload", "", "workload: serve-drift, fleet-day or net-campus")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve-drift|fleet-day|net-campus, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	fmt.Printf("perfbench: workload %s seed %d seconds %d trace %d\n", *workload, *seed, *seconds, *trace)
	ref := referenceMS()
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !emit(*workload, cfg, out, ref) {
		os.Exit(1)
	}
}

// emit prints the human-readable metrics, the stamped record and, last,
// the result line. It reports whether every check passed.
func emit(workload string, cfg runConfig, out *outcome, ref float64) bool {
	defs := e2eMetrics
	if cfg.trace {
		defs = layerMetrics
	}
	for _, d := range defs {
		if _, ok := out.metrics[d.name]; !ok {
			out.problems = append(out.problems, "benchmark did not measure "+d.name)
		}
	}
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	record := make(map[string]metric, len(defs))
	result := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		m := out.metrics[d.name]
		m.Unit = d.unit
		record[d.name] = m
		result[d.name] = map[string]any{"value": m.Value, "unit": d.unit}
		fmt.Printf("metric %-36s %16.6g %-6s (n=%d)\n", d.name, m.Value, d.unit, m.Samples)
	}
	names := make([]string, 0, len(out.extra))
	for n := range out.extra {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.extra[n]
		fmt.Printf("workload %-34s %16.6g %-6s (n=%d)\n", n, m.Value, m.Unit, m.Samples)
	}
	correct := len(out.problems) == 0
	rec, _ := json.Marshal(map[string]any{
		"workload": workload, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(), "trace": cfg.trace,
		"host": hostFacts(ref), "correct": correct, "attempted": out.attempted, "failed": out.failed,
		"metrics": record, "workload_metrics": out.extra,
	})
	fmt.Printf("record: %s\n", rec)
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": result,
	})
	fmt.Println(string(line))
	return correct
}

// hostFacts are the facts a speed claim has to carry: who ran it, on
// what, from which sources, and how fast the host ran a fixed
// reference loop at the start of the run.
func hostFacts(ref float64) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go":          runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":         cpuModel(),
		"commit":      commit,
		"source_sha":  sourceDigest(),
		"ref_loop_ms": ref,
	}
}

// referenceMS times a fixed single-threaded floating-point loop (the
// median of five) so records taken on a busier or slower host can be
// told apart from a slower program.
func referenceMS() float64 {
	var times []float64
	sink := 0.0
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < 10_000_000; i++ {
			sink += math.Sqrt(float64(i))
		}
		times = append(times, ms(time.Since(start)))
	}
	if sink < 0 {
		fmt.Println(sink)
	}
	return median(times)
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under the working
// directory, so a record names the code it measured even in a checkout
// that is not a git repository.
func sourceDigest() string {
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
