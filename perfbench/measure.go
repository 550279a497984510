package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank (xs need not be
// sorted; it is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// weighted is a sample that stands for n equal observations — one
// batch of updates that all became visible at the same instant.
type weighted struct {
	v float64
	n int
}

// weightedQuantile is quantile over samples expanded by their weights.
func weightedQuantile(xs []weighted, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].v < xs[j].v })
	total := 0
	for _, x := range xs {
		total += x.n
	}
	rank := int(math.Ceil(q * float64(total)))
	seen := 0
	for _, x := range xs {
		seen += x.n
		if seen >= rank {
			return x.v
		}
	}
	return xs[len(xs)-1].v
}

// median is quantile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user+system CPU time from getrusage.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is one read of the runtime counters a phase is
// measured between.
type runtimeSample struct {
	wall       time.Time
	cpu        time.Duration
	gcCPU      float64
	totalCPU   float64
	allocBytes uint64
	gcCycles   uint64
	sched      *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

// sampleRuntime reads the runtime/metrics counters and getrusage.
func sampleRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s := runtimeSample{wall: time.Now(), cpu: cpuTime()}
	s.gcCPU = ms[0].Value.Float64()
	s.totalCPU = ms[1].Value.Float64()
	s.allocBytes = ms[2].Value.Uint64()
	s.gcCycles = ms[3].Value.Uint64()
	s.sched = ms[4].Value.Float64Histogram()
	return s
}

// runtimeDelta is what the runtime did between samples; deltas of
// several phases add up.
type runtimeDelta struct {
	wall, cpu         time.Duration
	gcCPU, totalCPU   float64
	allocBytes        uint64
	gcCycles          uint64
	schedCounts       []uint64
	schedBucketBounds []float64
}

// since returns the runtime activity from a to b.
func since(a, b runtimeSample) runtimeDelta {
	d := runtimeDelta{
		wall:              b.wall.Sub(a.wall),
		cpu:               b.cpu - a.cpu,
		gcCPU:             b.gcCPU - a.gcCPU,
		totalCPU:          b.totalCPU - a.totalCPU,
		allocBytes:        b.allocBytes - a.allocBytes,
		gcCycles:          b.gcCycles - a.gcCycles,
		schedCounts:       make([]uint64, len(b.sched.Counts)),
		schedBucketBounds: b.sched.Buckets,
	}
	for i := range d.schedCounts {
		d.schedCounts[i] = b.sched.Counts[i] - a.sched.Counts[i]
	}
	return d
}

// add accumulates another phase's activity.
func (d *runtimeDelta) add(o runtimeDelta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
	d.allocBytes += o.allocBytes
	d.gcCycles += o.gcCycles
	if d.schedCounts == nil {
		d.schedCounts = make([]uint64, len(o.schedCounts))
		d.schedBucketBounds = o.schedBucketBounds
	}
	for i, c := range o.schedCounts {
		d.schedCounts[i] += c
	}
}

// gcCPUShare is the runtime's estimate of GC CPU over all CPU.
func (d runtimeDelta) gcCPUShare() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}

// schedP99 returns the p99 goroutine scheduling latency in µs, read at
// the upper bound of its histogram bucket, and the sample count.
func (d runtimeDelta) schedP99() (float64, uint64) {
	var total uint64
	for _, c := range d.schedCounts {
		total += c
	}
	if total == 0 {
		return 0, 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range d.schedCounts {
		seen += c
		if seen >= rank {
			hi := d.schedBucketBounds[i+1]
			if math.IsInf(hi, 1) {
				hi = d.schedBucketBounds[i]
			}
			return hi * 1e6, total
		}
	}
	return 0, total
}

// cpuUtil is CPU seconds per wall second per GOMAXPROCS slot.
func (d runtimeDelta) cpuUtil() float64 {
	if d.wall <= 0 {
		return 0
	}
	return d.cpu.Seconds() / (d.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// liveHeapMB forces collections and returns the live heap in MiB. The
// caller keeps the workload's state reachable across the call. The
// second collection frees what the first only moved to sync.Pool's
// victim cache, so pooled buffers do not count as live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
