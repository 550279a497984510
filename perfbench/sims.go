package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"braidio/internal/linkcache"
	"braidio/internal/obs"
)

// layerCounts are the program's own counters (obs and linkcache)
// summed over the days or waves they were read around.
type layerCounts struct {
	memberRounds, replans                  uint64
	relayRounds, carrierShares, interfered uint64
	lpSolves, reuses, warm, cold           uint64
	misses, evictions                      uint64
	servePlans, serveUpdates, snapshots    uint64
}

// add folds the counter movement between two reads into lc.
func (lc *layerCounts) add(s0, s1 obs.Snapshot, c0, c1 linkcache.Stats) {
	lc.memberRounds += s1.MemberRounds - s0.MemberRounds
	lc.replans += s1.Replans - s0.Replans
	lc.relayRounds += s1.RelayRounds - s0.RelayRounds
	lc.carrierShares += s1.CarrierShares - s0.CarrierShares
	lc.interfered += s1.InterferedRounds - s0.InterferedRounds
	lc.lpSolves += s1.LPSolves - s0.LPSolves
	lc.reuses += s1.AllocReuses - s0.AllocReuses
	lc.warm += s1.LPWarmStarts - s0.LPWarmStarts
	lc.cold += s1.LPColdFallbacks - s0.LPColdFallbacks
	lc.misses += c1.Misses - c0.Misses
	lc.evictions += c1.Evictions - c0.Evictions
	lc.servePlans += s1.ServePlans - s0.ServePlans
	lc.serveUpdates += s1.ServeUpdates - s0.ServeUpdates
	lc.snapshots += s1.ServeSnapshots - s0.ServeSnapshots
}

// dayStats accumulates simulated days.
type dayStats struct {
	days   int
	wall   []float64 // per-day wall time, ms
	cpu    time.Duration
	counts layerCounts
	// walkCalls and walkTime sum the timed walk wrappers of traced days.
	walkCalls uint64
	walkTime  time.Duration
}

// rate is committed member-rounds per host second on the median day;
// every day commits the same member-rounds, and the median keeps one
// disturbed day from moving the figure.
func (st *dayStats) rate() float64 {
	perDay := float64(st.counts.memberRounds) / float64(st.days)
	return perDay / (median(st.wall) / 1e3)
}

// perDay is n per simulated day.
func (st *dayStats) perDay(n uint64) float64 { return float64(n) / float64(st.days) }

// dayFunc simulates and checks one day, traced when tr is non-nil.
type dayFunc func(o *outcome, tr *tracer, st *dayStats)

// runDays simulates days until d has passed. Untraced, every day is
// measured alike. With a tracer, days alternate untraced and traced, so
// both see the same host conditions; the runtime counters are read
// around the untraced days only.
func runDays(o *outcome, d time.Duration, tr *tracer, day dayFunc) (base, traced dayStats, rt runtimeDelta) {
	start := time.Now()
	for i := 0; base.days == 0 || (tr != nil && traced.days == 0) || time.Since(start) < d; i++ {
		if tr != nil && i%2 == 1 {
			day(o, tr, &traced)
			continue
		}
		r0 := sampleRuntime()
		day(o, nil, &base)
		rt.add(since(r0, sampleRuntime()))
	}
	return base, traced, rt
}

// measureDay times one call of run and folds its counters into st.
func measureDay(st *dayStats, rec *obs.Recorder, run func()) (t0, t1 time.Time) {
	s0, c0, cpu0 := rec.Snapshot(), linkcache.Snapshot(), cpuTime()
	t0 = time.Now()
	run()
	t1 = time.Now()
	st.cpu += cpuTime() - cpu0
	st.counts.add(s0, rec.Snapshot(), c0, linkcache.Snapshot())
	st.days++
	st.wall = append(st.wall, ms(t1.Sub(t0)))
	return t0, t1
}

// judgeDay counts one simulated day as an attempted operation and as a
// failed one if the run erred or any check failed. check runs the
// day's invariant checks and returns its outcome digest, which must
// equal the first day's.
func judgeDay(o *outcome, name string, day uint64, err error, digest *string, check func() string) {
	o.attempted++
	if err != nil {
		o.failed++
		o.check(false, "%s day %d: %v", name, day, err)
		return
	}
	n := len(o.problems)
	dg := check()
	if *digest == "" {
		*digest = dg
	}
	o.check(dg == *digest, "%s day %d digest %s, want %s", name, day, dg, *digest)
	if len(o.problems) > n {
		o.failed++
	}
}

// timeSetups runs setup setupRepeats times and returns the durations.
func timeSetups(setup func() error) ([]float64, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, nil
}

// setSimE2E reports a simulator's end-to-end metrics.
func setSimE2E(o *outcome, workload string, setups []float64, st *dayStats, heap float64) {
	fmt.Printf("%s: %d days, day wall times %.0f ms\n", workload, st.days, st.wall)
	rate := st.rate()
	o.set("setup_s", median(setups), len(setups))
	o.set("throughput_per_s", rate, int(st.counts.memberRounds))
	o.set("visible_p50_ms", quantile(st.wall, 0.5), st.days)
	o.set("live_heap_mb", heap, 1)
	o.alias("member_rounds_per_s", rate, "1/s", int(st.counts.memberRounds))
	o.alias("visible_p99_ms", quantile(st.wall, 0.99), "ms", st.days)
	o.alias("cpu_us_per_member_round", float64(st.cpu)/1e3/float64(max(st.counts.memberRounds, 1)), "us", int(st.counts.memberRounds))
	o.alias("failed_share", share(o.failed, o.attempted), "ratio", o.attempted)
}

// setSimLayers reports the per-day counters and the solver shares of
// the traced days, the runtime counters of the untraced days, and the
// tracing overhead: how much longer a traced day took at the median.
func setSimLayers(o *outcome, base, traced *dayStats, rt runtimeDelta) {
	c := traced.counts
	o.set("linkcache.misses_per_member_round", ratio(c.misses, c.memberRounds), int(c.memberRounds))
	o.set("linkcache.evictions", traced.perDay(c.evictions), traced.days)
	setSolverLayers(o, c, c.memberRounds)
	o.set("hub.member_rounds", traced.perDay(c.memberRounds), traced.days)
	o.set("hub.replans", traced.perDay(c.replans), traced.days)
	setRuntimeLayers(o, rt, base.counts.memberRounds)
	o.set("trace.overhead_share", median(traced.wall)/median(base.wall)-1, base.days+traced.days)
}

// digest is an FNV-1a fingerprint of a simulator's numeric outcomes.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) f(v float64) { d.u(math.Float64bits(v)) }

func (d *digest) b(v bool) {
	if v {
		d.u(1)
	} else {
		d.u(0)
	}
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }
