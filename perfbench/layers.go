package main

import (
	"fmt"
	"path/filepath"
	"time"

	"braidio/internal/core"
	"braidio/internal/linkcache"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// linkProbes collects per-unit timings of the phy and core kernels,
// called directly from the benchmark on the workload's own inputs.
type linkProbes struct {
	characterizeUS, columnsUS, optimizeUS []float64
	n                                     int
}

// probe times phy.Model.Characterize per call, linkcache's
// View.CharacterizeColumns per member, and core.OptimizeBatch per
// member on the given distances and budgets (e1 the hub's, e2 per
// member).
func (p *linkProbes) probe(tr *tracer, dists []units.Meter, e1 units.Joule, e2 []units.Joule) {
	if len(dists) == 0 {
		return
	}
	n := float64(len(dists))
	model := phy.NewModel()
	root := tr.id()
	t0 := time.Now()
	for _, d := range dists {
		model.Characterize(d)
	}
	t1 := time.Now()
	tr.record(tr.id(), root, 0, "probe.phy.Characterize", t0, t1)

	view := linkcache.NewView(model)
	var s core.BatchScratch
	s.Reset(len(dists))
	copy(s.Dists, dists)
	for i := range s.E1 {
		s.E1[i], s.E2[i] = e1, e2[i]
	}
	t2 := time.Now()
	view.CharacterizeColumns(0, s.Dists, &s.Cols)
	t3 := time.Now()
	tr.record(tr.id(), root, 0, "probe.linkcache.CharacterizeColumns", t2, t3)
	core.OptimizeBatch(&s, 0)
	t4 := time.Now()
	tr.record(tr.id(), root, 0, "probe.core.OptimizeBatch", t3, t4)
	tr.record(root, 0, 0, "probe", t0, t4)
	p.characterizeUS = append(p.characterizeUS, float64(t1.Sub(t0))/1e3/n)
	p.columnsUS = append(p.columnsUS, float64(t3.Sub(t2))/1e3/n)
	p.optimizeUS = append(p.optimizeUS, float64(t4.Sub(t3))/1e3/n)
	p.n += len(dists)
}

// set reports the probes' medians.
func (p *linkProbes) set(o *outcome) {
	o.set("phy.characterize_us", median(p.characterizeUS), p.n)
	o.set("phy.characterize_columns_us", median(p.columnsUS), p.n)
	o.set("core.optimize_batch_us", median(p.optimizeUS), p.n)
}

// setSolverLayers reports the core and lp counters, per member-round
// where a rate is asked for.
func setSolverLayers(o *outcome, c layerCounts, memberRounds uint64) {
	o.set("core.lp_solves_per_member_round", ratio(c.lpSolves, memberRounds), int(memberRounds))
	o.set("core.alloc_reuse_share", ratio(c.reuses, c.lpSolves+c.reuses), int(c.lpSolves+c.reuses))
	o.set("lp.warm_start_share", ratio(c.warm, c.warm+c.cold), int(c.warm+c.cold))
}

// setRuntimeLayers reports the runtime and process counters of an
// untraced phase that completed ops operations.
func setRuntimeLayers(o *outcome, rt runtimeDelta, ops uint64) {
	sched, samples := rt.schedP99()
	o.set("runtime.gc_cpu_share", rt.gcCPUShare(), 1)
	o.set("runtime.alloc_mb_per_op", float64(rt.allocBytes)/(1<<20)/float64(max(ops, 1)), int(ops))
	o.set("runtime.gc_cycles", float64(rt.gcCycles), 1)
	o.set("runtime.sched_latency_p99_us", sched, int(samples))
	o.set("process.cpu_util", rt.cpuUtil(), 1)
}

// setAbsent reports 0 for layer metrics whose layer is not on the
// workload's path.
func setAbsent(o *outcome, names ...string) {
	for _, n := range names {
		o.set(n, 0, 0)
	}
}

var serveLayer = []string{
	"serve.update_handler_ms", "serve.epoch_ms_p50", "serve.epoch_ms_max", "serve.plan_ms_p50",
	"serve.apply_ms_p50", "serve.plans_per_update", "serve.journal_bytes_per_op", "serve.snapshots",
	"serve.visible_p99_ms", "serve.read_p50_ms", "serve.read_p99_ms", "serve.read_lag_ms_p99",
}

var netLayer = []string{
	"net.plan_round_ms", "net.relay_plan_share", "net.relay_rounds", "net.carrier_shares", "net.interfered_rounds",
}

var simLayer = []string{"sim.walk_us", "sim.walk_share"}

// ratio is a/b, 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// share is a/b for counts, 0 when b is 0.
func share(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkDefaultDigest compares a simulator digest with the one recorded
// for the default seed; other seeds rely on the invariant checks.
func checkDefaultDigest(o *outcome, seed uint64, workload, got, want string) {
	if seed != defaultSeed {
		return
	}
	o.check(got == want, "%s digest at the default seed is %s, recorded %s", workload, got, want)
}

// tracePath is where a traced run writes its spans.
func tracePath(workload string, seed uint64) string {
	return filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
}
