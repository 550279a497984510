package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"braidio/internal/energy"
	"braidio/internal/hub"
	"braidio/internal/linkcache"
	"braidio/internal/obs"
	"braidio/internal/rng"
	"braidio/internal/sim"
	"braidio/internal/units"
)

// fleet-day: the braidio-sim -fleet population — 64 hub stars × 8
// wearables, a third of them on random-waypoint walks — simulated for
// one day in 288 five-minute rounds. Static members take the link
// cache's hit path and walkers its miss path; serve, HTTP and the
// journal never run.
const (
	fleetHubs    = 64
	fleetMembers = 8
	dayHorizon   = units.Second(86400)
	dayRounds    = 288
	// The simulators' set-up ends with a warm-up of three simulated
	// hours at the day's round length, so caches and pools are filled
	// before the first timed day.
	warmupHorizon = dayHorizon / 8
	warmupRounds  = dayRounds / 8
)

// fleetDigest is the outcome digest of one fleet-day at the default
// seed.
const fleetDigest = "b431438c5208044a"

// fleetMember is one generated wearable: where it sits, what it sends,
// and, for walkers, the seed of its private waypoint stream.
type fleetMember struct {
	dist     units.Meter
	load     units.BitRate
	walker   bool
	walkSeed uint64
}

// fleetWalkers is how many members walk: a third, exactly, so every
// seed puts the same load on the walk and cache-miss paths.
const fleetWalkers = fleetHubs * fleetMembers / 3

// genFleet draws the population from the workload seed.
func genFleet(seed uint64) [][]fleetMember {
	r := rng.New(seed ^ 0xf1ee7)
	out := make([][]fleetMember, fleetHubs)
	for s := range out {
		out[s] = make([]fleetMember, fleetMembers)
		for j := range out[s] {
			out[s][j] = fleetMember{
				dist:     units.Meter(0.3 + 1.5*r.Float64()),
				load:     units.BitRate(1000 + r.Intn(100000)),
				walkSeed: r.Uint64(),
			}
		}
	}
	// The first fleetWalkers members of a seeded shuffle walk.
	order := make([]int, fleetHubs*fleetMembers)
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for _, k := range order[:fleetWalkers] {
		out[k/fleetMembers][k%fleetMembers].walker = true
	}
	return out
}

// timedWalk wraps a member's walk to count and time DistanceAt calls.
// Each walk belongs to one hub, whose rounds advance walks from one
// goroutine, so the counters need no synchronization; they are read
// after Fleet.Run returns.
type timedWalk struct {
	w     sim.Walk
	calls uint64
	total time.Duration
}

func (t *timedWalk) DistanceAt(at units.Second) units.Meter {
	start := time.Now()
	d := t.w.DistanceAt(at)
	t.total += time.Since(start)
	t.calls++
	return d
}

// fleetRun holds one built fleet and, when traced, its walk wrappers.
type fleetRun struct {
	pop   [][]fleetMember
	hubD  energy.Device
	memD  energy.Device
	rec   *obs.Recorder
	fleet *hub.Fleet
	// timed collects a traced day's walk wrappers; tr and daySp are the
	// day's tracer and span, nil and 0 on untraced days.
	timed  [][]*timedWalk
	tr     *tracer
	daySp  uint64
	dayNo  uint64
	digest string
}

func newFleetRun(seed uint64, rec *obs.Recorder) (*fleetRun, error) {
	hubD, ok1 := energy.DeviceByName("iPhone 6S")
	memD, ok2 := energy.DeviceByName("Apple Watch")
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("device catalog lacks iPhone 6S or Apple Watch")
	}
	fr := &fleetRun{pop: genFleet(seed), hubD: hubD, memD: memD, rec: rec}
	fr.fleet = &hub.Fleet{Shards: fleetHubs, Seed: seed, Build: fr.build, Obs: rec}
	return fr, nil
}

// build constructs shard i's hub from the generated population; the
// fleet's own substream is not used, so the program sees only the
// benchmark's inputs.
func (fr *fleetRun) build(i int, _ *rng.Stream) (*hub.Hub, error) {
	start := time.Now()
	h := hub.New(fr.hubD, nil)
	for j, m := range fr.pop[i] {
		hm := hub.Member{Device: fr.memD, Distance: m.dist, Load: m.load}
		if m.walker {
			var w sim.Walk = sim.NewRandomWaypoint(0.2, 2.2, 0.5, 30, rng.New(m.walkSeed))
			if fr.timed != nil {
				tw := &timedWalk{w: w}
				fr.timed[i][j] = tw
				w = tw
			}
			hm.Walk = w
		}
		if err := h.Add(hm); err != nil {
			return nil, err
		}
	}
	fr.tr.record(fr.tr.id(), fr.daySp, fr.dayNo, "hub.build", start, time.Now())
	return h, nil
}

// digestFleet fingerprints a fleet result's outcomes: bits, drains,
// mode mix, quarantines, starvation and commit replans. Solver-internal
// counters (LP solves, memo reuses) are left out — they describe how
// the answer was reached, not the answer.
func digestFleet(res *hub.FleetResult) string {
	d := newDigest()
	for _, r := range res.Shards {
		if r == nil {
			d.u(math.MaxUint64)
			continue
		}
		d.f(float64(r.HubDrain))
		d.b(r.HubExhausted)
		d.u(uint64(int64(r.HubDiedRound)))
		d.u(uint64(r.Quarantines))
		d.u(uint64(r.Replans))
		for _, m := range r.Members {
			d.f(m.Bits)
			d.f(float64(m.MemberDrain))
			d.f(float64(m.HubDrain))
			for _, mb := range m.ModeBits {
				d.f(mb)
			}
			d.b(m.Starved)
			d.b(m.Quarantined)
			d.u(uint64(int64(m.QuarantinedRound)))
		}
	}
	return d.String()
}

// checkFleet verifies the energy accounting of one fleet result.
func checkFleet(o *outcome, fr *fleetRun, res *hub.FleetResult) {
	hubCap := float64(fr.hubD.NewBattery().Capacity())
	memCap := float64(fr.memD.NewBattery().Capacity())
	for i, r := range res.Shards {
		if r == nil {
			o.check(false, "fleet shard %d has no result", i)
			continue
		}
		sum := 0.0
		for j, m := range r.Members {
			load := float64(fr.pop[i][j].load) * float64(dayHorizon)
			modes := 0.0
			for _, mb := range m.ModeBits {
				modes += mb
			}
			o.check(m.Bits >= 0 && m.Bits <= load*(1+1e-9), "shard %d member %d delivered %v bits of %v offered", i, j, m.Bits, load)
			o.check(near(modes, m.Bits), "shard %d member %d mode bits %v != bits %v", i, j, modes, m.Bits)
			o.check(m.MemberDrain >= 0 && float64(m.MemberDrain) <= memCap*(1+1e-9), "shard %d member %d drained %v J of %v", i, j, float64(m.MemberDrain), memCap)
			o.check(m.HubDrain >= 0, "shard %d member %d negative hub drain", i, j)
			o.check(m.Bits == 0 || (m.MemberDrain > 0 && m.HubDrain > 0), "shard %d member %d delivered bits for free", i, j)
			sum += float64(m.HubDrain)
		}
		o.check(near(sum, float64(r.HubDrain)), "shard %d hub drain %v != member sum %v", i, float64(r.HubDrain), sum)
		o.check(float64(r.HubDrain) <= hubCap*(1+1e-9), "shard %d hub drained %v J of %v", i, float64(r.HubDrain), hubCap)
	}
	o.check(res.TotalBits() > 0, "fleet delivered nothing")
}

// near reports whether a and b agree to a relative 1e-9.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// day simulates one fleet day, traced when tr is non-nil, and checks
// its result.
func (fr *fleetRun) day(o *outcome, tr *tracer, st *dayStats) {
	fr.tr, fr.timed = tr, nil
	if tr != nil {
		fr.timed = make([][]*timedWalk, fleetHubs)
		for i := range fr.timed {
			fr.timed[i] = make([]*timedWalk, fleetMembers)
		}
	}
	fr.dayNo++
	fr.daySp = tr.id()
	var res *hub.FleetResult
	var err error
	t0, t1 := measureDay(st, fr.rec, func() { res, err = fr.fleet.Run(dayHorizon, dayRounds) })
	tr.record(fr.daySp, 0, fr.dayNo, "fleet.day", t0, t1)
	for _, hubWalks := range fr.timed {
		for _, tw := range hubWalks {
			if tw != nil {
				st.walkCalls += tw.calls
				st.walkTime += tw.total
			}
		}
	}
	judgeDay(o, "fleet", fr.dayNo, err, &fr.digest, func() string {
		checkFleet(o, fr, res)
		return digestFleet(res)
	})
}

// setupFleet builds the fleet and runs the warm-up from a flushed link
// cache, setupRepeats times; it returns the last fleet and the set-up
// times.
func setupFleet(seed uint64, rec *obs.Recorder) (fr *fleetRun, times []float64, err error) {
	times, err = timeSetups(func() error {
		linkcache.Flush()
		if fr, err = newFleetRun(seed, rec); err != nil {
			return err
		}
		if _, err := fr.fleet.Run(warmupHorizon, warmupRounds); err != nil {
			return fmt.Errorf("fleet warm-up: %w", err)
		}
		return nil
	})
	return fr, times, err
}

func runFleetDay(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	rec := obs.NewRecorder()
	fr, setups, err := setupFleet(cfg.seed, rec)
	if err != nil {
		return nil, err
	}
	fmt.Printf("fleet-day: %d hubs × %d members (%d walking), %d rounds per simulated day; set-ups %.3v s\n",
		fleetHubs, fleetMembers, fleetWalkers, dayRounds, setups)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	base, traced, rt := runDays(o, cfg.seconds, tr, fr.day)
	checkDefaultDigest(o, cfg.seed, "fleet-day", fr.digest, fleetDigest)
	fmt.Printf("fleet-day: digest %s\n", fr.digest)
	if !cfg.trace {
		heap := liveHeapMB()
		runtime.KeepAlive(fr)
		setSimE2E(o, "fleet-day", setups, &base, heap)
		return o, nil
	}

	tr.add("sim.walk.DistanceAt", traced.walkCalls, traced.walkTime)
	dists := make([]units.Meter, 0, fleetHubs*fleetMembers)
	e2 := make([]units.Joule, 0, cap(dists))
	for _, hubPop := range fr.pop {
		for _, m := range hubPop {
			dists = append(dists, m.dist)
			e2 = append(e2, fr.memD.NewBattery().Capacity())
		}
	}
	var probes linkProbes
	for i := 0; i < 5; i++ {
		probes.probe(tr, dists, fr.hubD.NewBattery().Capacity(), e2)
	}
	probes.set(o)
	setSimLayers(o, &base, &traced, rt)
	o.set("sim.walk_us", float64(traced.walkTime)/1e3/math.Max(1, float64(traced.walkCalls)), int(traced.walkCalls))
	o.set("sim.walk_share", traced.walkTime.Seconds()/traced.cpu.Seconds(), int(traced.walkCalls))
	setAbsent(o, netLayer...)
	setAbsent(o, serveLayer...)
	return o, tr.report(tracePath("fleet-day", cfg.seed))
}
