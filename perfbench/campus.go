package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"braidio/internal/energy"
	"braidio/internal/field"
	"braidio/internal/linkcache"
	"braidio/internal/net"
	"braidio/internal/obs"
	"braidio/internal/rng"
	"braidio/internal/units"
)

// net-campus: groups of two hubs spaced about 50 km apart, every
// coupling on, one simulated day in 288 rounds. Even groups are
// clusters (hubs 1.6 m apart, riding each other's carriers); odd
// groups are relay lines (hubs 1.6 km apart, hub A's third member
// stranded past A's active range, reachable only through B). It is
// the only workload that runs internal/net's census, interference and
// relay appraisal.
const (
	campusGroups  = 8
	campusSpacing = 50000.0
)

// campusDigest is the outcome digest of one net-campus day at the
// default seed.
const campusDigest = "671f6b3dd617ad9a"

// genCampus draws the topology from the workload seed.
func genCampus(seed uint64, hubD, memD energy.Device) *net.Topology {
	r := rng.New(seed ^ 0xca3905)
	around := func(c field.Vec2) field.Vec2 {
		rad := 0.25 + 0.3*r.Float64()
		th := 2 * math.Pi * r.Float64()
		return field.Vec2{X: c.X + rad*math.Cos(th), Y: c.Y + rad*math.Sin(th)}
	}
	member := func(p field.Vec2) net.Member {
		return net.Member{Device: memD, Pos: p, Load: units.BitRate(10000 + r.Intn(40000))}
	}
	topo := &net.Topology{}
	for g := 0; g < campusGroups; g++ {
		a := field.Vec2{X: float64(g)*campusSpacing + 2000*(r.Float64()-0.5), Y: 2000 * (r.Float64() - 0.5)}
		if g%2 == 0 {
			b := field.Vec2{X: a.X + 1.6, Y: a.Y}
			ha := net.Hub{Device: hubD, Pos: a}
			hb := net.Hub{Device: hubD, Pos: b}
			for j := 0; j < 3; j++ {
				ha.Members = append(ha.Members, member(around(a)))
				hb.Members = append(hb.Members, member(around(b)))
			}
			topo.Hubs = append(topo.Hubs, ha, hb)
			continue
		}
		b := field.Vec2{X: a.X + 1600, Y: a.Y}
		ha := net.Hub{Device: hubD, Pos: a, Members: []net.Member{member(around(a)), member(around(a))}}
		// Past the ~1773 m active range of A, about 200 m from B.
		ha.Members = append(ha.Members, member(field.Vec2{X: a.X + 1780 + 40*r.Float64(), Y: a.Y + 10*(r.Float64()-0.5)}))
		hb := net.Hub{Device: hubD, Pos: b, Members: []net.Member{member(around(b)), member(around(b))}}
		topo.Hubs = append(topo.Hubs, ha, hb)
	}
	return topo
}

// digestCampus fingerprints a network result's outcomes; like
// digestFleet it leaves out the solver-internal counters.
func digestCampus(res *net.Result) string {
	d := newDigest()
	d.u(uint64(res.Quarantines))
	d.u(uint64(res.Replans))
	d.u(uint64(res.RelayRounds))
	d.u(uint64(res.SharedRounds))
	d.u(uint64(res.InterferedRounds))
	d.f(res.RelayBits)
	for i := range res.Hubs {
		hr := &res.Hubs[i]
		d.f(float64(hr.Drain))
		d.b(hr.Exhausted)
		d.u(uint64(int64(hr.DiedRound)))
		d.u(uint64(hr.Replans))
		for j := range hr.Members {
			m := &hr.Members[j]
			d.f(m.Bits)
			d.f(m.RelayBits)
			d.f(float64(m.MemberDrain))
			d.f(float64(m.HubDrain))
			d.f(float64(m.ViaDrain))
			for _, mb := range m.ModeBits {
				d.f(mb)
			}
			d.u(uint64(m.DirectRounds))
			d.u(uint64(m.SharedRounds))
			d.u(uint64(m.RelayRounds))
			d.u(uint64(m.InterferedRounds))
			d.b(m.Starved)
			d.b(m.Quarantined)
			d.u(uint64(int64(m.QuarantinedRound)))
		}
	}
	return d.String()
}

// checkCampus verifies one day's energy accounting and that every
// coupling the workload exists for actually ran.
func checkCampus(o *outcome, topo *net.Topology, res *net.Result, hubCap, memCap float64) {
	var homeAndVia, drains float64
	var relay, shared, interfered int
	for i := range res.Hubs {
		hr := &res.Hubs[i]
		own := 0.0
		for j := range hr.Members {
			m := &hr.Members[j]
			load := float64(topo.Hubs[i].Members[j].Load) * float64(dayHorizon)
			modes := 0.0
			for _, mb := range m.ModeBits {
				modes += mb
			}
			o.check(m.Bits >= 0 && m.Bits <= load*(1+1e-9), "hub %d member %d delivered %v bits of %v offered", i, j, m.Bits, load)
			o.check(m.RelayBits >= 0 && m.RelayBits <= m.Bits*(1+1e-9), "hub %d member %d relayed %v of %v bits", i, j, m.RelayBits, m.Bits)
			o.check(near(modes, m.Bits), "hub %d member %d mode bits %v != bits %v", i, j, modes, m.Bits)
			o.check(m.MemberDrain >= 0 && float64(m.MemberDrain) <= memCap*(1+1e-9), "hub %d member %d drained %v J of %v", i, j, float64(m.MemberDrain), memCap)
			o.check(m.HubDrain >= 0 && m.ViaDrain >= 0, "hub %d member %d negative hub or via drain", i, j)
			o.check(m.RelayRounds == 0 || m.ViaDrain > 0, "hub %d member %d relayed without billing the via hub", i, j)
			own += float64(m.HubDrain)
			homeAndVia += float64(m.HubDrain + m.ViaDrain)
			relay += m.RelayRounds
			shared += m.SharedRounds
			interfered += m.InterferedRounds
		}
		o.check(float64(hr.Drain) >= own*(1-1e-9), "hub %d drained %v J, less than its members' home share %v", i, float64(hr.Drain), own)
		o.check(float64(hr.Drain) <= hubCap*(1+1e-9), "hub %d drained %v J of %v", i, float64(hr.Drain), hubCap)
		drains += float64(hr.Drain)
	}
	o.check(drains >= homeAndVia*(1-1e-9), "hubs drained %v J, less than the %v J billed to them", drains, homeAndVia)
	o.check(relay == res.RelayRounds && shared == res.SharedRounds && interfered == res.InterferedRounds,
		"round tallies %d/%d/%d disagree with the result's %d/%d/%d", relay, shared, interfered,
		res.RelayRounds, res.SharedRounds, res.InterferedRounds)
	o.check(res.RelayRounds > 0 && res.SharedRounds > 0 && res.InterferedRounds > 0,
		"a coupling never ran: relay %d shared %d interfered %d rounds", res.RelayRounds, res.SharedRounds, res.InterferedRounds)
	for g := 1; g < campusGroups; g += 2 {
		m := &res.Hubs[2*g].Members[2]
		o.check(m.Bits > 0 && m.RelayBits == m.Bits, "group %d stranded member delivered %v bits, %v relayed", g, m.Bits, m.RelayBits)
	}
}

// campusRun is one built network and what checks need to know.
type campusRun struct {
	topo           *net.Topology
	network        *net.Network
	rec            *obs.Recorder
	hubCap, memCap float64
	dayNo          uint64
	digest         string
	last           *net.Result
}

func newCampusRun(seed uint64, rec *obs.Recorder) (*campusRun, error) {
	hubD, ok1 := energy.DeviceByName("iPhone 6S")
	memD, ok2 := energy.DeviceByName("Apple Watch")
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("device catalog lacks iPhone 6S or Apple Watch")
	}
	topo := genCampus(seed, hubD, memD)
	n, err := net.New(topo, net.Config{Obs: rec})
	if err != nil {
		return nil, err
	}
	return &campusRun{topo: topo, network: n, rec: rec,
		hubCap: float64(hubD.NewBattery().Capacity()), memCap: float64(memD.NewBattery().Capacity())}, nil
}

// day simulates one network day on the network built at set-up and
// checks its result.
func (cr *campusRun) day(o *outcome, tr *tracer, st *dayStats) {
	cr.dayNo++
	var res *net.Result
	var err error
	t0, t1 := measureDay(st, cr.rec, func() { res, err = cr.network.Run(dayHorizon, dayRounds) })
	tr.record(tr.id(), 0, cr.dayNo, "net.day", t0, t1)
	if err == nil {
		cr.last = res
	}
	judgeDay(o, "net", cr.dayNo, err, &cr.digest, func() string {
		checkCampus(o, cr.topo, res, cr.hubCap, cr.memCap)
		return digestCampus(res)
	})
}

// setupCampus builds the network and runs the warm-up from a flushed
// link cache, setupRepeats times.
func setupCampus(seed uint64, rec *obs.Recorder) (cr *campusRun, times []float64, err error) {
	times, err = timeSetups(func() error {
		linkcache.Flush()
		if cr, err = newCampusRun(seed, rec); err != nil {
			return err
		}
		if _, err := cr.network.Run(warmupHorizon, warmupRounds); err != nil {
			return fmt.Errorf("net warm-up: %w", err)
		}
		return nil
	})
	return cr, times, err
}

// planRoundMS times Network.PlanRound on a fresh network, median of
// reps calls.
func planRoundMS(tr *tracer, topo *net.Topology, cfg net.Config, name string, reps int) (float64, error) {
	n, err := net.New(topo, cfg)
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := n.PlanRound(dayHorizon / dayRounds); err != nil {
			return 0, err
		}
		t1 := time.Now()
		tr.record(tr.id(), 0, 0, name, t0, t1)
		times = append(times, ms(t1.Sub(t0)))
	}
	return median(times), nil
}

func runNetCampus(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	rec := obs.NewRecorder()
	cr, setups, err := setupCampus(cfg.seed, rec)
	if err != nil {
		return nil, err
	}
	members := 0
	for _, h := range cr.topo.Hubs {
		members += len(h.Members)
	}
	fmt.Printf("net-campus: %d hubs in %d groups, %d members, %d rounds per simulated day; set-ups %.3v s\n",
		len(cr.topo.Hubs), campusGroups, members, dayRounds, setups)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	base, traced, rt := runDays(o, cfg.seconds, tr, cr.day)
	checkDefaultDigest(o, cfg.seed, "net-campus", cr.digest, campusDigest)
	if cr.last != nil {
		fmt.Printf("net-campus: digest %s; per day relay %d, shared %d, interfered %d member-rounds\n",
			cr.digest, cr.last.RelayRounds, cr.last.SharedRounds, cr.last.InterferedRounds)
	}
	if !cfg.trace {
		heap := liveHeapMB()
		runtime.KeepAlive(cr)
		setSimE2E(o, "net-campus", setups, &base, heap)
		return o, nil
	}

	const reps = 7
	withRelay, err := planRoundMS(tr, cr.topo, net.Config{}, "probe.net.PlanRound", reps)
	if err != nil {
		return nil, err
	}
	direct, err := planRoundMS(tr, cr.topo, net.Config{DisableRelay: true}, "probe.net.PlanRound.norelay", reps)
	if err != nil {
		return nil, err
	}
	var dists []units.Meter
	var e2 []units.Joule
	for _, h := range cr.topo.Hubs {
		for _, m := range h.Members {
			dists = append(dists, units.Meter(math.Max(float64(net.MinDistance), h.Pos.Dist(m.Pos))))
			e2 = append(e2, units.Joule(cr.memCap))
		}
	}
	var probes linkProbes
	for i := 0; i < 5; i++ {
		probes.probe(tr, dists, units.Joule(cr.hubCap), e2)
	}
	probes.set(o)
	setSimLayers(o, &base, &traced, rt)
	c := traced.counts
	o.set("net.plan_round_ms", withRelay, reps)
	o.set("net.relay_plan_share", 1-direct/withRelay, 2*reps)
	o.set("net.relay_rounds", traced.perDay(c.relayRounds), traced.days)
	o.set("net.carrier_shares", traced.perDay(c.carrierShares), traced.days)
	o.set("net.interfered_rounds", traced.perDay(c.interfered), traced.days)
	setAbsent(o, simLayer...)
	setAbsent(o, serveLayer...)
	return o, tr.report(tracePath("net-campus", cfg.seed))
}
