package net

import (
	"errors"
	"math"
	"testing"

	"braidio/internal/faults"
	"braidio/internal/field"
	"braidio/internal/phy"
	"braidio/internal/rng"
	"braidio/internal/sim"
	"braidio/internal/units"
)

// goldenMobileRun pins mobileGrid's Run digest (3600 s, 12 rounds),
// pinned on linux/amd64 like the other goldens.
const goldenMobileRun = 0x915b4ac3bfc39a78

// mobileGrid is denseGrid with every member behaviour on top of every
// coupling: hub 0 serves a random-waypoint walker and a member under a
// periodic dropout plus a two-sided brownout, hub 1 a QoS-floored
// member 1 m out. Walk and fault state is stateful, so the topology is
// rebuilt for every run.
func mobileGrid(t testing.TB) *Topology {
	topo := denseGrid(t)
	h0, h1 := topo.Hubs[0].Members, topo.Hubs[1].Members
	h0[1].Walk = sim.NewRandomWaypoint(0.2, 2.5, 0.5, 30, rng.New(77))
	h0[2].Faults = faults.Chain{
		&faults.Dropout{Start: 0, Period: 900, Duration: 300},
		&faults.Brownout{Start: 0, Period: 1200, Duration: 600, Scale: 2, Affected: faults.SideBoth},
	}
	h1[1].Pos = field.Vec2{X: 1.6, Y: 1.0}
	h1[1].MinRate = 300000
	return topo
}

// TestGoldenMobileDeterminism: the behaviours under couplings are
// bit-identical at every worker count and match the pin; the dropout
// costs exactly its four windowed rounds, the rate floor sheds most
// backscatter, and neither the faulted nor the QoS member is ever
// relayed.
func TestGoldenMobileDeterminism(t *testing.T) {
	var ref uint64
	for wi, workers := range goldenWorkers {
		res := runNet(t, mobileGrid(t), Config{Workers: workers}, 3600, 12)
		d := res.Digest()
		if wi == 0 {
			ref = d
			if res.SharedRounds == 0 || res.InterferedRounds == 0 {
				t.Errorf("couplings idle: shared=%d interfered=%d", res.SharedRounds, res.InterferedRounds)
			}
			walker, faulted, qos := &res.Hubs[0].Members[1], &res.Hubs[0].Members[2], &res.Hubs[1].Members[1]
			if walker.Bits <= 0 || qos.Bits <= 0 || faulted.Bits <= 0 {
				t.Errorf("behaviour members idle: walker=%v faulted=%v qos=%v", walker.Bits, faulted.Bits, qos.Bits)
			}
			if faulted.OutageRounds != 4 || faulted.Quarantined {
				t.Errorf("dropout member: %d outage rounds (quarantined=%v), want 4 and no quarantine",
					faulted.OutageRounds, faulted.Quarantined)
			}
			if f := qos.ModeBits[phy.ModeBackscatter] / qos.Bits; f > 0.5 {
				t.Errorf("QoS member sent %v of its bits on slow backscatter", f)
			}
			if faulted.RelayRounds != 0 || qos.RelayRounds != 0 {
				t.Errorf("relayed a faulted (%d) or QoS (%d) member", faulted.RelayRounds, qos.RelayRounds)
			}
			continue
		}
		if d != ref {
			t.Errorf("workers=%d: digest %#x != workers=%d's %#x", workers, d, goldenWorkers[0], ref)
		}
	}
	t.Logf("run=%#x", ref)
	if ref != goldenMobileRun {
		t.Errorf("run digest %#x, pinned %#x", ref, uint64(goldenMobileRun))
	}
}

// TestWalkMovesOnlyHomeDistance: a walk pinning the stranded sparse-line
// member at its home hub's feet makes the direct link close, while the
// relay appraisal still prices hop 1 from the member's position.
func TestWalkMovesOnlyHomeDistance(t *testing.T) {
	const slice = units.Second(300)
	cfg := Config{Workers: 1}
	base, err := Plan(sparseLine(t), cfg, slice)
	if err != nil {
		t.Fatal(err)
	}
	topo := sparseLine(t)
	topo.Hubs[0].Members[2].Walk = sim.StaticWalk(0.4)
	walked, err := Plan(topo, cfg, slice)
	if err != nil {
		t.Fatal(err)
	}
	b, w := base.Members[2], walked.Members[2]
	if !math.IsInf(float64(b.DirectTX), 1) || math.IsInf(float64(w.DirectTX), 1) {
		t.Fatalf("direct TX %v without the walk, %v with it: want +Inf then finite",
			float64(b.DirectTX), float64(w.DirectTX))
	}
	if w.Op == OpRelay {
		t.Error("a member at its hub's feet was relayed")
	}
	if b.RelayTX != w.RelayTX {
		t.Errorf("relay hop 1 moved with the walk: %v vs %v J/bit", float64(w.RelayTX), float64(b.RelayTX))
	}
}

// TestOutageMemberSilencesHub: a hub whose only member is in a carrier
// dropout does not emit, so it neither plans that member nor adds the
// interference its carrier puts under the clustered hubs' receivers.
func TestOutageMemberSilencesHub(t *testing.T) {
	plan := func(dropout bool) *RoundPlan {
		topo := denseGrid(t)
		far := &topo.Hubs[2]
		far.Members = far.Members[:1]
		if dropout {
			far.Members[0].Faults = &faults.Dropout{Start: 0, Period: 900, Duration: 300}
		}
		p, err := Plan(topo, Config{Workers: 1}, 300)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	on, off := plan(false), plan(true)
	if !on.Emitting[2] || off.Emitting[2] {
		t.Fatalf("hub 2 emitting: %v without the dropout, %v with it", on.Emitting[2], off.Emitting[2])
	}
	for i, mp := range off.Members {
		if mp.Hub == 2 {
			if mp.Op != OpSkip {
				t.Errorf("outage member planned %v", mp.Op)
			}
			continue
		}
		if on.Members[i].InterferenceMW <= 0 || mp.InterferenceMW != 0 {
			t.Errorf("member %d/%d: %v mW with hub 2 on the air, %v mW with it silent",
				mp.Hub, mp.Member, on.Members[i].InterferenceMW, mp.InterferenceMW)
		}
	}
}

// TestQoSAndFaultMembersNeverRelayed: the stranded sparse-line member,
// which only a relay can serve, is quarantined instead once it carries a
// rate floor or a fault injector.
func TestQoSAndFaultMembersNeverRelayed(t *testing.T) {
	for name, set := range map[string]func(*Member){
		"qos":    func(m *Member) { m.MinRate = 1000 },
		"faults": func(m *Member) { m.Faults = faults.Chain{} },
	} {
		topo := sparseLine(t)
		set(&topo.Hubs[0].Members[2])
		res := runNet(t, topo, Config{Workers: 2}, 1800, 6)
		mr := &res.Hubs[0].Members[2]
		if mr.RelayRounds != 0 || mr.Bits != 0 {
			t.Errorf("%s: relayed %d rounds, %v bits", name, mr.RelayRounds, mr.Bits)
		}
		if !mr.Quarantined || !errors.Is(mr.Err, ErrMemberQuarantined) {
			t.Errorf("%s: quarantined=%v err=%v", name, mr.Quarantined, mr.Err)
		}
	}
}

// TestBrownoutChargesSides: a TX brownout doubles the member's bill and
// leaves the hub's alone; an RX brownout does the opposite.
func TestBrownoutChargesSides(t *testing.T) {
	run := func(inj faults.Injector) *MemberResult {
		topo := denseGrid(t)
		topo.Hubs[0].Members[0].Faults = inj
		return &runNet(t, topo, Config{Workers: 1}, 3600, 12).Hubs[0].Members[0]
	}
	ratio := func(a, b units.Joule) float64 { return float64(a / b) }
	base := run(nil)
	for _, tc := range []struct {
		side       faults.Side
		member, hb float64
	}{{faults.SideTX, 2, 1}, {faults.SideRX, 1, 2}} {
		got := run(&faults.Brownout{Duration: 1e9, Scale: 2, Affected: tc.side})
		if r := ratio(got.MemberDrain, base.MemberDrain); math.Abs(r-tc.member) > 0.1*tc.member {
			t.Errorf("side %d: member drain ratio %v, want ≈%v", tc.side, r, tc.member)
		}
		if r := ratio(got.HubDrain, base.HubDrain); math.Abs(r-tc.hb) > 0.1*tc.hb {
			t.Errorf("side %d: hub drain ratio %v, want ≈%v", tc.side, r, tc.hb)
		}
		if got.Bits != base.Bits {
			t.Errorf("side %d: bits %v under brownout, %v without", tc.side, got.Bits, base.Bits)
		}
		if got.ModeBits[phy.ModeBackscatter] == 0 {
			t.Errorf("side %d: brownout member stopped backscattering", tc.side)
		}
	}
}
