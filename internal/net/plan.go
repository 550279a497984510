package net

import (
	"fmt"
	"math"

	"braidio/internal/core"
	"braidio/internal/faults"
	"braidio/internal/par"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// Op is the per-member operation the planner chose for a round.
type Op uint8

const (
	// OpSkip: the member was not served (dead home hub, quarantined, or
	// starved).
	OpSkip Op = iota
	// OpDirect: ordinary braid to the home hub on its own carrier.
	OpDirect
	// OpShared: braid to the home hub riding a neighbor hub's carrier
	// for the backscatter mode.
	OpShared
	// OpRelay: 2-hop forwarding through a foreign hub.
	OpRelay
	// OpUnreachable: no direct link closes and no relay is available.
	OpUnreachable
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpSkip:
		return "skip"
	case OpDirect:
		return "direct"
	case OpShared:
		return "shared"
	case OpRelay:
		return "relay"
	case OpUnreachable:
		return "unreachable"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// MemberPlan is one member's appraised round in a RoundPlan.
type MemberPlan struct {
	// Hub and Member locate the slot in the topology.
	Hub, Member int
	// Op is the chosen operation.
	Op Op
	// Donor is the carrier-donor hub for OpShared (-1 otherwise).
	Donor int
	// Via is the relay hub for OpRelay (-1 otherwise).
	Via int
	// InterferenceMW is the aggregate co-channel carrier power (linear
	// milliwatts) at the receiver serving this member.
	InterferenceMW float64
	// DirectTX is the member's appraised energy per bit on the direct
	// path (+Inf when no direct link closes); RelayTX is the same for
	// the best relay candidate (+Inf when none).
	DirectTX, RelayTX units.JoulesPerBit
	// Bits is the payload the chosen operation would deliver this round.
	Bits float64
}

// RoundPlan is the appraisal of one network round against fresh
// batteries: which hubs emit, and what every member would do. Nothing
// is drained — Plan is the pure, fuzzable view of the scheduler.
type RoundPlan struct {
	// Emitting flags the hubs whose carrier is on the air this round.
	Emitting []bool
	// Members holds one plan per (hub, member) slot, in topology order.
	Members []MemberPlan
}

// Plan validates the topology and appraises one round of length slice
// against fresh batteries. It never panics on malformed input: every
// failure is one of the package's typed errors.
func Plan(t *Topology, cfg Config, slice units.Second) (*RoundPlan, error) {
	n, err := New(t, cfg)
	if err != nil {
		return nil, err
	}
	return n.PlanRound(slice)
}

// PlanRound appraises one round of length slice against fresh
// batteries without draining anything. It is round 0: walks and faults
// are evaluated at t=0, which advances a stateful injector.
func (n *Network) PlanRound(slice units.Second) (*RoundPlan, error) {
	if !(float64(slice) > 0) || math.IsInf(float64(slice), 1) {
		return nil, fmt.Errorf("%w: slice %v", ErrBadRun, float64(slice))
	}
	n.refill()
	res := n.newResult(slice, 1)
	n.phase0(res, 0)
	par.For(n.cfg.Workers, len(n.slots), func(i int) { n.planSlot(i, slice, false) })
	p := &RoundPlan{
		Emitting: make([]bool, len(n.hubs)),
		Members:  make([]MemberPlan, len(n.slots)),
	}
	for h := range n.hubs {
		p.Emitting[h] = n.hubs[h].emitting
	}
	for i := range n.slots {
		s := &n.slots[i]
		mp := MemberPlan{
			Hub: s.hub, Member: s.member,
			Op: s.op, Donor: -1, Via: -1,
			InterferenceMW: s.mw,
			DirectTX:       units.JoulesPerBit(math.Inf(1)),
			RelayTX:        units.JoulesPerBit(math.Inf(1)),
		}
		if s.active {
			mp.DirectTX = units.JoulesPerBit(s.directTX)
			if s.relay.ok {
				mp.RelayTX = units.JoulesPerBit(s.relay.txPerBit)
			}
			switch s.op {
			case OpShared:
				mp.Donor = s.donor
				mp.Bits = s.directBits
			case OpDirect:
				mp.Bits = s.directBits
			case OpRelay:
				mp.Via = s.relay.via
				mp.Bits = s.relay.bits
			}
		}
		p.Members[i] = mp
	}
	return p, nil
}

// phase0 is the sequential round prologue at time now: hub liveness and
// energy snapshots, walks and faults, member eligibility, the emission
// census, donor selection, per-receiver interference aggregation, and
// link construction. Each walk and injector is advanced exactly once
// per round, and only for a member its hub could serve. A slot's home
// links are rebuilt only when their stamp (distance, interference,
// donor and shared link) moved. Interfered or carrier-shared rounds run
// their braid with the allocation memo disabled.
func (n *Network) phase0(res *Result, now units.Second) {
	for h := range n.hubs {
		hs := &n.hubs[h]
		hs.alive = !n.hubBatts[h].Empty()
		hs.emitting = false
		hs.snap = *n.hubBatts[h]
	}
	// Pass A: walks, faults, eligibility, and the emission census.
	for i := range n.slots {
		s := &n.slots[i]
		mr := &res.Hubs[s.hub].Members[s.member]
		s.err = nil
		s.active = false
		s.outage = false
		s.txScale, s.rxScale = 1, 1
		s.private = false
		s.mw = 0
		s.donor = -1
		s.sharedOK = false
		s.op = OpSkip
		s.relay = relayPlan{via: -1}
		s.directTX = math.Inf(1)
		s.directBits = 0
		s.skipQuarantined = mr.Quarantined
		s.skipStarved = !mr.Quarantined && n.memberBatts[i].Empty()
		if !n.hubs[s.hub].alive || s.skipQuarantined || s.skipStarved {
			continue
		}
		m := &n.topo.Hubs[s.hub].Members[s.member]
		if m.Walk != nil {
			s.homeDist = clampDist(float64(m.Walk.DistanceAt(now)))
		}
		if m.Faults != nil {
			var env faults.Env
			env.Reset(now, phy.ModeActive, units.Rate1M, 0)
			m.Faults.Impair(&env)
			if env.CarrierLost {
				s.outage = true
				continue
			}
			s.txScale, s.rxScale = env.TXDrain, env.RXDrain
		}
		s.active = true
		n.hubs[s.hub].emitting = true
	}
	// Pass B: donors, interference, and the home links.
	for i := range n.slots {
		s := &n.slots[i]
		if !s.active {
			continue
		}
		n.pickDonor(s)
		if s.donor < 0 && !n.cfg.DisableInterference {
			s.mw = n.interferenceAt(s.hub, -1)
		}
		s.private = s.mw > 0 || s.sharedOK
		n.homeLinks(s)
	}
}

// homeLinks rebuilds the slot's home link set when its stamp moved.
func (n *Network) homeLinks(s *slot) {
	st := linkStamp{built: true, dist: s.homeDist, mw: s.mw, donor: s.donor}
	if s.sharedOK {
		st.shared = s.shared
	}
	if s.stamp != st {
		s.stamp = st
		s.home = n.characterize(s.home, s.homeDist, s.mw)
		if s.sharedOK {
			// Replace the monostatic backscatter entry (canonical mode
			// order puts it last) with the donor-carrier bistatic link;
			// if the monostatic round trip did not close, append.
			if k := len(s.home); k > 0 && s.home[k-1].Mode == phy.ModeBackscatter {
				s.home[k-1] = s.shared
			} else {
				s.home = append(s.home, s.shared)
			}
		}
	}
}

// characterize refills buf with the model's links at distance d under
// mw of added co-channel interference.
func (n *Network) characterize(buf []phy.ModeLink, d units.Meter, mw float64) []phy.ModeLink {
	mi := *n.model
	mi.Interference = n.model.Interference + mw
	return mi.CharacterizeInto(buf, d)
}

// pickDonor selects the slot's carrier donor: the nearest emitting
// foreign hub within the carrier-share radius whose bistatic budget
// actually closes at this geometry (under the interference the member's
// home receiver would then see). No donor is chosen when the budget
// refuses — the nearest-first scan does not fall back to farther
// donors, keeping the policy trivially deterministic.
func (n *Network) pickDonor(s *slot) {
	if n.cfg.DisableCarrierShare {
		return
	}
	best, bestD := -1, n.carrierRange
	for v := range n.hubs {
		if v == s.hub || !n.hubs[v].emitting {
			continue
		}
		if d := s.toHub[v]; d < bestD {
			best, bestD = v, d
		}
	}
	if best < 0 {
		return
	}
	mw := 0.0
	if !n.cfg.DisableInterference {
		mw = n.interferenceAt(s.hub, best)
	}
	mi := *n.model
	mi.Interference = n.model.Interference + mw
	if sl, ok := mi.SharedCarrierLink(s.toHub[best], s.homeDist); ok {
		s.donor = best
		s.mw = mw
		s.shared = sl
		s.sharedOK = true
	}
}

// planSlot is the parallel plan phase for one slot. When the member may
// be relayed, or when the round is only appraised (execute unset), it
// prices direct against relay; then, for non-relay ops when execute is
// set, it runs the member's braid against battery copies. It writes
// only slot-owned state.
func (n *Network) planSlot(i int, slice units.Second, execute bool) {
	s := &n.slots[i]
	if !s.active {
		return
	}
	hs := &n.hubs[s.hub]
	m := &n.topo.Hubs[s.hub].Members[s.member]
	s.op = OpDirect
	if s.sharedOK {
		s.op = OpShared
	}
	load := float64(m.Load) * float64(slice)
	e1, e2 := n.memberBatts[i].Remaining(), hs.snap.Remaining()
	relay := !n.cfg.DisableRelay && !(m.MinRate > 0) && m.Faults == nil
	if relay || !execute {
		if len(s.home) > 0 {
			a, err := &s.alloc, error(nil)
			if m.MinRate > 0 {
				a, err = core.OptimizeQoS(s.home, e1, e2, m.MinRate)
			} else {
				err = core.OptimizeInto(a, s.home, e1, e2)
			}
			if err == nil {
				s.directTX = float64(a.TX)
				s.directBits = math.Min(load, a.Bits)
			}
		}
		if relay {
			n.appraiseRelay(i, e1, load)
			if s.relay.ok && (math.IsInf(s.directTX, 1) || s.relay.txPerBit < s.directTX) {
				s.op = OpRelay
			}
		}
		if s.op != OpRelay && math.IsInf(s.directTX, 1) && !execute {
			s.op = OpUnreachable
		}
	}
	if !execute || s.op == OpRelay {
		return
	}
	s.braid.Distance = s.homeDist
	s.braid.MaxBits = load
	s.braid.DisableAllocationMemo = s.private
	s.braid.Links = s.home
	s.planB1 = *n.memberBatts[i]
	s.planB2 = hs.snap
	s.err = s.braid.RunInto(&s.plan, &s.scr, &s.planB1, &s.planB2)
}

// relayLinks characterizes one relay hop terminating at hub rx over
// distance d into the slot-owned buffer, excluding the hop's own
// transmitter from the interference aggregate.
func (n *Network) relayLinks(buf *[]phy.ModeLink, d units.Meter, rx, exclude int) []phy.ModeLink {
	mw := 0.0
	if !n.cfg.DisableInterference {
		mw = n.interferenceAt(rx, exclude)
	}
	*buf = n.characterize(*buf, d, mw)
	return *buf
}

// appraiseRelay searches the slot's 2-hop forwarding candidates: for
// every alive foreign hub, chain Optimize(member→via) with
// Optimize(via→home) against the round-start snapshots and keep the
// candidate minimizing the member's energy per bit (strict improvement,
// lowest hub index on ties). The planned bits are bounded by the load,
// the member's hop-1 budget, the via's combined hop-1 RX + hop-2 TX
// budget (one battery pays both), and the home hub's hop-2 RX budget.
func (n *Network) appraiseRelay(i int, e1 units.Joule, load float64) {
	s := &n.slots[i]
	home := s.hub
	eHome := n.hubs[home].snap.Remaining()
	bestTX := math.Inf(1)
	for v := range n.hubs {
		if v == home || !n.hubs[v].alive {
			continue
		}
		eVia := n.hubs[v].snap.Remaining()
		links1 := n.relayLinks(&s.relayBuf, s.toHub[v], v, -1)
		if len(links1) == 0 {
			continue
		}
		if err := core.OptimizeInto(&s.alloc, links1, e1, eVia); err != nil {
			continue
		}
		if !(float64(s.alloc.TX) < bestTX) {
			continue
		}
		links2 := n.relayLinks(&s.relayBuf2, n.hubDist[v][home], home, v)
		if len(links2) == 0 {
			continue
		}
		if err := core.OptimizeInto(&s.alloc2, links2, eVia, eHome); err != nil {
			continue
		}
		rp := relayPlan{
			ok:        true,
			via:       v,
			txPerBit:  float64(s.alloc.TX),
			viaPerBit: float64(s.alloc.RX) + float64(s.alloc2.TX),
			rxPerBit:  float64(s.alloc2.RX),
		}
		bits := load
		if c := float64(e1) / rp.txPerBit; c < bits {
			bits = c
		}
		if c := float64(eVia) / rp.viaPerBit; c < bits {
			bits = c
		}
		if c := float64(eHome) / rp.rxPerBit; c < bits {
			bits = c
		}
		rp.bits = bits
		for k := range s.alloc.Links {
			rp.modeShare[s.alloc.Links[k].Mode] += s.alloc.P[k]
		}
		s.relay = rp
		bestTX = rp.txPerBit
	}
}
