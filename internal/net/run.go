package net

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"braidio/internal/obs"
	"braidio/internal/par"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// MemberResult is one member's share of a network run.
type MemberResult struct {
	// Member is the topology entry this result describes.
	Member Member
	// Bits delivered from the member to its home hub (directly or
	// through a relay); RelayBits is the relayed subset.
	Bits, RelayBits float64
	// MemberDrain is the member's radio energy. HubDrain is the home
	// hub's energy on this member's traffic; ViaDrain the relay hubs'.
	MemberDrain, HubDrain, ViaDrain units.Joule
	// ModeBits attributes delivered bits to modes, indexed by phy.Mode.
	// Relayed bits are attributed by the member-side hop's mix.
	ModeBits [phy.NumModes]float64
	// Round tallies by operation, plus rounds served under nonzero
	// interference.
	DirectRounds, SharedRounds, RelayRounds, InterferedRounds int
	// Starved reports the member's battery died before the horizon.
	Starved bool
	// Quarantined reports the member was removed from scheduling; Err
	// then wraps ErrMemberQuarantined and the final failure's reason,
	// in that order (its Unwrap() []error returns exactly those two).
	Quarantined      bool
	QuarantinedRound int   // see Quarantined
	Err              error // see Quarantined
	// OutageRounds counts rounds lost to injected carrier dropouts. It
	// is not part of Result.Digest.
	OutageRounds int
}

// HubResult is one hub's share of a network run.
type HubResult struct {
	// Hub is the topology entry this result describes.
	Hub *Hub
	// Drain is everything the hub's battery spent: home duty, relay
	// forwarding, and carrier donation are all drawn from it.
	Drain units.Joule
	// Exhausted reports the battery died before the horizon; DiedRound
	// records when (-1 if it survived).
	Exhausted bool
	DiedRound int // see Exhausted
	// Replans counts commit-time re-solves against drifted budgets.
	Replans int
	// LPSolves and AllocReuses aggregate the braid solver counters
	// across the hub's members.
	LPSolves, AllocReuses int
	// Members holds per-member outcomes in registration order.
	Members []MemberResult
}

// TotalBits sums delivered bits across the hub's members.
func (h *HubResult) TotalBits() float64 {
	total := 0.0
	for i := range h.Members {
		total += h.Members[i].Bits
	}
	return total
}

// Result is the outcome of a network run.
type Result struct {
	// Horizon is the wall-clock span simulated; Rounds the round count.
	Horizon units.Second
	Rounds  int // see Horizon
	// Hubs holds per-hub outcomes in topology order.
	Hubs []HubResult
	// Quarantines counts members removed from scheduling; Replans the
	// commit-time re-solves.
	Quarantines, Replans int
	// RelayRounds, SharedRounds, and InterferedRounds count committed
	// member-rounds by coupling; RelayBits totals the relayed payload.
	RelayRounds, SharedRounds, InterferedRounds int
	RelayBits                                   float64 // see RelayRounds
}

// TotalBits sums delivered bits across the network.
func (r *Result) TotalBits() float64 {
	total := 0.0
	for h := range r.Hubs {
		total += r.Hubs[h].TotalBits()
	}
	return total
}

// Digest is an order-sensitive FNV-1a fingerprint of every numeric
// outcome in the result — the golden determinism tests pin it across
// worker counts and topologies. MemberResult.OutageRounds is left out.
func (r *Result) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { w(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			w(1)
		} else {
			w(0)
		}
	}
	f(float64(r.Horizon))
	w(uint64(r.Rounds))
	w(uint64(r.Quarantines))
	w(uint64(r.Replans))
	w(uint64(r.RelayRounds))
	w(uint64(r.SharedRounds))
	w(uint64(r.InterferedRounds))
	f(r.RelayBits)
	for i := range r.Hubs {
		hr := &r.Hubs[i]
		f(float64(hr.Drain))
		b(hr.Exhausted)
		w(uint64(int64(hr.DiedRound)))
		w(uint64(hr.Replans))
		w(uint64(hr.LPSolves))
		w(uint64(hr.AllocReuses))
		for j := range hr.Members {
			mr := &hr.Members[j]
			f(mr.Bits)
			f(mr.RelayBits)
			f(float64(mr.MemberDrain))
			f(float64(mr.HubDrain))
			f(float64(mr.ViaDrain))
			for _, mb := range mr.ModeBits {
				f(mb)
			}
			w(uint64(mr.DirectRounds))
			w(uint64(mr.SharedRounds))
			w(uint64(mr.RelayRounds))
			w(uint64(mr.InterferedRounds))
			b(mr.Starved)
			b(mr.Quarantined)
			w(uint64(int64(mr.QuarantinedRound)))
			b(mr.Err != nil)
		}
	}
	return h.Sum64()
}

// Digest fingerprints a round plan the same way.
func (p *RoundPlan) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { w(math.Float64bits(v)) }
	for _, e := range p.Emitting {
		if e {
			w(1)
		} else {
			w(0)
		}
	}
	for i := range p.Members {
		mp := &p.Members[i]
		w(uint64(mp.Hub))
		w(uint64(mp.Member))
		w(uint64(mp.Op))
		w(uint64(int64(mp.Donor)))
		w(uint64(int64(mp.Via)))
		f(mp.InterferenceMW)
		f(float64(mp.DirectTX))
		f(float64(mp.RelayTX))
		f(mp.Bits)
	}
	return h.Sum64()
}

// newResult builds a zeroed result shell for this topology.
func (n *Network) newResult(horizon units.Second, rounds int) *Result {
	res := &Result{
		Horizon: horizon,
		Rounds:  rounds,
		Hubs:    make([]HubResult, len(n.topo.Hubs)),
	}
	for h := range n.topo.Hubs {
		hub := &n.topo.Hubs[h]
		res.Hubs[h] = HubResult{
			Hub:       hub,
			DiedRound: -1,
			Members:   make([]MemberResult, len(hub.Members)),
		}
		for j := range hub.Members {
			res.Hubs[h].Members[j] = MemberResult{Member: hub.Members[j]}
		}
	}
	return res
}

// commit is one round's commit-phase context: the result being
// tallied, the recorder (nil when off), and the round's index and
// start time.
type commit struct {
	res   *Result
	rec   *obs.Recorder
	round int
	now   units.Second
}

// trace records a round event for slot i (-1 for a hub event). The
// caller has checked rec.
func (c *commit) trace(kind obs.EventKind, i int) {
	c.rec.Trace(obs.Event{Kind: kind, Round: c.round, Member: i, Time: float64(c.now)})
}

// replan counts one commit-time re-solve for slot i of hub hr.
func (c *commit) replan(hr *HubResult, i int) {
	c.res.Replans++
	hr.Replans++
	if c.rec != nil {
		c.rec.Replans.Add(1)
		c.trace(obs.EvReplan, i)
	}
}

// died records that hub hr's battery hit empty this round, once.
func (c *commit) died(hr *HubResult) {
	if hr.DiedRound >= 0 {
		return
	}
	hr.DiedRound = c.round
	if c.rec != nil {
		c.rec.HubDeaths.Add(1)
		c.trace(obs.EvHubDeath, -1)
	}
}

// interfered counts a committed round of s served under interference.
func (c *commit) interfered(mr *MemberResult, s *slot) {
	if s.mw > 0 {
		mr.InterferedRounds++
		c.res.InterferedRounds++
		if c.rec != nil {
			c.rec.InterferedRounds.Add(1)
		}
	}
}

// strike records one failed round for slot i and quarantines the member
// once the strike budget is exhausted, wrapping ErrMemberQuarantined
// around the final failure's reason.
func (n *Network) strike(c *commit, mr *MemberResult, i int, reason error) {
	n.strikes[i]++
	if n.strikes[i] < n.strikeLimit {
		return
	}
	s := &n.slots[i]
	mr.Quarantined = true
	mr.QuarantinedRound = c.round
	mr.Err = fmt.Errorf("%w after %d consecutive failed rounds: net: member %d/%d: %w",
		ErrMemberQuarantined, n.strikes[i], s.hub, s.member, reason)
	c.res.Quarantines++
	if c.rec != nil {
		c.rec.Quarantines.Add(1)
		c.trace(obs.EvQuarantine, i)
	}
}

// Run simulates the network for a wall-clock horizon split into rounds
// (see the package comment for the two-phase determinism contract).
// Phase 2 commits per hub in topology order: replan on drifted budgets,
// strikes and quarantine, the hub-death mid-round cutoff, and relay
// rounds settled across the three batteries involved. Run stops early
// once every hub is dead.
//
// Member failures do not abort the run: a round that errors (the member
// walked out of range, its QoS floor is infeasible, its carrier
// dropped) counts a strike, and a member that exhausts its strike
// budget is quarantined while the others keep being served.
func (n *Network) Run(horizon units.Second, rounds int) (*Result, error) {
	if horizon <= 0 || rounds < 1 || math.IsInf(float64(horizon), 1) || math.IsNaN(float64(horizon)) {
		return nil, fmt.Errorf("%w: horizon %v / rounds %d", ErrBadRun, float64(horizon), rounds)
	}
	n.refill()
	res := n.newResult(horizon, rounds)
	rec := obs.Active(n.cfg.Obs)
	for i := range n.slots {
		n.slots[i].scr.Reset()
		n.strikes[i] = 0
	}
	slice := horizon / units.Second(rounds)
	plan := func(i int) { n.planSlot(i, slice, true) }

	for round := 0; round < rounds; round++ {
		c := commit{res: res, rec: rec, round: round, now: units.Second(round) * slice}
		n.phase0(res, c.now)
		anyAlive := false
		for h := range n.hubs {
			if n.hubs[h].alive {
				anyAlive = true
				if rec != nil {
					rec.HubRounds.Add(1)
				}
			}
		}
		if !anyAlive {
			break
		}
		// A one-hub run is an isolated star (hub.Run), not a network
		// round.
		if rec != nil && len(n.hubs) > 1 {
			rec.NetRounds.Add(1)
		}

		// Phase 1: plan all slots against the immutable snapshots.
		par.For(n.cfg.Workers, len(n.slots), plan)

		// Phase 2: commit in topology order.
		for h := range n.hubs {
			hs := &n.hubs[h]
			hr := &res.Hubs[h]
			if !hs.alive {
				continue
			}
			if n.hubBatts[h].Empty() {
				// An earlier hub's relay drained this hub to death before
				// its own commits ran: record the death and serve nobody —
				// striking every member for an external drain would
				// quarantine a healthy roster.
				c.died(hr)
				continue
			}
			for i := hs.slotLo; i < hs.slotHi; i++ {
				s := &n.slots[i]
				mr := &hr.Members[s.member]
				switch {
				case s.skipQuarantined:
					continue
				case s.skipStarved:
					mr.Starved = true
					continue
				case s.outage:
					mr.OutageRounds++
					if rec != nil {
						rec.OutageRounds.Add(1)
						c.trace(obs.EvOutage, i)
					}
					n.strike(&c, mr, i, fmt.Errorf("carrier lost at t=%vs", float64(c.now)))
					continue
				}
				bits := float64(n.topo.Hubs[h].Members[s.member].Load) * float64(slice)
				if s.op == OpRelay {
					n.commitRelay(&c, hr, mr, i, bits)
				} else if !n.commitBraid(&c, hr, mr, i, bits) {
					continue
				}
				// Hub-death accounting: checked after every commit — a
				// dead hub must not keep serving the rest of the round.
				if n.hubBatts[h].Empty() {
					c.died(hr)
					break
				}
			}
		}
	}
	for h := range n.hubs {
		res.Hubs[h].Exhausted = n.hubBatts[h].Empty()
	}
	return res, nil
}

// commitBraid settles one direct or carrier-shared round of slot i:
// apply the plan's drains — re-solving against the true remaining
// energies if earlier commits (this hub's members, or a relay billed to
// this hub) drained the home hub below what the plan assumed — then the
// brownout surcharges. It reports false when the round failed and was
// struck.
func (n *Network) commitBraid(c *commit, hr *HubResult, mr *MemberResult, i int, bits float64) bool {
	s := &n.slots[i]
	mb, hb := n.memberBatts[i], n.hubBatts[s.hub]
	run := &s.plan
	if s.err == nil {
		hubNeed := run.Drain2
		if s.rxScale > 1 {
			hubNeed += run.Drain2 * units.Joule(s.rxScale-1)
		}
		if hb.Remaining() < hubNeed {
			c.replan(hr, i)
			s.err = s.braid.RunInto(run, &s.scr, mb, hb)
		} else {
			mb.Drain(run.Drain1)
			hb.Drain(run.Drain2)
		}
	}
	if s.err != nil {
		n.strike(c, mr, i, s.err)
		return false
	}
	n.strikes[i] = 0
	if c.rec != nil {
		c.rec.MemberRounds.Add(1)
	}
	mr.Bits += run.Bits
	hr.LPSolves += run.LPSolves
	hr.AllocReuses += run.AllocReuses
	mr.MemberDrain += run.Drain1
	mr.HubDrain += run.Drain2
	hr.Drain += run.Drain2
	if s.txScale > 1 {
		extra := run.Drain1 * units.Joule(s.txScale-1)
		mb.Drain(extra)
		mr.MemberDrain += extra
	}
	if s.rxScale > 1 {
		extra := run.Drain2 * units.Joule(s.rxScale-1)
		hb.Drain(extra)
		mr.HubDrain += extra
		hr.Drain += extra
	}
	for mode, b := range run.ModeBits {
		mr.ModeBits[mode] += b
	}
	if s.op == OpShared {
		mr.SharedRounds++
		c.res.SharedRounds++
		if c.rec != nil {
			c.rec.CarrierShares.Add(1)
		}
	} else {
		mr.DirectRounds++
	}
	c.interfered(mr, s)
	if run.Bits < bits*0.999 && mb.Empty() {
		mr.Starved = true
	}
	return true
}

// commitRelay settles one relayed round of slot i: re-clamp the planned
// bits against the *current* remaining budgets (earlier commits this
// round may have drained the via or home hub), then bill the member the
// hop-1 TX, the via hub both middle legs, and the home hub the hop-2
// RX — the three per-bit prices straight from the appraisal's two
// chained Optimize solves.
func (n *Network) commitRelay(c *commit, hr *HubResult, mr *MemberResult, i int, bits float64) {
	s := &n.slots[i]
	rp := &s.relay
	mb, vb, hb := n.memberBatts[i], n.hubBatts[rp.via], n.hubBatts[s.hub]
	vres := &c.res.Hubs[rp.via]
	B := rp.bits
	if v := float64(mb.Remaining()) / rp.txPerBit; v < B {
		B = v
	}
	if v := float64(vb.Remaining()) / rp.viaPerBit; v < B {
		B = v
	}
	if v := float64(hb.Remaining()) / rp.rxPerBit; v < B {
		B = v
	}
	if B < rp.bits {
		c.replan(hr, i)
	}
	if !(B > 0) {
		n.strike(c, mr, i, fmt.Errorf("relay via hub %d has no budget", rp.via))
		return
	}
	memE := units.Joule(B * rp.txPerBit)
	viaE := units.Joule(B * rp.viaPerBit)
	homeE := units.Joule(B * rp.rxPerBit)
	mb.Drain(memE)
	vb.Drain(viaE)
	hb.Drain(homeE)
	n.strikes[i] = 0
	if c.rec != nil {
		c.rec.MemberRounds.Add(1)
		c.rec.RelayRounds.Add(1)
		c.rec.RelayBits.Add(B)
	}
	mr.Bits += B
	mr.RelayBits += B
	mr.MemberDrain += memE
	mr.HubDrain += homeE
	mr.ViaDrain += viaE
	hr.Drain += homeE
	vres.Drain += viaE
	for mode := range rp.modeShare {
		mr.ModeBits[mode] += B * rp.modeShare[mode]
	}
	mr.RelayRounds++
	c.res.RelayRounds++
	c.res.RelayBits += B
	c.interfered(mr, s)
	if B < bits*0.999 && mb.Empty() {
		mr.Starved = true
	}
	// A relay can kill the via hub mid-round; its own commit loop (or
	// the next round's census) observes the death, but the round of
	// death is recorded here so it is attributed correctly.
	if vb.Empty() {
		c.died(vres)
	}
}
