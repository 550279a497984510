// Package hub extends Braidio's pairwise carrier offload to a star
// network: one energy-rich hub (a phone or laptop) serving several
// wearables, each over its own braided pair, with the hub's single
// battery shared across all of them.
//
// The paper evaluates pairs; the introduction's motivation — "a
// significant fraction of the energy cost of communication [can] be
// offloaded to the device that has more energy i.e. the mobile phone" —
// is inherently multi-device. The hub schedules its members round-robin
// (one radio, one link at a time), re-solving each member's offload
// allocation against the hub's *remaining* budget so that early traffic
// from one wearable is reflected in the braiding chosen for the others.
//
// Members are fault-isolated: a member whose link dies (it walked out of
// range, its carrier dropped, its QoS floor became infeasible) is
// quarantined after a bounded number of consecutive failed rounds —
// its MemberResult carries a typed error wrapping ErrMemberQuarantined
// and the cause — while the round-robin keeps serving healthy members.
// Pre-quarantine, one degraded member could sink the whole run.
//
// # Two-phase rounds
//
// Run is a deterministic parallel engine. Each round is two phases:
//
//  1. Plan: every eligible member solves and executes its braid against
//     an immutable snapshot of the hub's round-start energy and a copy
//     of its own battery, concurrently over the shared worker pool
//     (internal/par). Plans write only per-member scratch.
//  2. Commit: in registration order, each plan's drains are applied to
//     the real batteries, strikes/quarantines are charged, and totals
//     are accumulated. If earlier commits drained the hub below what a
//     later plan assumed, that member is re-solved against the true
//     remaining energies (counted in Result.Replans).
//
// Because plans touch only state owned by their member index and the
// commit order is fixed, the Result is bit-identical at any Workers
// count — the same discipline as modem.MonteCarloBERParallel. The one
// obligation on callers: a Member's Walk and Faults state must be
// private to that member (they are advanced once per round from
// whatever goroutine plans the member; sharing one stateful injector
// across members would race).
package hub

import (
	"errors"
	"fmt"
	"sync"

	"braidio/internal/core"
	"braidio/internal/energy"
	"braidio/internal/faults"
	"braidio/internal/linkcache"
	"braidio/internal/obs"
	"braidio/internal/par"
	"braidio/internal/phy"
	"braidio/internal/sim"
	"braidio/internal/units"
)

// Member is one wearable served by the hub.
type Member struct {
	// Device identifies the wearable.
	Device energy.Device
	// Distance from the hub.
	Distance units.Meter
	// Walk, when non-nil, drives the member's distance from wall-clock
	// time (evaluated at each round's start), overriding Distance — a
	// member that wanders out of range mid-run fails its rounds and is
	// eventually quarantined.
	Walk sim.Walk
	// Faults, when non-nil, injects link faults into the member's
	// rounds: a carrier dropout window makes the round an outage, and
	// brownout drain scales are charged on top of the braid's nominal
	// energy (TX side = the member, RX side = the hub).
	Faults faults.Injector
	// Load is the member's offered traffic in payload bits per second
	// of wall-clock time.
	Load units.BitRate
	// MinRate, when positive, applies the QoS-constrained offload
	// (core.OptimizeQoS): the member's braid must sustain at least this
	// delivered throughput while its slot is active — a live stream's
	// floor.
	MinRate units.BitRate
}

// Hub is a star network under construction. Create with New, add
// members, then Run.
type Hub struct {
	// QuarantineStrikes is how many consecutive failed rounds (link
	// error, outage, infeasible QoS floor) a member survives before it
	// is quarantined for the rest of the run. Zero means the default of
	// three; a successful round resets the member's count.
	QuarantineStrikes int
	// Workers bounds the plan phase's concurrency: 0 selects
	// GOMAXPROCS, 1 plans sequentially on the calling goroutine. The
	// Result is bit-identical at any value — Workers trades only
	// wall-clock.
	Workers int
	// AllocationTolerance is propagated to every member braid (see
	// core.Braid.AllocationTolerance): the relative battery-ratio drift
	// tolerated before a member's allocation is re-solved. Zero keeps
	// the exact bit-identical memo; positive values trade precision for
	// fewer solver runs — the knob the serve daemon and large fleets
	// turn to keep epoch re-plans proportional to drift, not membership.
	AllocationTolerance float64
	// Obs, when non-nil, receives round/replan/quarantine counters and
	// is propagated to every member braid. Nil falls back to the process
	// default recorder (obs.Active). Canonical metric snapshots are
	// bit-identical at any Workers count; attaching a recorder never
	// changes a Result.
	Obs *obs.Recorder

	device  energy.Device
	model   *phy.Model
	view    *linkcache.View
	members []Member
}

// defaultQuarantineStrikes is the strike budget when the caller leaves
// QuarantineStrikes at zero.
const defaultQuarantineStrikes = 3

// New creates a hub on the given device using the calibrated model when
// m is nil.
func New(device energy.Device, m *phy.Model) *Hub {
	if m == nil {
		m = phy.NewModel()
	}
	return &Hub{device: device, model: m, view: linkcache.NewView(m)}
}

// Add registers a member. It returns an error if no link mode reaches
// the member or the load is not positive.
func (h *Hub) Add(m Member) error {
	if m.Load <= 0 {
		return fmt.Errorf("hub: member %s has non-positive load", m.Device.Name)
	}
	if len(h.view.Characterize(m.Distance)) == 0 {
		return fmt.Errorf("hub: member %s at %v m is out of range", m.Device.Name, float64(m.Distance))
	}
	h.members = append(h.members, m)
	return nil
}

// Members returns the registered members.
func (h *Hub) Members() []Member { return h.members }

// ErrMemberQuarantined reports that a member was removed from the
// round-robin after exhausting its strike budget. MemberResult.Err wraps
// it together with the final failure's cause, so both
// errors.Is(err, ErrMemberQuarantined) and errors.Is against the cause
// (e.g. core.ErrOutOfRange) hold.
var ErrMemberQuarantined = errors.New("hub: member quarantined")

// MemberResult is one member's share of a hub run.
type MemberResult struct {
	Member Member
	// Bits delivered from the member to the hub.
	Bits float64
	// MemberDrain and HubDrain are the energies each side spent on this
	// member's traffic.
	MemberDrain, HubDrain units.Joule
	// ModeBits attributes the member's bits to modes, indexed by
	// phy.Mode.
	ModeBits [phy.NumModes]float64
	// Starved reports that the member's battery died before the horizon.
	Starved bool
	// Quarantined reports the member was removed from the round-robin;
	// Err then wraps ErrMemberQuarantined and the final cause, and
	// QuarantinedRound records when.
	Quarantined      bool
	QuarantinedRound int
	// Err is the member's terminal failure, nil for a healthy member.
	Err error
	// OutageRounds counts rounds lost to injected carrier dropouts.
	OutageRounds int
}

// Result is the outcome of a hub run.
type Result struct {
	// Horizon is the wall-clock span simulated.
	Horizon units.Second
	// HubDrain is the hub's total radio energy.
	HubDrain units.Joule
	// HubExhausted reports the hub battery died before the horizon.
	HubExhausted bool
	// Members holds per-member outcomes in registration order.
	Members []MemberResult
	// Quarantines counts members removed from the round-robin.
	Quarantines int
	// OutageRounds totals rounds lost to injected outages across
	// members.
	OutageRounds int
	// LPSolves and AllocReuses aggregate the braid engine's offload
	// solver counters across every member run: how many allocations were
	// actually solved versus served from the ratio-keyed memo.
	LPSolves, AllocReuses int
	// HubDiedRound is the round during which the hub battery hit empty
	// (checked after every member commit), or -1 if it survived the
	// horizon. Members later in the commit order than the fatal drain
	// are not served for the rest of the run.
	HubDiedRound int
	// Replans counts commit-time re-solves: rounds where earlier
	// commits drained the hub below what a member's snapshot plan
	// assumed, so the member was re-run against the true remaining
	// energies. Nonzero only in the hub's dying rounds.
	Replans int
}

// TotalBits sums delivered bits across members.
func (r *Result) TotalBits() float64 {
	total := 0.0
	for _, m := range r.Members {
		total += m.Bits
	}
	return total
}

// ErrNoMembers reports an empty hub.
var ErrNoMembers = errors.New("hub: no members")

// strikeLimit returns the configured quarantine strike budget.
func (h *Hub) strikeLimit() int {
	if h.QuarantineStrikes > 0 {
		return h.QuarantineStrikes
	}
	return defaultQuarantineStrikes
}

// memberScratch is one member's slot in the pooled run scratch: its
// persistent braid (re-pointed at the round's distance and bit budget),
// the braid's allocation scratch and reusable result, the plan-phase
// battery copies, and the plan verdict the commit phase consumes.
type memberScratch struct {
	braid  core.Braid
	scr    core.RunScratch
	plan   core.Result
	planB1 energy.Battery // copy of the member battery
	planB2 energy.Battery // copy of the hub's round-start snapshot

	err              error
	outage           bool
	skipQuarantined  bool
	skipStarved      bool
	active           bool
	dist             units.Meter
	txScale, rxScale float64
}

// runScratch is the per-Run working set recycled through a sync.Pool so
// that repeated runs — a fleet shard simulating thousands of hub
// rounds — stop churning braids, schedule buffers, and result slots.
// dists, idx and links are the round's batched characterization: the
// eligible members' distances, their member indices, and the canonical
// link slices one striped pass fills, instead of M per-member cache
// lookups.
type runScratch struct {
	members []memberScratch
	strikes []int
	dists   []units.Meter
	idx     []int
	links   [][]phy.ModeLink
}

// scratchPool recycles runScratch values across Run calls.
var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// acquireScratch returns a scratch sized for n members with every slot
// reset: stale allocation memos are invalidated so a run's results can
// never depend on what a recycled scratch last solved.
func acquireScratch(n int) *runScratch {
	s := scratchPool.Get().(*runScratch)
	if cap(s.members) < n {
		s.members = make([]memberScratch, n)
		s.strikes = make([]int, n)
		s.dists = make([]units.Meter, n)
		s.idx = make([]int, n)
		s.links = make([][]phy.ModeLink, n)
	}
	s.members = s.members[:n]
	s.strikes = s.strikes[:n]
	s.dists, s.idx, s.links = s.dists[:n], s.idx[:n], s.links[:n]
	for i := range s.members {
		ms := &s.members[i]
		ms.scr.Reset()
		ms.err = nil
		s.strikes[i] = 0
	}
	return s
}

// Run simulates the star for a wall-clock horizon, delivering each
// member's offered load in rounds. Each round plans every member's
// braid concurrently against the hub's round-start energy snapshot,
// then commits the drains in registration order (see the package
// comment for the two-phase determinism contract). Run stops early —
// mid-round, after the fatal commit — if the hub dies, recording the
// round in Result.HubDiedRound.
//
// Member failures do not abort the run: a round that errors (the member
// walked out of range, its QoS floor is infeasible, its carrier dropped)
// counts a strike, and a member that exhausts its strike budget is
// quarantined — recorded in its MemberResult — while the remaining
// members keep being served.
func (h *Hub) Run(horizon units.Second, rounds int) (*Result, error) {
	if len(h.members) == 0 {
		return nil, ErrNoMembers
	}
	if horizon <= 0 || rounds < 1 {
		return nil, fmt.Errorf("hub: invalid horizon %v / rounds %d", float64(horizon), rounds)
	}
	hubBatt := h.device.NewBattery()
	memberBatts := make([]*energy.Battery, len(h.members))
	for i, m := range h.members {
		memberBatts[i] = m.Device.NewBattery()
	}
	res := &Result{
		Horizon:      horizon,
		Members:      make([]MemberResult, len(h.members)),
		HubDiedRound: -1,
	}
	for i, m := range h.members {
		res.Members[i] = MemberResult{Member: m}
	}
	scr := acquireScratch(len(h.members))
	defer scratchPool.Put(scr)
	rec := obs.Active(h.Obs)
	for i, m := range h.members {
		ms := &scr.members[i]
		ms.braid = core.DefaultBraid(h.model, m.Distance)
		ms.braid.Obs = h.Obs
		ms.braid.AllocationTolerance = h.AllocationTolerance
		if m.MinRate > 0 {
			minRate := m.MinRate
			ms.braid.Optimizer = func(links []phy.ModeLink, e1, e2 units.Joule) (*core.Allocation, error) {
				return core.OptimizeQoS(links, e1, e2, minRate)
			}
		}
	}

	slice := horizon / units.Second(rounds)
	// The plan closure reads the round state through these variables so
	// par.For gets one closure for the whole run, not one per round.
	var (
		now     units.Second
		hubSnap energy.Battery
	)
	plan := func(i int) { h.planMember(i, scr, memberBatts, &hubSnap, slice) }

	for round := 0; round < rounds && !hubBatt.Empty(); round++ {
		now = units.Second(round) * slice
		hubSnap = *hubBatt
		if rec != nil {
			rec.HubRounds.Add(1)
			rec.BatchRounds.Add(1)
		}

		// Phase 0: advance each member's walk and fault state
		// sequentially (each injector is advanced exactly once per
		// round, same as the old in-plan advancement), decide round
		// eligibility, and collect the eligible distances.
		nb := 0
		for i := range h.members {
			ms := &scr.members[i]
			mr := &res.Members[i]
			m := &h.members[i]
			ms.err = nil
			ms.outage = false
			ms.active = false
			ms.braid.Links = nil
			ms.skipQuarantined = mr.Quarantined
			ms.skipStarved = !mr.Quarantined && memberBatts[i].Empty()
			ms.txScale, ms.rxScale = 1, 1
			if ms.skipQuarantined || ms.skipStarved {
				continue
			}
			d := m.Distance
			if m.Walk != nil {
				d = m.Walk.DistanceAt(now)
			}
			if m.Faults != nil {
				var env faults.Env
				env.Reset(now, phy.ModeActive, units.Rate1M, 0)
				m.Faults.Impair(&env)
				if env.CarrierLost {
					ms.outage = true
					continue
				}
				ms.txScale, ms.rxScale = env.TXDrain, env.RXDrain
			}
			ms.dist = d
			ms.active = true
			scr.dists[nb] = d
			scr.idx[nb] = i
			nb++
		}
		// Batched link characterization: one striped pass fills every
		// eligible member's canonical link slice (the same shared
		// slices linkcache.Characterize returns, so the braids'
		// allocation memos keep their slice-identity semantics).
		h.view.CharacterizeBatch(h.Workers, scr.dists[:nb], scr.links[:nb])
		for r := 0; r < nb; r++ {
			scr.members[scr.idx[r]].braid.Links = scr.links[r]
		}

		// Phase 1: plan all members against the immutable snapshot.
		par.For(h.Workers, len(h.members), plan)

		// Phase 2: commit in registration order.
		for i := range h.members {
			ms := &scr.members[i]
			mr := &res.Members[i]
			m := &h.members[i]
			if ms.skipQuarantined {
				continue
			}
			if ms.skipStarved {
				mr.Starved = true
				continue
			}
			if ms.outage {
				mr.OutageRounds++
				res.OutageRounds++
				if rec != nil {
					rec.OutageRounds.Add(1)
					rec.Trace(obs.Event{Kind: obs.EvOutage, Round: round, Member: i, Time: float64(now)})
				}
				h.strikeMember(mr, &scr.strikes[i], round, i, rec, now,
					fmt.Errorf("hub: member %s: carrier lost at t=%vs", m.Device.Name, float64(now)), res)
				continue
			}
			if ms.err == nil {
				run := &ms.plan
				hubNeed := run.Drain2
				if ms.rxScale > 1 {
					hubNeed += run.Drain2 * units.Joule(ms.rxScale-1)
				}
				if hubBatt.Remaining() < hubNeed {
					// Earlier commits this round drained the hub below
					// what the snapshot promised: re-solve against the
					// true remaining energies. RunInto drains the real
					// batteries directly in this path.
					res.Replans++
					if rec != nil {
						rec.Replans.Add(1)
						rec.Trace(obs.Event{Kind: obs.EvReplan, Round: round, Member: i, Time: float64(now)})
					}
					ms.err = ms.braid.RunInto(&ms.plan, &ms.scr, memberBatts[i], hubBatt)
				} else {
					memberBatts[i].Drain(run.Drain1)
					hubBatt.Drain(run.Drain2)
				}
			}
			if ms.err != nil {
				h.strikeMember(mr, &scr.strikes[i], round, i, rec, now,
					fmt.Errorf("hub: member %s: %w", m.Device.Name, ms.err), res)
				continue
			}
			run := &ms.plan
			scr.strikes[i] = 0
			if rec != nil {
				rec.MemberRounds.Add(1)
			}
			mr.Bits += run.Bits
			res.LPSolves += run.LPSolves
			res.AllocReuses += run.AllocReuses
			mr.MemberDrain += run.Drain1
			mr.HubDrain += run.Drain2
			res.HubDrain += run.Drain2
			if ms.txScale > 1 {
				extra := run.Drain1 * units.Joule(ms.txScale-1)
				memberBatts[i].Drain(extra)
				mr.MemberDrain += extra
			}
			if ms.rxScale > 1 {
				extra := run.Drain2 * units.Joule(ms.rxScale-1)
				hubBatt.Drain(extra)
				mr.HubDrain += extra
				res.HubDrain += extra
			}
			for mode, b := range run.ModeBits {
				mr.ModeBits[mode] += b
			}
			bits := float64(m.Load) * float64(slice)
			if run.Bits < bits*0.999 && memberBatts[i].Empty() {
				mr.Starved = true
			}
			// Hub-death accounting: checked after *every* commit, not
			// only on under-delivery — a dead hub must not keep serving
			// the rest of the round.
			if hubBatt.Empty() {
				if res.HubDiedRound < 0 {
					res.HubDiedRound = round
					if rec != nil {
						rec.HubDeaths.Add(1)
						rec.Trace(obs.Event{Kind: obs.EvHubDeath, Round: round, Member: -1, Time: float64(now)})
					}
				}
				break
			}
		}
	}
	res.HubExhausted = hubBatt.Empty()
	return res, nil
}

// planMember runs one member's plan phase: solve and execute its braid
// — links preset by the round's batched characterization — against a
// copy of its battery and the hub's round-start snapshot. Eligibility,
// walks, and fault state were already decided in the sequential
// phase 0, so this writes only to the member's scratch slot (and reads
// only member-owned state), which is what makes the phase safe and
// deterministic under par.For at any worker count.
func (h *Hub) planMember(i int, scr *runScratch, memberBatts []*energy.Battery,
	hubSnap *energy.Battery, slice units.Second) {
	ms := &scr.members[i]
	m := &h.members[i]
	if !ms.active {
		return
	}
	ms.braid.Distance = ms.dist
	ms.braid.MaxBits = float64(m.Load) * float64(slice)
	ms.planB1 = *memberBatts[i]
	ms.planB2 = *hubSnap
	ms.err = ms.braid.RunInto(&ms.plan, &ms.scr, &ms.planB1, &ms.planB2)
}

// strikeMember records one failed round for a member and quarantines it
// once the strike budget is exhausted, wrapping ErrMemberQuarantined
// around the final cause. member and now feed the quarantine trace
// event; rec may be nil.
func (h *Hub) strikeMember(mr *MemberResult, strikes *int, round, member int, rec *obs.Recorder,
	now units.Second, cause error, res *Result) {
	*strikes++
	if *strikes < h.strikeLimit() {
		return
	}
	mr.Quarantined = true
	mr.QuarantinedRound = round
	mr.Err = fmt.Errorf("%w after %d consecutive failed rounds: %w", ErrMemberQuarantined, *strikes, cause)
	res.Quarantines++
	if rec != nil {
		rec.Quarantines.Add(1)
		rec.Trace(obs.Event{Kind: obs.EvQuarantine, Round: round, Member: member, Time: float64(now)})
	}
}

// HubShare returns the fraction of the joint radio bill the hub paid
// for a member — the offload the star achieves.
func (r *MemberResult) HubShare() float64 {
	total := float64(r.MemberDrain + r.HubDrain)
	if total == 0 {
		return 0
	}
	return float64(r.HubDrain) / total
}

// Lifetime estimates how many horizons the member's battery funds at
// the observed drain rate (+Inf for a zero drain).
func (r *MemberResult) Lifetime() float64 {
	if r.MemberDrain <= 0 {
		return 0
	}
	return float64(r.Member.Device.Capacity.Joules()) / float64(r.MemberDrain)
}
