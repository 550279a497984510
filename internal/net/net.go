// Package net is Braidio's round engine: one or more energy-rich hubs,
// each serving its own braided members over one shared physical
// channel. Braidio re-solves each link's offload split against the
// batteries as they drain (§4.2, §6.3); Network.Run is the one place
// that loop runs. The isolated star of internal/hub is a one-hub
// Network with the three couplings below disabled: hub.Run is defined
// as that run, so the two cannot disagree.
//
// Three couplings between stars are modeled and scheduled:
//
//   - Shared carriers. A backscatter tag does not care whose carrier it
//     reflects. When a neighboring hub is already transmitting, a
//     member's braid can ride that hub's carrier (phy.SharedCarrierLink):
//     the home hub listens with its passive envelope chain instead of
//     funding the 129 mW monostatic reader, moving the carrier bill to
//     the donor who was paying it anyway. The Eq. (1) solve then sees a
//     hub-side backscatter cost three orders of magnitude cheaper.
//
//   - Interference. Every concurrently emitting hub raises the noise
//     floor at every other hub's receiver. The scheduler aggregates the
//     co-channel carrier power arriving at each receiver and threads it
//     through the link characterization as phy.Model.Interference, so
//     rates, BERs, and per-bit costs degrade exactly as rf.SINR says
//     they should. With no interferers the path is gated, not
//     recomputed: results are bit-identical to the isolated model.
//
//   - Relays. A member out of its home hub's range (or facing a brutal
//     direct link) can braid to a nearer foreign hub, which forwards
//     over the hub-to-hub trunk: two chained core.Optimize solves, with
//     per-hop energy billed to member, via, and home respectively. The
//     planner picks relay over direct only when it strictly lowers the
//     member's energy per bit — or when direct is infeasible.
//
// # Member behaviours
//
// Beyond a position and a load, a member may carry three behaviours:
//
//   - Walk sets the member's home distance at each round's start
//     (clamped to MinDistance), overriding the Pos-derived one. Only the
//     home distance moves: relay hops and carrier-donor geometry stay
//     Pos-based.
//   - Faults injects link faults once per round. A carrier dropout makes
//     the round an outage: the member neither plans nor makes its hub
//     emit, the round counts in MemberResult.OutageRounds, and it is a
//     strike. Brownout drain scales are charged on top of the braid's
//     energy, the TX side on the member and the RX side on the home hub,
//     and the commit's shortfall test includes the RX scale.
//   - MinRate makes the member's braid solve core.OptimizeQoS: it must
//     sustain that delivered throughput while its slot is active.
//
// A member with Faults or MinRate is never offered a relay: a relay
// round is two plain Eq. (1) solves that neither honour a rate floor
// nor bill a brownout. Such a member may still ride a shared carrier or
// see interference, which change its link set, not how its braid is
// solved or billed.
//
// # Two-phase rounds
//
// Run is a deterministic parallel engine. Each round is a sequential
// prologue and two phases:
//
//  0. Prologue: hub liveness and energy snapshots, walks and faults,
//     member eligibility, the emission census, donor selection,
//     interference, and link characterization.
//  1. Plan: every eligible member solves and executes its braid against
//     an immutable snapshot of its home hub's round-start energy and a
//     copy of its own battery, concurrently over the shared worker pool
//     (internal/par). Plans write only slot-owned scratch.
//  2. Commit: in topology order, each plan's drains are applied to the
//     real batteries, strikes and quarantines are charged, and totals
//     are accumulated. If earlier commits drained a hub below what a
//     later plan assumed, that member is re-solved against the true
//     remaining energies (counted in Replans). A hub that dies stops
//     serving for the rest of the round.
//
// Because plans touch only state owned by their slot index and the
// commit order is fixed, the Result is bit-identical at any Workers
// count. The one obligation on callers: a Member's Walk and Faults
// state must be private to that member — both are advanced once per
// round, so an injector shared across members would couple them.
//
// Plan appraises one round without draining anything: the testable,
// fuzzable entry point.
package net

import (
	"errors"
	"fmt"
	"math"

	"braidio/internal/core"
	"braidio/internal/energy"
	"braidio/internal/faults"
	"braidio/internal/field"
	"braidio/internal/obs"
	"braidio/internal/phy"
	"braidio/internal/sim"
	"braidio/internal/units"
)

// Member is one wearable anchored to a home hub.
type Member struct {
	// Device identifies the wearable.
	Device energy.Device
	// Pos is the member's position in the shared plane.
	Pos field.Vec2
	// Walk, when non-nil, sets the member's home distance at each
	// round's start, overriding the one Pos implies (see the package
	// comment for what stays Pos-based).
	Walk sim.Walk
	// Faults, when non-nil, injects link faults into the member's
	// rounds: a carrier dropout window makes the round an outage, and
	// brownout drain scales are charged on top of the braid's nominal
	// energy (TX side = the member, RX side = the home hub).
	Faults faults.Injector
	// Load is the member's offered traffic in payload bits per second of
	// wall-clock time.
	Load units.BitRate
	// MinRate, when positive, applies the QoS-constrained offload
	// (core.OptimizeQoS): the member's braid must sustain at least this
	// delivered throughput while its slot is active.
	MinRate units.BitRate
}

// Hub is one energy-rich device serving a set of members.
type Hub struct {
	// Device identifies the hub.
	Device energy.Device
	// Pos is the hub's position in the shared plane.
	Pos field.Vec2
	// Members are the wearables homed on this hub.
	Members []Member
}

// Topology is the static geometry of a network: hubs, their members,
// and everyone's position. All distances the scheduler uses derive from
// the positions; there are no free distance parameters to disagree with
// the geometry.
type Topology struct {
	Hubs []Hub // the hubs, each with its members
}

// Typed validation errors. Plan and New reject malformed topologies
// with these (wrapped with context) and never panic — the fuzz harness
// pins that contract.
var (
	// ErrNoHubs reports an empty topology.
	ErrNoHubs = errors.New("net: topology has no hubs")
	// ErrEmptyHub reports a hub with no members.
	ErrEmptyHub = errors.New("net: hub has no members")
	// ErrBadPosition reports a NaN or infinite coordinate.
	ErrBadPosition = errors.New("net: non-finite position")
	// ErrBadLoad reports a non-positive or non-finite member load.
	ErrBadLoad = errors.New("net: non-positive load")
	// ErrBadDevice reports a device whose battery capacity is not a
	// positive finite number (energy.NewBattery would panic).
	ErrBadDevice = errors.New("net: non-positive device capacity")
	// ErrCoincident reports two nodes (hub or member) at the exact same
	// position. Near-coincidence is fine — derived distances are clamped
	// to MinDistance — but exact duplicates are almost always a topology
	// generation bug, and the error is cheap to act on.
	ErrCoincident = errors.New("net: coincident node positions")
	// ErrBadRun reports an invalid horizon, slice, or round count.
	ErrBadRun = errors.New("net: invalid horizon or rounds")
)

// ErrMemberQuarantined reports that a member was removed from
// scheduling after exhausting its strike budget. MemberResult.Err wraps
// it together with the final failure's cause.
var ErrMemberQuarantined = errors.New("net: member quarantined")

// MinDistance is the near-field clamp applied to every derived
// distance: the free-space model (and its d⁻² interference aggregate)
// diverges as d→0, and rf.FreeSpacePathLoss rejects d ≤ 0 outright.
// 1 cm matches field.Scene's near-field clamp.
const MinDistance units.Meter = 0.01

// DefaultCarrierShareRange bounds the donor search: only emitting hubs
// within this distance of the member are considered as carrier donors.
// The bistatic link budget (phy.SharedCarrierLink) is the real gate —
// this only caps the search radius.
const DefaultCarrierShareRange units.Meter = 5

// defaultQuarantineStrikes is the strike budget when the caller leaves
// Config.QuarantineStrikes at zero.
const defaultQuarantineStrikes = 3

// Config tunes the network scheduler. The zero value (plus a nil Model)
// is a working default: calibrated PHY, GOMAXPROCS workers, all three
// network couplings enabled.
type Config struct {
	// Model is the calibrated PHY; nil selects phy.NewModel(). A nonzero
	// Model.Interference acts as an ambient noise-raising floor that the
	// scheduler's per-round aggregate adds on top of.
	Model *phy.Model
	// Workers bounds plan-phase concurrency: 0 selects GOMAXPROCS, 1
	// plans sequentially. Results are bit-identical at any value.
	Workers int
	// QuarantineStrikes is the consecutive-failure budget before a
	// member is quarantined; zero means the default of three.
	QuarantineStrikes int
	// AllocationTolerance is propagated to every member braid (see
	// core.Braid.AllocationTolerance).
	AllocationTolerance float64
	// CarrierShareRange caps the donor search radius; zero or negative
	// selects DefaultCarrierShareRange.
	CarrierShareRange units.Meter
	// DisableInterference ignores cross-hub interference: every link is
	// characterized against the isolated-pair model.
	DisableInterference bool
	// DisableCarrierShare never rides a neighbor's carrier.
	DisableCarrierShare bool
	// DisableRelay never considers 2-hop forwarding. With all three
	// Disable flags set, hubs do not interact: a Run is one isolated
	// star per hub, which is how hub.Run is defined.
	DisableRelay bool
	// Obs, when non-nil, receives network counters and is propagated to
	// every member braid. Nil falls back to the process default recorder.
	Obs *obs.Recorder
}

// Validate checks a topology against the typed error set. It is called
// by New (and hence Plan); exported so generators can pre-check.
func Validate(t *Topology) error {
	if t == nil || len(t.Hubs) == 0 {
		return ErrNoHubs
	}
	// Nodes are named only on the error path: member -1 is the hub.
	type node struct{ hub, member int }
	name := func(nd node) string {
		if nd.member < 0 {
			return fmt.Sprintf("hub %d", nd.hub)
		}
		return fmt.Sprintf("member %d/%d", nd.hub, nd.member)
	}
	checkPos := func(p field.Vec2, nd node) error {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("%w: %s at (%v, %v)", ErrBadPosition, name(nd), p.X, p.Y)
		}
		return nil
	}
	checkDev := func(d energy.Device, what string) error {
		c := float64(d.Capacity)
		if !(c > 0) || math.IsInf(c, 1) {
			return fmt.Errorf("%w: %s %q capacity %v Wh", ErrBadDevice, what, d.Name, c)
		}
		return nil
	}
	nodes := len(t.Hubs)
	for h := range t.Hubs {
		nodes += len(t.Hubs[h].Members)
	}
	seen := make(map[field.Vec2]node, nodes)
	for h := range t.Hubs {
		hub := &t.Hubs[h]
		if len(hub.Members) == 0 {
			return fmt.Errorf("%w: hub %d (%s)", ErrEmptyHub, h, hub.Device.Name)
		}
		hn := node{h, -1}
		if err := checkPos(hub.Pos, hn); err != nil {
			return err
		}
		if err := checkDev(hub.Device, "hub"); err != nil {
			return err
		}
		if prev, dup := seen[hub.Pos]; dup {
			return fmt.Errorf("%w: hub %d and %s", ErrCoincident, h, name(prev))
		}
		seen[hub.Pos] = hn
		for j := range hub.Members {
			m := &hub.Members[j]
			mn := node{h, j}
			if err := checkPos(m.Pos, mn); err != nil {
				return err
			}
			if err := checkDev(m.Device, "member"); err != nil {
				return err
			}
			l := float64(m.Load)
			if !(l > 0) || math.IsInf(l, 1) {
				return fmt.Errorf("%w: %s load %v", ErrBadLoad, name(mn), l)
			}
			if prev, dup := seen[m.Pos]; dup {
				return fmt.Errorf("%w: %s and %s", ErrCoincident, name(mn), name(prev))
			}
			seen[m.Pos] = mn
		}
	}
	return nil
}

// clampDist applies the near-field floor to a derived distance.
func clampDist(d float64) units.Meter {
	if !(d > float64(MinDistance)) {
		return MinDistance
	}
	return units.Meter(d)
}

// hubState is one hub's per-round sequential state.
type hubState struct {
	slotLo, slotHi int
	alive          bool
	emitting       bool
	snap           energy.Battery
}

// relayPlan is a slot's appraised 2-hop forwarding decision: the via
// hub, the planned bits, and the three per-bit bills the commit phase
// charges — member (hop-1 TX), via (hop-1 RX + hop-2 TX, one battery),
// home (hop-2 RX). The per-hop costs come verbatim from the two chained
// core.Optimize solves, so relay accounting is exactly the sum of two
// single-hop solves.
type relayPlan struct {
	ok                            bool
	via                           int
	bits                          float64
	txPerBit, viaPerBit, rxPerBit float64
	modeShare                     [phy.NumModes]float64
}

// slot is one (hub, member) pair's scratch: its persistent braid,
// plan-phase battery copies, its home link set with the stamp it was
// built from, relay link buffers, and the round verdict the commit
// consumes. Everything here is owned by the slot's index — the plan
// phase may write it from any worker without synchronization.
type slot struct {
	hub, member int
	homeDist    units.Meter   // this round's home distance (Walk or Pos)
	toHub       []units.Meter // clamped Pos distance to every hub

	braid  core.Braid
	scr    core.RunScratch
	plan   core.Result
	planB1 energy.Battery
	planB2 energy.Battery
	alloc  core.Allocation // direct / relay appraisal target
	alloc2 core.Allocation // relay hop-2 appraisal target

	// home is the slot's home link set, rebuilt in phase 0 only when the
	// values it is built from move away from stamp.
	home      []phy.ModeLink
	stamp     linkStamp
	relayBuf  []phy.ModeLink // hop-1 characterization scratch
	relayBuf2 []phy.ModeLink // hop-2 characterization scratch

	// Round verdict, reset in phase 0.
	err                          error
	active                       bool
	skipQuarantined, skipStarved bool
	outage                       bool
	txScale, rxScale             float64 // brownout drain scales
	private                      bool
	mw                           float64
	donor                        int
	shared                       phy.ModeLink
	sharedOK                     bool
	op                           Op
	directTX                     float64
	directBits                   float64
	relay                        relayPlan
}

// linkStamp is what a slot's home link set is a function of: the home
// distance, the co-channel interference at the home receiver, and the
// carrier donor with its shared link (donor -1 and a zero link when the
// slot makes its own carrier).
type linkStamp struct {
	built  bool
	dist   units.Meter
	mw     float64
	donor  int
	shared phy.ModeLink
}

// Network is a constructed scheduler over a validated topology. Create
// with New, then Run (or PlanRound). A Network owns its scratch and is
// not safe for concurrent use; the topology must not be mutated while
// the Network is alive.
type Network struct {
	cfg     Config
	model   *phy.Model
	topo    *Topology
	hubs    []hubState
	slots   []slot
	strikes []int
	// full holds every hub's then every slot's battery at full charge;
	// batts is the working copy a Run or PlanRound drains, reached
	// through hubBatts and memberBatts.
	full, batts           []energy.Battery
	hubBatts, memberBatts []*energy.Battery
	// hubDist[a][b] is the clamped hub-to-hub trunk distance; intMW[a][b]
	// is the co-channel carrier power (linear mW, fade-derated) hub a's
	// emission lands at hub b's receiver — precomputed once, geometry is
	// static.
	hubDist [][]units.Meter
	intMW   [][]float64

	strikeLimit  int
	carrierRange units.Meter
}

// New validates the topology and builds a scheduler over it.
func New(t *Topology, cfg Config) (*Network, error) {
	if err := Validate(t); err != nil {
		return nil, err
	}
	if cfg.Model == nil {
		cfg.Model = phy.NewModel()
	}
	if cfg.Workers < 0 {
		cfg.Workers = 0
	}
	n := &Network{
		cfg:          cfg,
		model:        cfg.Model,
		topo:         t,
		strikeLimit:  cfg.QuarantineStrikes,
		carrierRange: cfg.CarrierShareRange,
	}
	if n.strikeLimit <= 0 {
		n.strikeLimit = defaultQuarantineStrikes
	}
	if n.carrierRange <= 0 {
		n.carrierRange = DefaultCarrierShareRange
	}
	nh := len(t.Hubs)
	slots := 0
	for h := range t.Hubs {
		slots += len(t.Hubs[h].Members)
	}
	n.hubs = make([]hubState, nh)
	n.slots = make([]slot, 0, slots)
	toHub := make([]units.Meter, slots*nh)
	home := make([]phy.ModeLink, slots*phy.NumModes)
	n.hubDist = make([][]units.Meter, nh)
	n.intMW = make([][]float64, nh)
	for a := 0; a < nh; a++ {
		n.hubDist[a] = make([]units.Meter, nh)
		n.intMW[a] = make([]float64, nh)
		for b := 0; b < nh; b++ {
			if a == b {
				continue
			}
			d := clampDist(t.Hubs[a].Pos.Dist(t.Hubs[b].Pos))
			n.hubDist[a][b] = d
			rx := n.model.OneWay.Received(phy.CarrierPower, d).Sub(n.model.FadeMargin)
			n.intMW[a][b] = rx.Watts().Milliwatts()
		}
	}
	lo := 0
	for h := range t.Hubs {
		hub := &t.Hubs[h]
		n.hubs[h].slotLo = lo
		for j := range hub.Members {
			m := &hub.Members[j]
			s := slot{
				hub:      h,
				member:   j,
				homeDist: clampDist(m.Pos.Dist(hub.Pos)),
				toHub:    toHub[lo*nh : (lo+1)*nh : (lo+1)*nh],
				home:     home[lo*phy.NumModes : lo*phy.NumModes : (lo+1)*phy.NumModes],
				donor:    -1,
			}
			for v := 0; v < nh; v++ {
				s.toHub[v] = clampDist(m.Pos.Dist(t.Hubs[v].Pos))
			}
			s.braid = core.DefaultBraid(n.model, s.homeDist)
			s.braid.Obs = cfg.Obs
			s.braid.AllocationTolerance = cfg.AllocationTolerance
			if m.MinRate > 0 {
				minRate := m.MinRate
				s.braid.Optimizer = func(links []phy.ModeLink, e1, e2 units.Joule) (*core.Allocation, error) {
					return core.OptimizeQoS(links, e1, e2, minRate)
				}
			}
			n.slots = append(n.slots, s)
			lo++
		}
		n.hubs[h].slotHi = lo
	}
	n.strikes = make([]int, len(n.slots))
	n.full = make([]energy.Battery, nh+len(n.slots))
	n.batts = make([]energy.Battery, len(n.full))
	ptrs := make([]*energy.Battery, len(n.full))
	for i := range ptrs {
		ptrs[i] = &n.batts[i]
	}
	n.hubBatts, n.memberBatts = ptrs[:nh:nh], ptrs[nh:]
	for h := range t.Hubs {
		n.full[h] = *t.Hubs[h].Device.NewBattery()
	}
	for i := range n.slots {
		s := &n.slots[i]
		n.full[nh+i] = *t.Hubs[s.hub].Members[s.member].Device.NewBattery()
	}
	return n, nil
}

// Slots returns the number of (hub, member) pairs the scheduler serves.
func (n *Network) Slots() int { return len(n.slots) }

// interferenceAt aggregates the co-channel carrier power (linear mW)
// arriving at hub rx's receiver from every emitting hub, excluding rx
// itself and up to one additional hub (the carrier donor whose emission
// is the wanted signal, or the relay transmitter). Summation is in
// fixed hub-index order, so the aggregate is deterministic.
func (n *Network) interferenceAt(rx, exclude int) float64 {
	mw := 0.0
	for h := range n.hubs {
		if h == rx || h == exclude || !n.hubs[h].emitting {
			continue
		}
		mw += n.intMW[h][rx]
	}
	return mw
}

// refill recharges every hub and member battery.
func (n *Network) refill() { copy(n.batts, n.full) }
