// Package hub extends Braidio's pairwise carrier offload to a star
// network: one energy-rich hub (a phone or laptop) serving several
// wearables, each over its own braided pair, with the hub's single
// battery shared across all of them.
//
// The paper evaluates pairs; the introduction's motivation — "a
// significant fraction of the energy cost of communication [can] be
// offloaded to the device that has more energy i.e. the mobile phone" —
// is inherently multi-device. The hub serves its members in rounds,
// re-solving each member's offload allocation against the hub's
// *remaining* budget so that early traffic from one wearable is
// reflected in the braiding chosen for the others.
//
// Members are fault-isolated: a member whose link dies (it walked out of
// range, its carrier dropped, its QoS floor became infeasible) is
// quarantined after a bounded number of consecutive failed rounds —
// its MemberResult carries a typed error wrapping ErrMemberQuarantined
// and the cause — while the others keep being served.
//
// A star is a one-hub internal/net network with interference, carrier
// sharing and relays disabled, and Run is that network's Run: the
// rounds, their two-phase determinism contract (bit-identical Results
// at any Workers count) and the member behaviours (Walk, Faults,
// MinRate) are net's, documented there. Fleet runs many independent
// stars over one worker pool.
package hub

import (
	"errors"
	"fmt"

	"braidio/internal/energy"
	"braidio/internal/faults"
	"braidio/internal/field"
	"braidio/internal/net"
	"braidio/internal/obs"
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
// members, then Run. A Hub is not safe for concurrent Runs: it keeps
// the network it runs between calls.
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
	members []Member
	// net is the one-hub network Run executes, built for the current
	// roster and cfg; Add drops it, and a changed cfg rebuilds it.
	net *net.Network
	cfg net.Config
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
	return &Hub{device: device, model: m}
}

// Add registers a member. It returns an error if no link mode reaches
// the member or the load is not positive.
func (h *Hub) Add(m Member) error {
	if m.Load <= 0 {
		return fmt.Errorf("hub: member %s has non-positive load", m.Device.Name)
	}
	if len(h.model.Characterize(m.Distance)) == 0 {
		return fmt.Errorf("hub: member %s at %v m is out of range", m.Device.Name, float64(m.Distance))
	}
	h.members = append(h.members, m)
	h.net = nil
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
	Member Member // the roster entry this result describes
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
	QuarantinedRound int // see Quarantined
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

// Run simulates the star for a wall-clock horizon, delivering each
// member's offered load in rounds: a net.Network.Run over the one-hub
// topology with every coupling disabled, mapped back onto a Result. Run
// stops early — mid-round, after the fatal commit — if the hub dies,
// recording the round in Result.HubDiedRound.
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
	cfg := net.Config{
		Model:               h.model,
		Workers:             h.Workers,
		QuarantineStrikes:   h.QuarantineStrikes,
		AllocationTolerance: h.AllocationTolerance,
		DisableInterference: true,
		DisableCarrierShare: true,
		DisableRelay:        true,
		Obs:                 h.Obs,
	}
	if h.net == nil || cfg != h.cfg {
		n, err := net.New(h.topology(), cfg)
		if err != nil {
			return nil, fmt.Errorf("hub: %w", err)
		}
		h.net, h.cfg = n, cfg
	}
	nr, err := h.net.Run(horizon, rounds)
	if err != nil {
		return nil, fmt.Errorf("hub: %w", err)
	}
	hr := &nr.Hubs[0]
	res := &Result{
		Horizon:      horizon,
		HubDrain:     hr.Drain,
		HubExhausted: hr.Exhausted,
		Members:      make([]MemberResult, len(h.members)),
		Quarantines:  nr.Quarantines,
		LPSolves:     hr.LPSolves,
		AllocReuses:  hr.AllocReuses,
		HubDiedRound: hr.DiedRound,
		Replans:      hr.Replans,
	}
	for i, m := range h.members {
		mr := &hr.Members[i]
		res.Members[i] = MemberResult{
			Member:           m,
			Bits:             mr.Bits,
			MemberDrain:      mr.MemberDrain,
			HubDrain:         mr.HubDrain,
			ModeBits:         mr.ModeBits,
			Starved:          mr.Starved,
			Quarantined:      mr.Quarantined,
			QuarantinedRound: mr.QuarantinedRound,
			Err:              h.quarantineErr(mr.Err, m.Device.Name),
			OutageRounds:     mr.OutageRounds,
		}
		res.OutageRounds += mr.OutageRounds
	}
	return res, nil
}

// topology places the star in net's plane: the hub at the origin and
// member j at (0, j+1), distinct points only, because every member
// carries a walk — its own, or a static one at Distance — and with the
// couplings off the walk's home distance is the only geometry read.
func (h *Hub) topology() *net.Topology {
	members := make([]net.Member, len(h.members))
	// One backing array for the static walks: a pointer into it is a
	// sim.Walk without one allocation per member.
	static := make([]sim.StaticWalk, len(h.members))
	for j, m := range h.members {
		walk := m.Walk
		if walk == nil {
			static[j] = sim.StaticWalk(m.Distance)
			walk = &static[j]
		}
		members[j] = net.Member{
			Device:  m.Device,
			Pos:     field.Vec2{Y: float64(j + 1)},
			Walk:    walk,
			Faults:  m.Faults,
			Load:    m.Load,
			MinRate: m.MinRate,
		}
	}
	return &net.Topology{Hubs: []net.Hub{{Device: h.device, Members: members}}}
}

// quarantineErr restates net's quarantine error in hub's words. net
// wraps net.ErrMemberQuarantined and the failure's reason, in that
// order; a member is quarantined on the strike that reaches the limit.
func (h *Hub) quarantineErr(err error, name string) error {
	if err == nil {
		return nil
	}
	reason := err.(interface{ Unwrap() []error }).Unwrap()[1]
	strikes := h.QuarantineStrikes
	if strikes <= 0 {
		strikes = defaultQuarantineStrikes
	}
	return fmt.Errorf("%w after %d consecutive failed rounds: hub: member %s: %w",
		ErrMemberQuarantined, strikes, name, reason)
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
// the observed drain rate (0 when the member drained nothing).
func (r *MemberResult) Lifetime() float64 {
	if r.MemberDrain <= 0 {
		return 0
	}
	return float64(r.Member.Device.Capacity.Joules()) / float64(r.MemberDrain)
}
