// Package faults is a deterministic, seed-driven fault-injection
// framework for the Braidio simulator. The paper's §4.2 safety net —
// "Braidio simply falls back to the active mode if the current operating
// mode is performing poorly" — only earns its keep under the correlated
// outages backscatter links actually suffer: interference bursts that
// crush SNR, shadowing dips, carrier dropouts, and harvesting brownouts.
// The stock channel model gives the MAC i.i.d. per-frame loss, which
// never exercises the fallback, retry, and re-probe machinery; this
// package supplies the missing fault processes.
//
// An Injector transforms a per-frame-attempt Env: it can raise the frame
// error rate (replacing the i.i.d. loss draw with a channel-state
// process), bias the SNR observations the MAC's estimator sees, scale
// battery drain (brownout), or declare the carrier gone entirely.
// Injectors compose through Chain and are strictly opt-in: a session or
// hub with no injector configured takes the exact pre-fault code path,
// bit-identical to a fault-free build.
//
// Determinism: every stochastic injector owns a private rng.Stream
// seeded at construction, so injectors never consume draws from the
// session's stream — the same seed reproduces the same fault schedule
// regardless of which impairments are chained around it.
package faults

import (
	"fmt"

	"braidio/internal/phy"
	"braidio/internal/rng"
	"braidio/internal/units"
)

// Env is the channel context for one frame attempt (or probe). The
// session fills in the attempt's time, mode, rate, and base i.i.d. frame
// error rate; injectors mutate the remaining fields. The zero scales are
// normalized by Reset.
type Env struct {
	// Time is the session air time at the attempt.
	Time units.Second
	// Mode and Rate identify the link the attempt uses.
	Mode phy.Mode
	Rate units.BitRate // see Mode
	// FER is the frame error probability. It starts at the PHY's i.i.d.
	// value; injectors compound extra loss into it.
	FER float64
	// SNROffset is added (in dB) to every SNR observation the MAC makes
	// during this attempt — jamming and estimator corruption act here.
	SNROffset float64
	// TXDrain and RXDrain scale the energy each side spends on the
	// attempt (brownout: a harvesting interruption forces the radio to
	// pull full power from the cell).
	TXDrain, RXDrain float64
	// CarrierLost reports the carrier is gone entirely: the frame cannot
	// be delivered and no SNR observation is possible. The transmitter
	// still burns energy transmitting into the void.
	CarrierLost bool
}

// Reset prepares an Env for one attempt: the identity transform at the
// given time/mode/rate/fer.
func (e *Env) Reset(t units.Second, m phy.Mode, r units.BitRate, fer float64) {
	e.Time, e.Mode, e.Rate, e.FER = t, m, r, fer
	e.SNROffset = 0
	e.TXDrain, e.RXDrain = 1, 1
	e.CarrierLost = false
}

// compound folds an extra independent loss probability into the Env's
// frame error rate.
func (e *Env) compound(loss float64) {
	if loss <= 0 {
		return
	}
	if loss >= 1 {
		e.FER = 1
		return
	}
	e.FER = 1 - (1-e.FER)*(1-loss)
}

// Injector is one composable impairment. Impair mutates the Env for a
// single frame attempt; implementations draw randomness only from their
// own streams so that chains compose deterministically. Injectors are
// stateful (burst processes advance per attempt) and not safe for
// concurrent use; build one chain per session.
type Injector interface {
	// Name identifies the impairment in counters and logs.
	Name() string
	// Impair transforms the channel state for one frame attempt.
	Impair(env *Env)
}

// Chain applies injectors in order. A nil or empty Chain is the identity.
type Chain []Injector

// Name implements Injector.
func (c Chain) Name() string { return "chain" }

// Impair implements Injector by applying every element in order.
func (c Chain) Impair(env *Env) {
	for _, inj := range c {
		inj.Impair(env)
	}
}

// Counters flattens every chained injector's event counts into one map
// keyed by injector name (duplicate names aggregate).
func (c Chain) Counters() map[string]int {
	out := map[string]int{}
	for _, inj := range c {
		if ctr, ok := inj.(interface{ Events() int }); ok {
			out[inj.Name()] += ctr.Events()
		}
	}
	return out
}

// window reports whether t falls inside a periodic burst window that
// first opens at start and then repeats every period, staying open for
// duration each time. A non-positive period means a single window.
func window(t, start, period, duration units.Second) bool {
	if duration <= 0 || t < start {
		return false
	}
	off := t - start
	if period > 0 {
		off = units.Second(float64(off) - float64(period)*float64(int(off/period)))
	}
	return off < duration
}

// GilbertElliott is the classic two-state Markov burst-loss channel: a
// Good state with negligible extra loss and a Bad state (an interference
// or fading burst) with heavy loss. State transitions happen once per
// frame attempt, so mean burst length is 1/PExit attempts — exactly the
// correlated-loss structure i.i.d. draws cannot produce.
type GilbertElliott struct {
	// PEnter is P(Good→Bad) per attempt; PExit is P(Bad→Good).
	PEnter, PExit float64
	// GoodLoss and BadLoss are the extra loss probabilities compounded
	// into the frame error rate in each state.
	GoodLoss, BadLoss float64

	stream *rng.Stream
	bad    bool
	bursts int
}

// NewGilbertElliott builds a burst-loss channel starting in the Good
// state. Probabilities must be in [0, 1]; the channel is deterministic
// given the seed.
func NewGilbertElliott(pEnter, pExit, goodLoss, badLoss float64, seed uint64) *GilbertElliott {
	for _, p := range []float64{pEnter, pExit, goodLoss, badLoss} {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("faults: probability %v outside [0,1]", p))
		}
	}
	return &GilbertElliott{PEnter: pEnter, PExit: pExit, GoodLoss: goodLoss, BadLoss: badLoss, stream: rng.New(seed)}
}

// Name implements Injector.
func (g *GilbertElliott) Name() string { return "gilbert-elliott" }

// Impair implements Injector: advance the Markov state one step, then
// compound the state's loss into the frame error rate.
func (g *GilbertElliott) Impair(env *Env) {
	if g.bad {
		if g.stream.Float64() < g.PExit {
			g.bad = false
		}
	} else if g.stream.Float64() < g.PEnter {
		g.bad = true
		g.bursts++
	}
	if g.bad {
		env.compound(g.BadLoss)
	} else {
		env.compound(g.GoodLoss)
	}
}

// Events returns how many Good→Bad transitions (bursts) have begun.
func (g *GilbertElliott) Events() int { return g.bursts }

// Bad reports whether the channel is currently in the burst state.
func (g *GilbertElliott) Bad() bool { return g.bad }

// Jammer models timed interference bursts — a microwave oven, a WiFi
// neighbour — that crush SNR by a fixed number of dB and impose a loss
// floor while active. Windows are strictly periodic so schedules are
// reproducible from the config alone.
type Jammer struct {
	// Start is when the first burst begins; Period repeats it (0 = one
	// burst only); Duration is each burst's length.
	Start, Period, Duration units.Second
	// SNRCrush is subtracted (dB) from every SNR observation while the
	// jammer is on.
	SNRCrush float64
	// Loss is the loss probability compounded while jammed (default 0
	// means SNR corruption only — set 1 to flatten the link).
	Loss float64

	events int
	active bool
}

// Name implements Injector.
func (j *Jammer) Name() string { return "jammer" }

// Impair implements Injector.
func (j *Jammer) Impair(env *Env) {
	on := window(env.Time, j.Start, j.Period, j.Duration)
	if on && !j.active {
		j.events++
	}
	j.active = on
	if on {
		env.SNROffset -= j.SNRCrush
		env.compound(j.Loss)
	}
}

// Events returns how many jamming bursts have begun.
func (j *Jammer) Events() int { return j.events }

// Dropout models a carrier disappearing entirely — the peer's oscillator
// gating off, a deep shadow — for timed windows. While dropped, frames
// cannot be delivered and the estimator gets no observation, but the
// transmitter still pays to transmit.
type Dropout struct {
	// Start, Period, Duration shape the periodic outage windows as in
	// Jammer.
	Start, Period, Duration units.Second

	events int
	active bool
}

// Name implements Injector.
func (d *Dropout) Name() string { return "dropout" }

// Impair implements Injector.
func (d *Dropout) Impair(env *Env) {
	on := window(env.Time, d.Start, d.Period, d.Duration)
	if on && !d.active {
		d.events++
	}
	d.active = on
	if on {
		env.CarrierLost = true
		env.FER = 1
	}
}

// Events returns how many dropout windows have begun.
func (d *Dropout) Events() int { return d.events }

// Side selects which endpoint an asymmetric impairment applies to.
type Side int

// The endpoints a Brownout can starve.
const (
	// SideTX is the transmitting endpoint (the energy-poor wearable in
	// the canonical uplink).
	SideTX Side = iota
	// SideRX is the receiving endpoint.
	SideRX
	// SideBoth starves both endpoints.
	SideBoth
)

// Brownout models a harvesting interruption or DC-DC brownout: during
// timed windows one side's radio pulls Scale× the nominal energy from
// its battery (the harvester's contribution is gone, conversion
// efficiency collapses). Scale must be ≥ 1.
type Brownout struct {
	// Start, Period, Duration shape the periodic windows as in Jammer.
	Start, Period, Duration units.Second
	// Scale multiplies the affected side's drain while active.
	Scale float64
	// Affected selects the starved endpoint.
	Affected Side

	events int
	active bool
}

// Name implements Injector.
func (b *Brownout) Name() string { return "brownout" }

// Impair implements Injector.
func (b *Brownout) Impair(env *Env) {
	on := window(env.Time, b.Start, b.Period, b.Duration)
	if on && !b.active {
		b.events++
	}
	b.active = on
	if !on {
		return
	}
	scale := b.Scale
	if scale < 1 {
		scale = 1
	}
	if b.Affected == SideTX || b.Affected == SideBoth {
		env.TXDrain *= scale
	}
	if b.Affected == SideRX || b.Affected == SideBoth {
		env.RXDrain *= scale
	}
}

// Events returns how many brownout windows have begun.
func (b *Brownout) Events() int { return b.events }

// SNRCorruptor models a broken or biased SNR estimator: every
// observation is shifted by Bias dB plus zero-mean Gaussian noise of the
// given Sigma, on top of the session's own estimation noise. A negative
// bias makes links look worse than they are (spurious fallbacks); a
// positive one hides real degradation (missed fallbacks).
type SNRCorruptor struct {
	// Bias shifts every observation (dB).
	Bias float64
	// Sigma is the extra noise standard deviation (dB).
	Sigma float64

	stream *rng.Stream
}

// NewSNRCorruptor builds an estimator corruptor with its own stream.
func NewSNRCorruptor(bias, sigma float64, seed uint64) *SNRCorruptor {
	if sigma < 0 {
		panic(fmt.Sprintf("faults: negative sigma %v", sigma))
	}
	return &SNRCorruptor{Bias: bias, Sigma: sigma, stream: rng.New(seed)}
}

// Name implements Injector.
func (c *SNRCorruptor) Name() string { return "snr-corruptor" }

// Impair implements Injector.
func (c *SNRCorruptor) Impair(env *Env) {
	off := c.Bias
	if c.Sigma > 0 {
		off += c.Sigma * c.stream.Norm()
	}
	env.SNROffset += off
}
