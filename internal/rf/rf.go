// Package rf implements the radio-frequency propagation and link-budget
// models underlying the Braidio simulator: free-space (Friis) and
// log-distance path loss, thermal noise, and the one-way and round-trip
// (backscatter) budgets that determine each mode's SNR at a given
// distance.
//
// Braidio operates in the 915 MHz UHF license-free band (the SAW filter in
// the prototype is an SF2049E centred there); all defaults assume that
// band but every quantity is parameterized.
package rf

import (
	"fmt"
	"math"

	"braidio/internal/units"
)

// DefaultFrequency is Braidio's operating band centre.
const DefaultFrequency = 915 * units.Megahertz

// BoltzmannConstant in J/K.
const BoltzmannConstant = 1.380649e-23

// RoomTemperature in kelvin, used for thermal noise floors.
const RoomTemperature = 290.0

// FreeSpacePathLoss returns the Friis free-space path loss in dB at
// distance d and frequency f: 20·log10(4πd/λ). It panics for
// non-positive d (the far-field model has no meaning there).
func FreeSpacePathLoss(d units.Meter, f units.Hertz) units.DB {
	if d <= 0 {
		panic(fmt.Sprintf("rf: non-positive distance %v", float64(d)))
	}
	lambda := float64(f.Wavelength())
	return units.DB(20 * math.Log10(4*math.Pi*float64(d)/lambda))
}

// LogDistance models path loss with an arbitrary exponent n relative to a
// reference distance d0 with loss PL0:
//
//	PL(d) = PL0 + 10·n·log10(d/d0)
//
// Indoor environments typically have n between 2.5 and 4; free space has
// n = 2. Used for sensitivity analyses beyond the paper's empty-room
// setting.
type LogDistance struct {
	// D0 is the reference distance (must be positive).
	D0 units.Meter
	// PL0 is the loss at D0.
	PL0 units.DB
	// N is the path-loss exponent.
	N float64
}

// Loss returns the path loss at distance d. It panics for non-positive d.
func (m LogDistance) Loss(d units.Meter) units.DB {
	if d <= 0 {
		panic(fmt.Sprintf("rf: non-positive distance %v", float64(d)))
	}
	return m.PL0 + units.DB(10*m.N*math.Log10(float64(d/m.D0)))
}

// FreeSpaceLogDistance returns the LogDistance model equivalent to free
// space at frequency f (exponent 2, referenced at 1 m).
func FreeSpaceLogDistance(f units.Hertz) LogDistance {
	return LogDistance{D0: 1, PL0: FreeSpacePathLoss(1, f), N: 2}
}

// NoiseFloor returns the thermal noise power in dBm over the given
// bandwidth, with the given receiver noise figure: kTB plus NF.
func NoiseFloor(bandwidth units.Hertz, noiseFigure units.DB) units.DBm {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("rf: non-positive bandwidth %v", float64(bandwidth)))
	}
	kTB := units.Watt(BoltzmannConstant * RoomTemperature * float64(bandwidth))
	return kTB.DBm().Add(units.DB(noiseFigure))
}

// Antenna describes one antenna of a link.
type Antenna struct {
	// Gain is the antenna gain in dBi. The paper's 12 mm chip antennas
	// (ANT1204LL05R) are small and lossy; around −2 dBi is typical.
	Gain units.DB
}

// ChipAntenna is the default small chip antenna used on the Braidio board.
var ChipAntenna = Antenna{Gain: -2}

// ReaderAntenna is the larger antenna assumed on the AS3993 baseline
// reader board.
var ReaderAntenna = Antenna{Gain: 2}

// Link describes a one-way radio link at a carrier frequency.
type Link struct {
	Frequency units.Hertz // carrier frequency
	TXAntenna Antenna     // transmit-side antenna
	RXAntenna Antenna     // receive-side antenna
	// Model is the path-loss model; zero value means free space at
	// Frequency.
	Model LogDistance
	// ExtraLoss lumps implementation losses (matching, cable, switch
	// insertion loss).
	ExtraLoss units.DB
}

// NewLink returns a free-space link between two chip antennas at the
// default frequency.
func NewLink() Link {
	return Link{
		Frequency: DefaultFrequency,
		TXAntenna: ChipAntenna,
		RXAntenna: ChipAntenna,
		Model:     FreeSpaceLogDistance(DefaultFrequency),
	}
}

// Received returns the one-way received power at distance d for transmit
// power tx.
func (l Link) Received(tx units.DBm, d units.Meter) units.DBm {
	model := l.Model
	if model.D0 == 0 {
		model = FreeSpaceLogDistance(l.frequencyOrDefault())
	}
	return tx.
		Add(l.TXAntenna.Gain).
		Add(l.RXAntenna.Gain).
		Sub(model.Loss(d)).
		Sub(l.ExtraLoss)
}

func (l Link) frequencyOrDefault() units.Hertz {
	if l.Frequency == 0 {
		return DefaultFrequency
	}
	return l.Frequency
}

// BackscatterLink is the round-trip budget of a backscatter channel: the
// carrier travels from the carrier source to the tag, is modulated and
// re-radiated with a reflection loss, and travels back to the receiver.
// When (as on the Braidio board in backscatter mode) carrier source and
// receiver are co-located, both hops cover the same distance and the
// effective path-loss slope doubles to 40·log10(d).
type BackscatterLink struct {
	// Forward is the carrier-source→tag hop.
	Forward Link
	// Reverse is the tag→receiver hop.
	Reverse Link
	// ReflectionLoss is the tag's modulation/backscatter loss: the
	// fraction of incident power re-radiated in the modulated sidebands.
	// Around 5–8 dB for an ASK-modulated RF transistor switch.
	ReflectionLoss units.DB
}

// NewBackscatterLink returns a backscatter budget with free-space hops
// between chip antennas and the default reflection loss of 6 dB.
func NewBackscatterLink() BackscatterLink {
	return BackscatterLink{
		Forward:        NewLink(),
		Reverse:        NewLink(),
		ReflectionLoss: 6,
	}
}

// Received returns the backscattered signal power at the receiver when the
// carrier source emits carrier dBm, the tag sits at distance dForward from
// the source and dReverse from the receiver.
func (b BackscatterLink) Received(carrier units.DBm, dForward, dReverse units.Meter) units.DBm {
	atTag := b.Forward.Received(carrier, dForward)
	return b.Reverse.Received(atTag.Sub(b.ReflectionLoss), dReverse)
}

// ReceivedMonostatic returns the backscattered power when carrier source
// and receiver are co-located at distance d from the tag — Braidio's
// backscatter mode, where the data receiver also generates the carrier.
func (b BackscatterLink) ReceivedMonostatic(carrier units.DBm, d units.Meter) units.DBm {
	return b.Received(carrier, d, d)
}

// SNR returns the signal-to-noise ratio given a received power and a noise
// floor.
func SNR(rx, noise units.DBm) units.DB { return units.DB(rx - noise) }

// SINR returns the signal-to-(noise+interference) ratio given a received
// power, a noise floor, and the total co-channel interference power at
// the receiver in linear milliwatts. The powers sum in the linear domain:
//
//	SINR = rx − 10·log10(10^(noise/10) + I_mW)
//
// Zero (or negative, or NaN) interference takes the SNR path unchanged —
// gated, not recomputed, so the interference-free result is bit-identical
// to SNR and downstream golden tests survive the plumbing. Any positive
// interference strictly raises the floor, so SINR < SNR whenever an
// interferer is present and SINR ≤ SNR always.
func SINR(rx, noise units.DBm, interferenceMW float64) units.DB {
	if !(interferenceMW > 0) {
		return SNR(rx, noise)
	}
	floorMW := math.Pow(10, float64(noise)/10) + interferenceMW
	return units.DB(float64(rx) - 10*math.Log10(floorMW))
}

// RangeForSensitivity inverts a link budget: the maximum distance at which
// the received power still meets the given sensitivity. The slope of the
// model determines the algebra; this uses bisection so it works for any
// monotone model, including round-trip budgets. lo and hi bracket the
// search (hi must be beyond the range).
func RangeForSensitivity(rx func(units.Meter) units.DBm, sensitivity units.DBm, lo, hi units.Meter) (units.Meter, bool) {
	if lo <= 0 || hi <= lo {
		panic("rf: invalid range bracket")
	}
	if rx(lo) < sensitivity {
		return 0, false // already below sensitivity at the near edge
	}
	if rx(hi) >= sensitivity {
		return hi, false // range exceeds the bracket
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if rx(mid) >= sensitivity {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

// TwoRay is the two-ray ground-reflection model: free-space falloff up
// to the crossover distance d_c = 4π·h_t·h_r/λ, then the steeper
// 40·log10(d) ground-bounce regime. With Braidio's table-top antenna
// heights the crossover sits beyond the operating ranges, which is why
// the paper's free-space characterization holds indoors at short range —
// this model quantifies where that stops being true.
type TwoRay struct {
	// Frequency of the carrier.
	Frequency units.Hertz
	// HeightTX and HeightRX are the antenna heights above ground, in
	// meters.
	HeightTX, HeightRX float64
}

// Crossover returns the distance where the model transitions from
// free-space to fourth-power falloff.
func (m TwoRay) Crossover() units.Meter {
	if m.HeightTX <= 0 || m.HeightRX <= 0 {
		panic("rf: two-ray model needs positive antenna heights")
	}
	f := m.Frequency
	if f == 0 {
		f = DefaultFrequency
	}
	lambda := float64(f.Wavelength())
	return units.Meter(4 * math.Pi * m.HeightTX * m.HeightRX / lambda)
}

// Loss returns the two-ray path loss at distance d.
func (m TwoRay) Loss(d units.Meter) units.DB {
	if d <= 0 {
		panic(fmt.Sprintf("rf: non-positive distance %v", float64(d)))
	}
	f := m.Frequency
	if f == 0 {
		f = DefaultFrequency
	}
	dc := m.Crossover()
	if d <= dc {
		return FreeSpacePathLoss(d, f)
	}
	// Beyond crossover: PL = 40·log10(d) − 20·log10(h_t·h_r),
	// continuous with free space at d_c.
	return FreeSpacePathLoss(dc, f) + units.DB(40*math.Log10(float64(d/dc)))
}
