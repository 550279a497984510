package core

import (
	"errors"
	"fmt"
	"math"

	"braidio/internal/lp"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// OptimizeQoS extends the offload optimizer with a minimum-throughput
// constraint: the braided mixture must deliver at least minRate payload
// bits per second of air time. Time-sharing means the mixture's
// throughput is the harmonic combination 1/Σ(p_i/g_i), so the
// constraint Σ p_i/g_i ≤ 1/minRate is linear — the problem stays a
// small LP over the Eq. 1 structure with one extra inequality.
//
// A real-time source (the Pivothead's video) needs this: at distances
// where backscatter only runs at 10 kbps, pure power-proportionality
// would braid in slow slots that a 30 fps stream cannot absorb.
//
// It returns ErrQoSInfeasible when no feasible mixture meets the rate at
// the required power proportion, and ErrRateUnreachable when even the
// fastest single link is slower than minRate.
func OptimizeQoS(links []phy.ModeLink, e1, e2 units.Joule, minRate units.BitRate) (*Allocation, error) {
	var buf rowBuf
	row := linkCosts(links, &buf)
	if err := validateRow(row, e1, e2); err != nil {
		return nil, err
	}
	if minRate <= 0 {
		return Optimize(links, e1, e2)
	}
	fastest := units.BitRate(0)
	for _, l := range links {
		if l.Good > fastest {
			fastest = l.Good
		}
	}
	if fastest < minRate {
		return nil, fmt.Errorf("%w: best link delivers %v < %v", ErrRateUnreachable, fastest, minRate)
	}

	// First try the power-proportional LP with the throughput row.
	ratio := float64(e1) / float64(e2)
	n := len(links)
	// Variables: p_1..p_n, slack s for the throughput inequality.
	c := make([]float64, n+1)
	ones := make([]float64, n+1)
	ratioRow := make([]float64, n+1)
	rateRow := make([]float64, n+1)
	for i, l := range links {
		c[i] = float64(l.T) + float64(l.R)
		ones[i] = 1
		ratioRow[i] = float64(l.T) - ratio*float64(l.R)
		rateRow[i] = 1 / float64(l.Good)
	}
	rateRow[n] = 1 // slack: Σ p/g + s = 1/minRate
	sol, err := lp.Solve(&lp.Problem{
		C: c,
		A: [][]float64{ones, ratioRow, rateRow},
		B: []float64{1, 0, 1 / float64(minRate)},
	})
	if err == nil {
		alloc := &Allocation{Links: links, P: sol.X[:n]}
		alloc.TX, alloc.RX = mixture(row, alloc.P)
		alloc.Bits = bitsFor(alloc.TX, alloc.RX, e1, e2)
		return alloc, nil
	}
	if !errors.Is(err, lp.ErrInfeasible) {
		return nil, err
	}

	// Power-proportionality and the rate floor cannot both hold: keep
	// the rate floor (a deadline is hard; a battery imbalance is not)
	// and maximize delivered bits over the rate-feasible simplex by
	// enumerating its vertices: pure fast modes and pairwise mixes where
	// either the rate constraint or the budget balance is active.
	best := &Allocation{Links: links, P: make([]float64, n), Bits: -1}
	consider := func(p []float64) {
		var invRate float64
		for i := range links {
			invRate += p[i] / float64(links[i].Good)
		}
		if invRate > 1/float64(minRate)+1e-12 {
			return
		}
		tx, rx := mixture(row, p)
		bits := bitsFor(tx, rx, e1, e2)
		if bits > best.Bits {
			copy(best.P, p)
			best.TX, best.RX, best.Bits = tx, rx, bits
		}
	}
	p := make([]float64, n)
	for i := range links {
		for j := range p {
			p[j] = 0
		}
		p[i] = 1
		consider(p)
	}
	for i := range links {
		for j := i + 1; j < n; j++ {
			for k := range p {
				p[k] = 0
			}
			// Budget-balance point on the (i, j) edge.
			ai := float64(links[i].T) - ratio*float64(links[i].R)
			aj := float64(links[j].T) - ratio*float64(links[j].R)
			if den := ai - aj; den != 0 {
				if q := -aj / den; q > 0 && q < 1 {
					p[i], p[j] = q, 1-q
					consider(p)
				}
			}
			// Rate-constraint-active point on the (i, j) edge:
			// q/g_i + (1−q)/g_j = 1/minRate.
			gi, gj := 1/float64(links[i].Good), 1/float64(links[j].Good)
			if den := gi - gj; den != 0 {
				if q := (1/float64(minRate) - gj) / den; q > 0 && q < 1 {
					p[i], p[j] = q, 1-q
					consider(p)
				}
			}
			p[i], p[j] = 0, 0
		}
	}
	if best.Bits < 0 {
		return nil, ErrQoSInfeasible
	}
	return best, nil
}

// Errors returned by OptimizeQoS.
var (
	// ErrRateUnreachable: no single link is fast enough.
	ErrRateUnreachable = errors.New("core: required rate exceeds every link")
	// ErrQoSInfeasible: no mixture satisfies the rate floor.
	ErrQoSInfeasible = errors.New("core: no rate-feasible mixture")
)

// Throughput returns an allocation's delivered payload rate under
// time-sharing: 1/Σ(p_i/g_i).
func (a *Allocation) Throughput() units.BitRate {
	var inv float64
	for i, l := range a.Links {
		if a.P[i] > 0 {
			inv += a.P[i] / float64(l.Good)
		}
	}
	if inv <= 0 || math.IsInf(inv, 0) {
		return 0
	}
	return units.BitRate(1 / inv)
}
