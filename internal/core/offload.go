// Package core implements the paper's primary contribution: the
// energy-aware carrier offload layer of §4. Given the characterized link
// modes at the current distance (their per-bit costs T_i and R_i at both
// endpoints) and the two endpoints' energy budgets E1 and E2, it decides
// what fraction of traffic to carry in each mode so the endpoints spend
// energy in proportion to what they have — and it runs the resulting
// braided schedule against the batteries, including mode-switch
// overheads.
//
// Two solvers are provided and cross-checked in tests:
//
//   - SolveEq1 is the paper's formulation (Eq. 1) as a linear program:
//     minimize Σ p_i (T_i + R_i) subject to Σ p_i = 1 and
//     Σ p_i T_i / Σ p_i R_i = E1/E2. Infeasible when the battery ratio
//     lies outside the span of the available modes' cost ratios.
//
//   - Optimize maximizes delivered bits min(E1/T̄, E2/R̄) directly by
//     enumerating the candidate vertices and ratio-matched edge points.
//     It always has a solution and coincides with SolveEq1 whenever the
//     power-proportional constraint is feasible (power-proportionality
//     and bit-maximization agree in the interior — the paper's point P
//     on line BC of Fig. 9).
//
// Fractions are fractions of delivered bits, which at equal mode bitrates
// equal the paper's fractions of time.
package core

import (
	"errors"
	"fmt"
	"math"

	"braidio/internal/lp"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// Allocation is the output of the offload optimizer.
type Allocation struct {
	// Links are the modes considered, as characterized by the PHY.
	Links []phy.ModeLink
	// P are the bit fractions per link, aligned with Links, summing to 1.
	P []float64
	// TX and RX are the mixture's average per-bit costs at each end.
	TX, RX units.JoulesPerBit
	// Bits is the total deliverable payload bits before one endpoint
	// dies, for the budgets passed to Optimize.
	Bits float64
}

// Fraction returns the allocation fraction for a mode (zero if the mode
// is not in the allocation).
func (a *Allocation) Fraction(m phy.Mode) float64 {
	for i, l := range a.Links {
		if l.Mode == m {
			return a.P[i]
		}
	}
	return 0
}

// Dominant returns the mode carrying the largest fraction.
func (a *Allocation) Dominant() phy.Mode {
	best, bestP := phy.ModeActive, -1.0
	for i, l := range a.Links {
		if a.P[i] > bestP {
			best, bestP = l.Mode, a.P[i]
		}
	}
	return best
}

// ErrNoLinks reports that no mode is available (out of range).
var ErrNoLinks = errors.New("core: no links available")

// costRow is the input of one Eq. (1) decision: the available modes
// and their per-useful-bit costs (T_i, R_i) in canonical order, as
// parallel columns of any length. The batch kernels slice it straight
// out of one slot of the arena's columns; the scalar solvers project
// their links onto it with linkCosts. Every solver's arithmetic is
// written once, over this row, so the two paths are bit-identical by
// construction.
type costRow struct {
	mode []phy.Mode
	t, r []units.JoulesPerBit
}

// rowBuf is storage for projecting up to phy.NumModes links onto a
// costRow without touching the heap.
type rowBuf struct {
	mode [phy.NumModes]phy.Mode
	t, r [phy.NumModes]units.JoulesPerBit
}

// linkCosts projects links onto a costRow backed by buf, spilling to the
// heap only when a caller passes more than phy.NumModes links.
func linkCosts(links []phy.ModeLink, buf *rowBuf) costRow {
	row := costRow{buf.mode[:0], buf.t[:0], buf.r[:0]}
	for _, l := range links {
		row.mode = append(row.mode, l.Mode)
		row.t = append(row.t, l.T)
		row.r = append(row.r, l.R)
	}
	return row
}

// validateRow rejects nonsense budgets and dead links — the one input
// check every solver runs.
func validateRow(row costRow, e1, e2 units.Joule) error {
	if len(row.t) == 0 {
		return ErrNoLinks
	}
	if e1 <= 0 || e2 <= 0 {
		return fmt.Errorf("core: non-positive budgets %v/%v", float64(e1), float64(e2))
	}
	for i, t := range row.t {
		r := row.r[i]
		if t <= 0 || r <= 0 || math.IsInf(float64(t), 1) || math.IsInf(float64(r), 1) {
			return fmt.Errorf("core: link %v has unusable costs %v/%v", row.mode[i], t, r)
		}
	}
	return nil
}

// mixture computes the average costs of a fraction vector: the full
// dot product over every slot, zeros included.
func mixture(row costRow, p []float64) (tx, rx units.JoulesPerBit) {
	var t, r float64
	for i := range row.t {
		t += p[i] * float64(row.t[i])
		r += p[i] * float64(row.r[i])
	}
	return units.JoulesPerBit(t), units.JoulesPerBit(r)
}

// bitsFor returns deliverable bits for a mixture under budgets.
func bitsFor(tx, rx units.JoulesPerBit, e1, e2 units.Joule) float64 {
	return math.Min(float64(e1)/float64(tx), float64(e2)/float64(rx))
}

// bestMode returns the pure mode delivering the most bits and that bit
// count (-1 with index -1 when no mode compares greater, e.g. NaN
// budgets). Ties keep the earliest mode.
func bestMode(row costRow, e1, e2 units.Joule) (best int, bits float64) {
	best, bits = -1, -1
	for i := range row.t {
		if b := bitsFor(row.t[i], row.r[i], e1, e2); b > bits {
			best, bits = i, b
		}
	}
	return best, bits
}

// enumerate is the closed-form Eq. (1) kernel behind Optimize and
// OptimizeBatch: it writes the bit-maximizing fractions over a validated
// row into p (as long as the row) and returns the mixture's costs and
// deliverable bits.
//
// The objective min(E1/T̄, E2/R̄) is quasi-concave over the simplex, so
// the optimum is either a pure mode or a two-mode mix whose consumption
// ratio exactly matches E1:E2. Candidates are visited pure modes first,
// then pairs i<j, and only a strictly better one replaces the incumbent.
// The winner is tracked by index instead of materializing each
// candidate's fraction vector; this is bit-identical to mixing the full
// vector, because a pure mode's mixture is exactly (T_i, R_i), a
// two-mode mix has exactly two nonzero terms, and in IEEE arithmetic
// 0·x = +0 and y + (+0) = y exactly (all costs are positive).
func enumerate(row costRow, e1, e2 units.Joule, p []float64) (tx, rx units.JoulesPerBit, bits float64) {
	T, R := row.t, row.r
	bestI, bits := bestMode(row, e1, e2)
	tx, rx = T[bestI], R[bestI]
	bestJ, bestQ := -1, 0.0
	// Ratio-matched two-mode mixes: solve
	// (q·T_i + (1−q)·T_j) / (q·R_i + (1−q)·R_j) = ratio for q ∈ (0,1).
	ratio := float64(e1) / float64(e2)
	for i := range T {
		ti, ri := T[i], R[i]
		ai := float64(ti) - ratio*float64(ri)
		for j := i + 1; j < len(T); j++ {
			tj, rj := T[j], R[j]
			aj := float64(tj) - ratio*float64(rj)
			den := ai - aj
			if den == 0 {
				continue
			}
			q := -aj / den
			if q <= 0 || q >= 1 {
				continue
			}
			qj := 1 - q
			var t, r float64
			t += q * float64(ti)
			t += qj * float64(tj)
			r += q * float64(ri)
			r += qj * float64(rj)
			mtx, mrx := units.JoulesPerBit(t), units.JoulesPerBit(r)
			if b := bitsFor(mtx, mrx, e1, e2); b > bits {
				bestI, bestJ, bestQ = i, j, q
				tx, rx, bits = mtx, mrx, b
			}
		}
	}
	for k := range p {
		p[k] = 0
	}
	if bestJ < 0 {
		p[bestI] = 1
	} else {
		p[bestI], p[bestJ] = bestQ, 1-bestQ
	}
	return tx, rx, bits
}

// Optimize returns the bit-maximizing allocation for the given links and
// budgets (E1 at the transmitter, E2 at the receiver): a pure mode or
// the ratio-matched two-mode mix that delivers the most bits.
func Optimize(links []phy.ModeLink, e1, e2 units.Joule) (*Allocation, error) {
	a := &Allocation{}
	if err := OptimizeInto(a, links, e1, e2); err != nil {
		return nil, err
	}
	return a, nil
}

// OptimizeInto is Optimize solving into caller-owned storage: dst's P
// slice is resized in place. core.Braid's default-optimizer path and the
// network planner call this with persistent dst buffers so a solve
// performs no heap allocation.
func OptimizeInto(dst *Allocation, links []phy.ModeLink, e1, e2 units.Joule) error {
	var buf rowBuf
	row := linkCosts(links, &buf)
	if err := validateRow(row, e1, e2); err != nil {
		return err
	}
	if cap(dst.P) < len(links) {
		dst.P = make([]float64, len(links))
	}
	dst.Links, dst.P = links, dst.P[:len(links)]
	dst.TX, dst.RX, dst.Bits = enumerate(row, e1, e2, dst.P)
	return nil
}

// scaleRowMax normalizes a matrix row by its largest magnitude. Per-bit
// costs sit many orders of magnitude below 1, which puts the Eq. (1)
// proportionality row's entries near the simplex solver's absolute
// pivot tolerance and lets a near-eps pivot corrupt the well-scaled
// Σp = 1 row. Both the row (= 0) and the objective are invariant under
// positive scaling, so solveEq1 normalizes each by its largest
// magnitude.
func scaleRowMax(row []float64) {
	maxAbs := 0.0
	for _, v := range row {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs > 0 {
		for i := range row {
			row[i] /= maxAbs
		}
	}
}

// solveEq1 is the one Eq. (1) simplex solve behind SolveEq1 and
// SolveEq1Batch: it builds the paper's program over a validated row into
// c, aRow and ones (each as long as the row) — minimize Σ p_i (T_i + R_i)
// subject to Σ p_i = 1 and Σ p_i (T_i − ratio·R_i) = 0 — and solves it
// warm from basis (cold when basis is empty).
func solveEq1(row costRow, e1, e2 units.Joule, basis []int, c, aRow, ones []float64) (*lp.Solution, bool, error) {
	ratio := float64(e1) / float64(e2)
	for i, t := range row.t {
		r := row.r[i]
		c[i] = float64(t) + float64(r)
		aRow[i] = float64(t) - ratio*float64(r)
		ones[i] = 1
	}
	scaleRowMax(aRow)
	scaleRowMax(c)
	return lp.SolveWarm(&lp.Problem{C: c, A: [][]float64{ones, aRow}, B: []float64{1, 0}}, basis)
}

// SolveEq1 solves the paper's Eq. 1 exactly via the simplex solver:
// minimize total per-bit cost subject to power-proportional consumption.
// It returns lp.ErrInfeasible when the battery ratio is outside the
// achievable span (the regime where Optimize clamps to a pure mode).
func SolveEq1(links []phy.ModeLink, e1, e2 units.Joule) (*Allocation, error) {
	var buf rowBuf
	row := linkCosts(links, &buf)
	if err := validateRow(row, e1, e2); err != nil {
		return nil, err
	}
	n := len(links)
	lpRows := make([]float64, 3*n)
	sol, _, err := solveEq1(row, e1, e2, nil, lpRows[:n], lpRows[n:2*n], lpRows[2*n:])
	if err != nil {
		return nil, err
	}
	alloc := &Allocation{Links: links, P: sol.X}
	alloc.TX, alloc.RX = mixture(row, sol.X)
	alloc.Bits = bitsFor(alloc.TX, alloc.RX, e1, e2)
	return alloc, nil
}

// BestSingleMode returns the pure-mode allocation maximizing bits — the
// Fig. 16 baseline ("the best of the three modes in isolation").
func BestSingleMode(links []phy.ModeLink, e1, e2 units.Joule) (*Allocation, error) {
	var buf rowBuf
	row := linkCosts(links, &buf)
	if err := validateRow(row, e1, e2); err != nil {
		return nil, err
	}
	best := &Allocation{Links: links, P: make([]float64, len(links))}
	i, bits := bestMode(row, e1, e2)
	if i >= 0 {
		best.P[i] = 1
		best.TX, best.RX = links[i].T, links[i].R
	}
	best.Bits = bits
	return best, nil
}

// SingleMode returns the pure allocation for one specific mode, if
// available in links.
func SingleMode(links []phy.ModeLink, m phy.Mode, e1, e2 units.Joule) (*Allocation, error) {
	var buf rowBuf
	if err := validateRow(linkCosts(links, &buf), e1, e2); err != nil {
		return nil, err
	}
	for i, l := range links {
		if l.Mode != m {
			continue
		}
		a := &Allocation{Links: links, P: make([]float64, len(links))}
		a.P[i] = 1
		a.TX, a.RX = l.T, l.R
		a.Bits = bitsFor(l.T, l.R, e1, e2)
		return a, nil
	}
	return nil, fmt.Errorf("core: mode %v not available", m)
}
