// Package stats provides the small statistical toolkit the experiments
// use: running summaries, percentiles, histograms, series interpolation,
// and crossover detection for range/regime boundaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates streaming summary statistics in O(1) memory using
// Welford's algorithm for numerically stable variance.
type Running struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	if r.n == 0 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N reports the number of observations.
func (r *Running) N() int { return r.n }

// Mean reports the sample mean; it returns NaN with no observations.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.mean
}

// Variance reports the unbiased sample variance; NaN with fewer than two
// observations.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return math.NaN()
	}
	return r.m2 / float64(r.n-1)
}

// StdDev reports the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min reports the smallest observation; NaN with no observations.
func (r *Running) Min() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.min
}

// Max reports the largest observation; NaN with no observations.
func (r *Running) Max() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.max
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It panics on an empty slice
// or out-of-range p. The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram counts observations into equal-width bins over [min, max].
type Histogram struct {
	Min, Max float64 // the binned range
	Counts   []int   // observations per bin
	under    int
	over     int
}

// NewHistogram creates a histogram with n bins spanning [min, max).
// It panics if n <= 0 or max <= min.
func NewHistogram(min, max float64, n int) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if max <= min {
		panic("stats: histogram max must exceed min")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, n)}
}

// Add places an observation into its bin; values outside [min, max) are
// tallied separately and reported by Outliers.
func (h *Histogram) Add(x float64) {
	if x < h.Min {
		h.under++
		return
	}
	if x >= h.Max {
		h.over++
		return
	}
	i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
	if i == len(h.Counts) { // guard against floating rounding at the edge
		i--
	}
	h.Counts[i]++
}

// Outliers reports how many observations fell below min and at-or-above
// max.
func (h *Histogram) Outliers() (under, over int) { return h.under, h.over }

// Total reports the number of in-range observations.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Point is one (X, Y) sample of a series.
type Point struct {
	X, Y float64 // the sample's coordinates
}

// Series is an ordered set of samples with strictly increasing X, the
// shape every figure's curve is reported in.
type Series []Point

// Interpolate returns the linearly interpolated Y at x. X values outside
// the series range clamp to the endpoint values. It panics on an empty
// series.
func (s Series) Interpolate(x float64) float64 {
	if len(s) == 0 {
		panic("stats: interpolate on empty series")
	}
	if x <= s[0].X {
		return s[0].Y
	}
	if x >= s[len(s)-1].X {
		return s[len(s)-1].Y
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].X >= x })
	a, b := s[i-1], s[i]
	frac := (x - a.X) / (b.X - a.X)
	return a.Y + frac*(b.Y-a.Y)
}

// CrossBelow returns the smallest X at which the series first drops to or
// below the threshold, interpolating between samples, and whether such a
// crossing exists. This is how operating ranges are extracted from BER
// curves (e.g. "the distance where BER exceeds 1%" scans the inverted
// curve).
func (s Series) CrossBelow(threshold float64) (float64, bool) {
	for i, p := range s {
		if p.Y <= threshold {
			if i == 0 {
				return p.X, true
			}
			a := s[i-1]
			if a.Y == p.Y {
				return p.X, true
			}
			frac := (a.Y - threshold) / (a.Y - p.Y)
			return a.X + frac*(p.X-a.X), true
		}
	}
	return 0, false
}

// CrossAbove returns the smallest X at which the series first rises to or
// above the threshold, interpolating between samples, and whether such a
// crossing exists.
func (s Series) CrossAbove(threshold float64) (float64, bool) {
	for i, p := range s {
		if p.Y >= threshold {
			if i == 0 {
				return p.X, true
			}
			a := s[i-1]
			if a.Y == p.Y {
				return p.X, true
			}
			frac := (threshold - a.Y) / (p.Y - a.Y)
			return a.X + frac*(p.X-a.X), true
		}
	}
	return 0, false
}

// GeoMean returns the geometric mean of xs; it panics if any value is
// non-positive or the slice is empty. Gain matrices are summarized this
// way because the gains span orders of magnitude.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: geomean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geomean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
