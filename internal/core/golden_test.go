package core

import (
	"hash/fnv"
	"math"
	"testing"

	"braidio/internal/phy"
	"braidio/internal/rng"
	"braidio/internal/units"
)

// goldenSolvers pins every solver's outputs on a fixed corpus. The
// scalar and batch paths share one kernel, so the differential tests
// comparing them cannot see the kernel itself drift; this absolute
// digest can. Pinned on linux/amd64; if an intentional solver change
// moves it, re-pin it in the same commit and say why in the message.
const goldenSolvers = 0x38f0c087bdaa8e33

// solverDigest folds allocations and errors into one FNV-1a digest:
// every fraction, the mixture, the bit count, and the error text.
type solverDigest struct{ b []byte }

func (d *solverDigest) f64(v float64) {
	u := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		d.b = append(d.b, byte(u>>(8*i)))
	}
}

func (d *solverDigest) add(a *Allocation, err error) {
	if err != nil {
		d.b = append(d.b, 'E')
		d.b = append(d.b, err.Error()...)
		return
	}
	d.b = append(d.b, 'A', byte(len(a.P)))
	for _, p := range a.P {
		d.f64(p)
	}
	d.f64(float64(a.TX))
	d.f64(float64(a.RX))
	d.f64(a.Bits)
}

func (d *solverDigest) sum() uint64 {
	h := fnv.New64a()
	h.Write(d.b)
	return h.Sum64()
}

// TestGoldenSolverDigest runs Optimize, SolveEq1, BestSingleMode and
// OptimizeQoS over the batch differential corpus (characterized links,
// some out of range), randomized rows of 2–4 links, and rows that each
// solver must reject, and compares the digest with the pinned value.
func TestGoldenSolverDigest(t *testing.T) {
	var rows [][]phy.ModeLink
	var e1s, e2s []units.Joule
	var s BatchScratch
	brng := batchRNG(0x51f15eed)
	for k, links := range fillBatch(&s, phy.NewModel(), &brng, 100) {
		rows = append(rows, links)
		e1s, e2s = append(e1s, s.E1[k]), append(e2s, s.E2[k])
	}
	stream := rng.New(12)
	for i := 0; i < 200; i++ {
		rows = append(rows, randomLinks(stream))
		e1, e2 := randomBudgets(stream)
		e1s, e2s = append(e1s, e1), append(e2s, e2)
	}
	good := phy.NewModel().Characterize(0.5)
	dead := append([]phy.ModeLink(nil), good...)
	dead[1].T = units.JoulesPerBit(math.Inf(1))
	rows = append(rows, good, dead, nil)
	e1s, e2s = append(e1s, 0, 10, 10), append(e2s, 10, 10, 10)

	minRates := []units.BitRate{0, 5e3, 5e4, 2e5, 2e6}
	var d solverDigest
	for i, links := range rows {
		e1, e2 := e1s[i], e2s[i]
		d.add(Optimize(links, e1, e2))
		d.add(SolveEq1(links, e1, e2))
		d.add(BestSingleMode(links, e1, e2))
		d.add(OptimizeQoS(links, e1, e2, minRates[i%len(minRates)]))
	}
	got := d.sum()
	t.Logf("solver digest %#x over %d rows", got, len(rows))
	if got != goldenSolvers {
		t.Errorf("solver digest %#x, pinned %#x", got, uint64(goldenSolvers))
	}
}
