package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"braidio/internal/energy"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// TestBraidDegenerateAllocation: a custom optimizer handing back
// zero-cost links used to make maxWin NaN/Inf, drain nothing, and spin
// until the opaque convergence failure; now it fails fast with a typed
// error.
func TestBraidDegenerateAllocation(t *testing.T) {
	b := NewBraid(phy.NewModel(), 0.3)
	b.Optimizer = func(links []phy.ModeLink, e1, e2 units.Joule) (*Allocation, error) {
		free := []phy.ModeLink{{Mode: phy.ModeActive, Rate: units.Rate1M, Good: units.Rate1M, T: 0, R: 0}}
		return &Allocation{Links: free, P: []float64{1}, Bits: 1e12}, nil
	}
	_, err := b.RunFresh(0.001, 0.001)
	if !errors.Is(err, ErrDegenerateAllocation) {
		t.Fatalf("err = %v, want ErrDegenerateAllocation", err)
	}
}

// TestBraidSwitchCountRounding: fractional windows must not truncate the
// switch count to zero while SwitchEnergy still charges the fractional
// cost. Run exactly half a window of a forced two-mode mix: one block
// transition at 0.5 windows rounds to one switch.
func TestBraidSwitchCountRounding(t *testing.T) {
	m := phy.NewModel()
	b := NewBraid(m, 0.3)
	b.Optimizer = func(links []phy.ModeLink, e1, e2 units.Joule) (*Allocation, error) {
		if len(links) < 2 {
			t.Fatal("need two links")
		}
		p := make([]float64, len(links))
		p[0], p[1] = 0.5, 0.5
		a := &Allocation{Links: links, P: p}
		a.TX, a.RX = mixture(linkCosts(links, new(rowBuf)), p)
		a.Bits = bitsFor(a.TX, a.RX, e1, e2)
		return a, nil
	}
	b.MaxBits = float64(8*m.PayloadLen) * float64(b.ScheduleWindow) * 0.5
	res, err := b.RunFresh(0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwitchEnergy1 <= 0 {
		t.Fatal("no switch energy charged — test setup broken")
	}
	if res.Switches < 1 {
		t.Errorf("Switches = %d with switch energy %v charged: fractional windows truncated",
			res.Switches, res.SwitchEnergy1)
	}
}

// sameResult compares two braid results bit-for-bit.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Bits != b.Bits || a.Duration != b.Duration ||
		a.Drain1 != b.Drain1 || a.Drain2 != b.Drain2 ||
		a.Switches != b.Switches ||
		a.SwitchEnergy1 != b.SwitchEnergy1 || a.SwitchEnergy2 != b.SwitchEnergy2 ||
		a.Epochs != b.Epochs || !reflect.DeepEqual(a.ModeBits, b.ModeBits) {
		t.Errorf("%s: results differ:\n  memo on:  %+v\n  memo off: %+v", label, a, b)
	}
}

// TestBraidMemoBitIdentical: at tolerance 0 the allocation memo may only
// fire when the battery ratio is bit-identical, so every observable of a
// run must match an unmemoized run exactly — across regimes and battery
// asymmetries.
func TestBraidMemoBitIdentical(t *testing.T) {
	m := phy.NewModel()
	for _, tc := range []struct {
		name   string
		d      units.Meter
		c1, c2 units.WattHour
	}{
		{"regimeA-balanced", 0.3, 0.002, 0.002},
		{"regimeA-asymmetric", 0.5, 0.01, 0.0005},
		{"regimeA-reverse", 0.5, 0.0005, 0.01},
		{"regimeB", 3, 0.004, 0.001},
		{"regimeC", 10, 0.002, 0.002},
	} {
		on := NewBraid(m, tc.d)
		off := NewBraid(m, tc.d)
		off.DisableAllocationMemo = true
		rOn, errOn := on.RunFresh(tc.c1, tc.c2)
		rOff, errOff := off.RunFresh(tc.c1, tc.c2)
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("%s: error mismatch %v vs %v", tc.name, errOn, errOff)
		}
		if errOn != nil {
			continue
		}
		sameResult(t, tc.name, rOn, rOff)
		if rOn.LPSolves+rOn.AllocReuses != rOn.Epochs {
			t.Errorf("%s: LPSolves %d + AllocReuses %d != Epochs %d",
				tc.name, rOn.LPSolves, rOn.AllocReuses, rOn.Epochs)
		}
		if rOff.AllocReuses != 0 {
			t.Errorf("%s: memo-off run reused %d allocations", tc.name, rOff.AllocReuses)
		}
	}
}

// TestBraidToleranceReducesSolves: a positive tolerance must reuse
// allocations across ratio drift, cutting solver invocations while
// staying close to the exact answer.
func TestBraidToleranceReducesSolves(t *testing.T) {
	m := phy.NewModel()
	exact := NewBraid(m, 0.5)
	loose := NewBraid(m, 0.5)
	loose.AllocationTolerance = 0.05
	re, err := exact.RunFresh(0.01, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := loose.RunFresh(0.01, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if rl.LPSolves >= re.LPSolves {
		t.Errorf("tolerance 0.05 solved %d LPs, exact solved %d — no reuse", rl.LPSolves, re.LPSolves)
	}
	if rl.AllocReuses == 0 {
		t.Error("tolerance 0.05 never reused an allocation")
	}
	if diff := math.Abs(rl.Bits-re.Bits) / re.Bits; diff > 0.01 {
		t.Errorf("tolerant run delivered %v bits vs exact %v (%.2f%% off)", rl.Bits, re.Bits, 100*diff)
	}
}

// TestRatioWithin pins the memo-reuse predicate, in particular the
// drained-endpoint path: a zero memoized ratio used to make tol·memo
// zero, silently demanding exact equality and defeating reuse for
// fully-drained hubs. The tolerance must also be symmetric — the
// verdict cannot depend on which value happens to be the memo.
func TestRatioWithin(t *testing.T) {
	cases := []struct {
		name string
		a, b float64
		tol  float64
		want bool
	}{
		{"identical, zero tol", 1.5, 1.5, 0, true},
		{"different, zero tol", 1.5, 1.5000001, 0, false},
		{"within 5%", 1.0, 1.04, 0.05, true},
		{"outside 5%", 1.0, 1.06, 0.05, false},
		{"both drained", 0, 0, 0.05, true},
		{"both drained, zero tol", 0, 0, 0, true},
		{"drained memo vs live ratio", 0, 0.5, 0.05, false},
		{"near-drained pair within tol", 1e-12, 1.04e-12, 0.05, true},
		{"near-drained pair outside tol", 1e-12, 2e-12, 0.05, false},
	}
	for _, tc := range cases {
		if got := RatioWithin(tc.a, tc.b, tc.tol); got != tc.want {
			t.Errorf("%s: RatioWithin(%v, %v, %v) = %v, want %v", tc.name, tc.a, tc.b, tc.tol, got, tc.want)
		}
		if fwd, rev := RatioWithin(tc.a, tc.b, tc.tol), RatioWithin(tc.b, tc.a, tc.tol); fwd != rev {
			t.Errorf("%s: asymmetric verdict: (a,b)=%v but (b,a)=%v", tc.name, fwd, rev)
		}
	}
}

// TestRunIntoMemoReadsLinkValues: the cross-run allocation memo keys on
// the links' values, not their address. Rewriting the caller's link
// buffer in place with another distance's links between two runs on one
// scratch must force a re-solve, and the second run must equal a run on
// a fresh scratch.
func TestRunIntoMemoReadsLinkValues(t *testing.T) {
	m := phy.NewModel()
	buf := m.CharacterizeInto(make([]phy.ModeLink, 0, phy.NumModes), 0.4)
	b := NewBraid(m, 0.4)
	b.MaxBits = 1e5
	b.AllocationTolerance = 0.05 // the second run starts inside the memo's tolerance
	b.Links = buf
	var s RunScratch
	var first, second, want Result
	if err := b.RunInto(&first, &s, energy.NewBattery(0.05), energy.NewBattery(0.8)); err != nil {
		t.Fatal(err)
	}
	moved := m.CharacterizeInto(buf[:0], 1.2)
	if &moved[0] != &buf[0] || len(moved) != len(buf) || reflect.DeepEqual(moved, m.Characterize(0.4)) {
		t.Fatal("test setup: the rewrite must keep the buffer and its length but change the values")
	}
	b.Distance, b.Links = 1.2, moved
	if err := b.RunInto(&second, &s, energy.NewBattery(0.05), energy.NewBattery(0.8)); err != nil {
		t.Fatal(err)
	}
	if err := b.RunInto(&want, &RunScratch{}, energy.NewBattery(0.05), energy.NewBattery(0.8)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, want) {
		t.Errorf("run after an in-place link rewrite reused the stale allocation:\n got %+v\nwant %+v", second, want)
	}
}
