package hub

import (
	"fmt"
	"testing"

	"braidio/internal/obs"
	"braidio/internal/sim"
)

// TestToleranceRunRepeatsExactly: a tolerance run whose walker visits
// thousands of distinct distances must repeat exactly in-process. Its
// allocation reuse may depend only on the values each member's links
// were built from — never on which link slices some earlier run left
// behind — so six identical runs give byte-identical Results and
// canonical snapshots, solve and reuse counts included.
func TestToleranceRunRepeatsExactly(t *testing.T) {
	const rounds = 12000
	const horizon = rounds * 60
	run := func() (uint64, string) {
		rec := obs.NewRecorder()
		h := New(dev(t, "iPhone 6S"), nil)
		h.Workers = 1
		h.AllocationTolerance = 0.05
		h.Obs = rec
		if err := h.Add(Member{Device: dev(t, "Apple Watch"), Distance: 0.5, Load: 50}); err != nil {
			t.Fatal(err)
		}
		walk := sim.LinearWalk{Start: 0.3, End: 2.5, Duration: horizon}
		if err := h.Add(Member{Device: dev(t, "Pebble Watch"), Distance: 0.3, Walk: walk, Load: 50}); err != nil {
			t.Fatal(err)
		}
		res, err := h.Run(horizon, rounds)
		if err != nil {
			t.Fatal(err)
		}
		return resultDigest(res), fmt.Sprintf("%+v", rec.Snapshot().Canonical())
	}
	wantDigest, wantSnap := run()
	for i := 1; i < 6; i++ {
		digest, snap := run()
		if digest != wantDigest {
			t.Errorf("run %d: Result digest %#x, first run %#x", i, digest, wantDigest)
		}
		if snap != wantSnap {
			t.Errorf("run %d: canonical snapshot diverged:\n got %s\nwant %s", i, snap, wantSnap)
		}
	}
}
