//go:build !race

package hub

import (
	"testing"

	"braidio/internal/obs"
)

// TestHubRunSteadyStateAllocs gates the reused-scratch claim: once a
// run's fixed setup (the hub's network, its Result, the scratch
// warm-up) is paid, additional rounds must be allocation-free. Before
// per-member scratch was reused, every member-round built a fresh
// core.Braid, schedule buffers, and a ModeBits map (~11 allocs per
// member-round); the gate pins the
// steady-state at effectively zero. Excluded under -race (the detector
// instruments allocations) and run at Workers=1 (par.For spawns
// goroutines, which allocate, at higher counts — worker goroutine cost
// is bounded per round, not per member, and is not what this gate
// measures).
func TestHubRunSteadyStateAllocs(t *testing.T) {
	run := func(rounds int) float64 {
		return testing.AllocsPerRun(20, func() {
			h := bodyNetwork(t)
			h.Workers = 1
			if _, err := h.Run(3600, rounds); err != nil {
				t.Fatal(err)
			}
		})
	}
	const extra = 100
	short := run(5)
	long := run(5 + extra)
	perRound := (long - short) / extra
	t.Logf("fixed setup ≈ %.0f allocs; steady-state ≈ %.3f allocs/round (%d members)", short, perRound, 3)
	if perRound > 0.5 {
		t.Errorf("steady-state allocations: %.2f allocs/round, want ~0 (scratch reuse regressed)", perRound)
	}
}

// TestHubRunSteadyStateAllocsInstrumented is the same gate with a
// metrics recorder attached: the instrumented hot path must add zero
// steady-state allocations per round — every record primitive is an
// atomic add into preallocated storage.
func TestHubRunSteadyStateAllocsInstrumented(t *testing.T) {
	rec := obs.NewRecorder()
	run := func(rounds int) float64 {
		return testing.AllocsPerRun(20, func() {
			h := bodyNetwork(t)
			h.Workers = 1
			h.Obs = rec
			if _, err := h.Run(3600, rounds); err != nil {
				t.Fatal(err)
			}
		})
	}
	const extra = 100
	short := run(5)
	long := run(5 + extra)
	perRound := (long - short) / extra
	t.Logf("instrumented: fixed setup ≈ %.0f allocs; steady-state ≈ %.3f allocs/round", short, perRound)
	if perRound > 0.5 {
		t.Errorf("instrumented steady-state allocations: %.2f allocs/round, want ~0", perRound)
	}
}
