package hub

import (
	"reflect"
	"testing"

	"braidio/internal/energy"
	"braidio/internal/faults"
	"braidio/internal/rng"
	"braidio/internal/sim"
)

// buildMixedHub assembles a hub exercising every planning path at once:
// static members, a deterministic wanderer, a random-waypoint walker
// with its own rng stream, dropout and Gilbert-Elliott fault injectors,
// and a QoS-floored member. Walk and Faults state is stateful, so the
// hub is rebuilt from scratch for every run.
func buildMixedHub(t testing.TB, workers int) *Hub {
	t.Helper()
	h := New(dev(t, "iPhone 6S"), nil)
	h.Workers = workers
	members := []Member{
		{Device: dev(t, "Nike Fuel Band"), Distance: 0.4, Load: 1000},
		{Device: dev(t, "Apple Watch"), Distance: 0.4, Load: 5000},
		{Device: dev(t, "Pivothead"), Distance: 0.6, Load: 200000},
		{
			Device:   dev(t, "Apple Watch"),
			Distance: 0.6,
			Walk:     sim.LinearWalk{Start: 0.6, End: 2000, Duration: 1800},
			Load:     100000,
		},
		{
			Device:   dev(t, "Nike Fuel Band"),
			Distance: 0.5,
			Walk:     sim.NewRandomWaypoint(0.2, 2.5, 0.5, 30, rng.New(77)),
			Load:     20000,
		},
		{
			Device:   dev(t, "Apple Watch"),
			Distance: 0.4,
			Load:     5000,
			Faults:   &faults.Dropout{Start: 0, Period: 900, Duration: 300},
		},
		{
			Device:   dev(t, "Apple Watch"),
			Distance: 0.5,
			Load:     4000,
			Faults:   faults.NewGilbertElliott(0.2, 0.5, 0, 0.4, 99),
		},
		{Device: dev(t, "Nike Fuel Band"), Distance: 2.0, Load: 50000, MinRate: 300000},
	}
	for _, m := range members {
		if err := h.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// normalize strips the fields that cannot be compared structurally
// across independently built hubs: the embedded Member (its Walk/Faults
// pointers differ per build) and the error values (compared as
// strings). Everything else — every float, counter, and mode-bit map —
// must match to the bit.
func normalize(r *Result) (*Result, []string) {
	cp := *r
	cp.Members = make([]MemberResult, len(r.Members))
	errs := make([]string, len(r.Members))
	for i, m := range r.Members {
		cp.Members[i] = m
		cp.Members[i].Member = Member{}
		cp.Members[i].Err = nil
		if m.Err != nil {
			errs[i] = m.Err.Error()
		}
	}
	return &cp, errs
}

// TestHubRunParallelBitIdentical is the tentpole's golden test: the
// two-phase engine must produce bit-identical Results at any worker
// count, across static, mobile, fault-injected, and QoS members. This
// is what licenses every parallel-speedup claim the fleet engine makes.
func TestHubRunParallelBitIdentical(t *testing.T) {
	const horizon, rounds = 3600, 24
	ref, err := buildMixedHub(t, 1).Run(horizon, rounds)
	if err != nil {
		t.Fatal(err)
	}
	refNorm, refErrs := normalize(ref)
	if ref.TotalBits() <= 0 {
		t.Fatal("reference run delivered nothing; test is vacuous")
	}
	for _, workers := range []int{2, 8} {
		got, err := buildMixedHub(t, workers).Run(horizon, rounds)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		gotNorm, gotErrs := normalize(got)
		if !reflect.DeepEqual(refNorm, gotNorm) {
			t.Errorf("workers=%d: Result diverged from sequential run:\n got %+v\nwant %+v",
				workers, gotNorm, refNorm)
		}
		if !reflect.DeepEqual(refErrs, gotErrs) {
			t.Errorf("workers=%d: member errors diverged:\n got %v\nwant %v", workers, gotErrs, refErrs)
		}
	}
}

// TestHubRunRepeatIdentical: the same hub configuration rebuilt and
// re-run must reproduce itself exactly — scratch from a previous run
// (including a different test's run) must never leak into results.
func TestHubRunRepeatIdentical(t *testing.T) {
	const horizon, rounds = 1800, 12
	a, err := buildMixedHub(t, 4).Run(horizon, rounds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildMixedHub(t, 4).Run(horizon, rounds)
	if err != nil {
		t.Fatal(err)
	}
	aN, aE := normalize(a)
	bN, bE := normalize(b)
	if !reflect.DeepEqual(aN, bN) || !reflect.DeepEqual(aE, bE) {
		t.Errorf("identical rebuilt runs diverged:\n got %+v\nwant %+v", bN, aN)
	}
}

// TestHubRunReusesNetwork: repeated runs of one hub reuse its network
// and reproduce the first run exactly, a changed Workers count keeps
// the Result, and Add drops the network so the next run serves the new
// roster.
func TestHubRunReusesNetwork(t *testing.T) {
	h := bodyNetwork(t)
	h.Workers = 1
	first, err := h.Run(3600, 12)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := normalize(first)
	for _, workers := range []int{1, 4} {
		h.Workers = workers
		again, err := h.Run(3600, 12)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := normalize(again); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: rerun diverged:\n got %+v\nwant %+v", workers, got, want)
		}
	}
	if err := h.Add(Member{Device: dev(t, "Apple Watch"), Distance: 0.5, Load: 2000}); err != nil {
		t.Fatal(err)
	}
	grown, err := h.Run(3600, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(grown.Members) != 4 || grown.Members[3].Bits <= 0 {
		t.Errorf("after Add: %d members, new member delivered %v bits", len(grown.Members), grown.Members[len(grown.Members)-1].Bits)
	}
}

// TestHubDiedRoundAccounting: a hub sized to die mid-run records the
// fatal round, and the death is checked after every member commit — the
// members after the fatal drain in that round deliver nothing further.
func TestHubDiedRoundAccounting(t *testing.T) {
	build := func(workers int) *Hub {
		tiny := energy.Device{Name: "dying-hub", Capacity: 0.00002, Class: "custom"}
		h := New(tiny, nil)
		h.Workers = workers
		for _, m := range []Member{
			{Device: dev(t, "Apple Watch"), Distance: 0.4, Load: 500000},
			{Device: dev(t, "Nike Fuel Band"), Distance: 0.4, Load: 500000},
		} {
			if err := h.Add(m); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	res, err := build(1).Run(3600, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HubExhausted {
		t.Fatal("20 µWh hub survived two 500 kbit/s members; test is vacuous")
	}
	if res.HubDiedRound < 0 || res.HubDiedRound >= 12 {
		t.Errorf("HubDiedRound = %d, want a round in [0,12)", res.HubDiedRound)
	}
	for _, workers := range []int{2, 8} {
		par, err := build(workers).Run(3600, 12)
		if err != nil {
			t.Fatal(err)
		}
		if par.HubDiedRound != res.HubDiedRound {
			t.Errorf("workers=%d: HubDiedRound = %d, want %d", workers, par.HubDiedRound, res.HubDiedRound)
		}
	}

	// A comfortably provisioned hub must report -1.
	healthy, err := bodyNetwork(t).Run(3600, 12)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.HubDiedRound != -1 {
		t.Errorf("healthy hub HubDiedRound = %d, want -1", healthy.HubDiedRound)
	}
}
