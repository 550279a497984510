package hub

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"braidio/internal/field"
	"braidio/internal/net"
	"braidio/internal/units"
)

// goldenIsolatedCorpus pins the digest over every star Run in
// TestDisabledPathMatchesIsolatedHubs's corpus, keyed by trial count
// (-short runs 60 topologies, the full wall 500). The differential test
// compares one engine with itself once hub.Run is a one-hub net run, so
// only these absolute values catch both sides drifting together.
// Pinned on linux/amd64 before the engines were merged.
var goldenIsolatedCorpus = map[int]uint64{
	60:  0xee76dfc26b48a43b,
	500: 0x2e7de930a19f5bc8,
}

// randomTopology draws the differential corpus: 2–4 hubs scattered over
// a 40 m court, 1–3 members each at arm's reach, a quarter of them
// camped near a foreign hub. It draws exactly the sequence net's
// property tests draw, so the corpus is the one the pins were taken on.
func randomTopology(r *rand.Rand, t testing.TB) *net.Topology {
	hubDev := dev(t, "iPhone 6S")
	watch := dev(t, "Apple Watch")
	nh := 2 + r.Intn(3)
	hubPos := make([]field.Vec2, nh)
	for h := range hubPos {
		hubPos[h] = field.Vec2{X: 40 * r.Float64(), Y: 40 * r.Float64()}
	}
	topo := &net.Topology{Hubs: make([]net.Hub, nh)}
	for h := 0; h < nh; h++ {
		nm := 1 + r.Intn(3)
		members := make([]net.Member, nm)
		for j := 0; j < nm; j++ {
			anchor := hubPos[h]
			if r.Float64() < 0.25 {
				anchor = hubPos[(h+1+r.Intn(nh-1))%nh]
			}
			rad := 0.2 + 1.8*r.Float64()
			ang := 2 * math.Pi * r.Float64()
			members[j] = net.Member{
				Device: watch,
				Pos:    field.Vec2{X: anchor.X + rad*math.Cos(ang), Y: anchor.Y + rad*math.Sin(ang)},
				Load:   units.BitRate(1000 + r.Intn(50000)),
			}
		}
		topo.Hubs[h] = net.Hub{Device: hubDev, Pos: hubPos[h], Members: members}
	}
	return topo
}

// clampDist applies net's near-field floor to a derived distance.
func clampDist(d float64) units.Meter {
	if !(d > float64(net.MinDistance)) {
		return net.MinDistance
	}
	return units.Meter(d)
}

// TestDisabledPathMatchesIsolatedHubs: with interference, carrier
// sharing, and relays all disabled, a multi-hub net Run's per-hub
// arithmetic is bit-for-bit an isolated hub.Run per hub — same
// canonical link slices, same allocation-memo behavior, same commit
// order, same starve/strike/replan/death bookkeeping — across
// randomized topologies: with the couplings off, hubs do not interact.
func TestDisabledPathMatchesIsolatedHubs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const (
		horizon = units.Second(1800)
		rounds  = 6
	)
	trials := 500
	if testing.Short() {
		trials = 60
	}
	corpus := fnv.New64a()
	var buf [8]byte
	for trial := 0; trial < trials; trial++ {
		topo := randomTopology(r, t)
		n, err := net.New(topo, net.Config{
			Workers:             1 + trial%8,
			DisableInterference: true,
			DisableCarrierShare: true,
			DisableRelay:        true,
		})
		if err != nil {
			t.Fatalf("trial %d: net.New: %v", trial, err)
		}
		res, err := n.Run(horizon, rounds)
		if err != nil {
			t.Fatalf("trial %d: net Run: %v", trial, err)
		}
		for h := range topo.Hubs {
			th := &topo.Hubs[h]
			star := New(th.Device, nil)
			skip := false
			for j := range th.Members {
				m := &th.Members[j]
				err := star.Add(Member{
					Device:   m.Device,
					Distance: clampDist(m.Pos.Dist(th.Pos)),
					Load:     m.Load,
				})
				if err != nil {
					// A member out of every mode's range: Add refuses up
					// front, the network quarantines it after striking
					// out. Skip the star twin.
					skip = true
				}
			}
			if skip {
				continue
			}
			want, err := star.Run(horizon, rounds)
			if err != nil {
				t.Fatalf("trial %d hub %d: star run: %v", trial, h, err)
			}
			d := resultDigest(want)
			for i := range buf {
				buf[i] = byte(d >> (8 * i))
			}
			corpus.Write(buf[:])
			got := &res.Hubs[h]
			bitsEq := func(field string, a, b float64) {
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("trial %d hub %d: %s = %v, star %v", trial, h, field, a, b)
				}
			}
			bitsEq("Drain", float64(got.Drain), float64(want.HubDrain))
			if got.Exhausted != want.HubExhausted || got.DiedRound != want.HubDiedRound {
				t.Errorf("trial %d hub %d: death (%v, %d) vs star (%v, %d)",
					trial, h, got.Exhausted, got.DiedRound, want.HubExhausted, want.HubDiedRound)
			}
			if got.Replans != want.Replans || got.LPSolves != want.LPSolves || got.AllocReuses != want.AllocReuses {
				t.Errorf("trial %d hub %d: solver counters (%d, %d, %d) vs star (%d, %d, %d)",
					trial, h, got.Replans, got.LPSolves, got.AllocReuses,
					want.Replans, want.LPSolves, want.AllocReuses)
			}
			for j := range got.Members {
				gm, wm := &got.Members[j], &want.Members[j]
				bitsEq("member bits", gm.Bits, wm.Bits)
				bitsEq("member drain", float64(gm.MemberDrain), float64(wm.MemberDrain))
				bitsEq("hub drain", float64(gm.HubDrain), float64(wm.HubDrain))
				for mode := range gm.ModeBits {
					bitsEq("mode bits", gm.ModeBits[mode], wm.ModeBits[mode])
				}
				if gm.RelayBits != 0 || gm.ViaDrain != 0 || gm.SharedRounds != 0 || gm.InterferedRounds != 0 {
					t.Errorf("trial %d hub %d member %d: disabled run recorded couplings: %+v", trial, h, j, gm)
				}
				if gm.Starved != wm.Starved || gm.Quarantined != wm.Quarantined {
					t.Errorf("trial %d hub %d member %d: flags (%v, %v) vs star (%v, %v)",
						trial, h, j, gm.Starved, gm.Quarantined, wm.Starved, wm.Quarantined)
				}
				if gm.Quarantined && gm.QuarantinedRound != wm.QuarantinedRound {
					t.Errorf("trial %d hub %d member %d: quarantined round %d vs star %d",
						trial, h, j, gm.QuarantinedRound, wm.QuarantinedRound)
				}
			}
		}
		if res.RelayRounds != 0 || res.SharedRounds != 0 || res.InterferedRounds != 0 || res.RelayBits != 0 {
			t.Fatalf("trial %d: disabled run recorded network couplings: %+v", trial, res)
		}
	}
	got := corpus.Sum64()
	t.Logf("%d trials: corpus digest %#x", trials, got)
	if want, ok := goldenIsolatedCorpus[trials]; !ok || got != want {
		t.Errorf("%d trials: corpus digest %#x, pinned %#x", trials, got, want)
	}
}
