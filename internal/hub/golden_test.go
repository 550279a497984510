package hub

import (
	"hash/fnv"
	"math"
	"testing"
)

// goldenMixedHub pins the Result of buildMixedHub's run: the parallel
// tests compare worker counts with each other, so only an absolute
// digest catches the whole engine drifting together. Pinned on
// linux/amd64; if an intentional engine change moves it, re-pin it in
// the same commit and say why in the message.
const goldenMixedHub = 0x81ff1a6df5cc17ce

// resultDigest is an FNV-1a digest over every field of a Result except
// the embedded Member configurations: totals, counters, per-member
// outcomes, and error text.
func resultDigest(r *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	f(float64(r.Horizon))
	f(float64(r.HubDrain))
	b(r.HubExhausted)
	u(uint64(r.Quarantines))
	u(uint64(r.OutageRounds))
	u(uint64(r.LPSolves))
	u(uint64(r.AllocReuses))
	u(uint64(int64(r.HubDiedRound)))
	u(uint64(r.Replans))
	u(uint64(len(r.Members)))
	for i := range r.Members {
		m := &r.Members[i]
		f(m.Bits)
		f(float64(m.MemberDrain))
		f(float64(m.HubDrain))
		for _, mb := range m.ModeBits {
			f(mb)
		}
		b(m.Starved)
		b(m.Quarantined)
		u(uint64(int64(m.QuarantinedRound)))
		u(uint64(m.OutageRounds))
		if m.Err != nil {
			h.Write([]byte(m.Err.Error()))
		}
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// TestGoldenMixedHubDigest runs the mixed hub (static, mobile,
// fault-injected and QoS members) at several worker counts and compares
// each Result's digest with the pinned value.
func TestGoldenMixedHubDigest(t *testing.T) {
	const horizon, rounds = 3600, 24
	for _, workers := range []int{1, 2, 8} {
		res, err := buildMixedHub(t, workers).Run(horizon, rounds)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalBits() <= 0 {
			t.Fatal("mixed hub delivered nothing; test is vacuous")
		}
		got := resultDigest(res)
		t.Logf("workers=%d: digest %#x", workers, got)
		if got != goldenMixedHub {
			t.Errorf("workers=%d: digest %#x, pinned %#x", workers, got, uint64(goldenMixedHub))
		}
	}
}
