// Serve engine benchmarks: warm drift-only epoch throughput and the
// contention profile of /v1/plan reads racing a running epoch — the
// numbers the sharded member state exists to move. The shards=1
// sub-benchmarks approximate the pre-shard single-lock engine (one
// shard's lock serializes exactly what the global mutex used to), so
// the shards=16 deltas measure the sharding win directly.

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"braidio/internal/units"
)

// benchEngine registers n members and runs the cold bulk plan, leaving
// a warm arena and a fully planned membership.
func benchEngine(b *testing.B, shards, workers, n int) *Engine {
	b.Helper()
	cfg := Config{
		Shards:            shards,
		Workers:           workers,
		RatioTolerance:    0.05,
		DistanceTolerance: 0.05,
		Window:            64,
		HubEnergy:         10,
		QueueCap:          2*n + 1024,
	}
	e := NewEngine(cfg)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("m%d", i)
		if err := e.Register(id, units.Joule(0.4+0.01*float64(i%40)), units.Meter(0.5+0.015*float64(i%200))); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := e.RunEpoch(); err != nil {
		b.Fatal(err)
	}
	return e
}

// driftEpoch pushes the members in [lo, lo+k) past tolerance (flipping
// between two energy levels so every round re-dirties) and runs one
// epoch.
func driftEpoch(b *testing.B, e *Engine, round, lo, k int) {
	updateRange(b, e, round, lo, k, 0.5)
	if _, err := e.RunEpoch(); err != nil {
		b.Fatal(err)
	}
}

// updateRange admits updates for members [lo, lo+k) at scale× their
// registration energy (alternating back on odd rounds); 0.5 drifts past
// the 5% tolerance, 1.004 jitters within it.
func updateRange(b *testing.B, e *Engine, round, lo, k int, scale float64) {
	if round%2 == 1 {
		scale = 1 / scale
	}
	for i := lo; i < lo+k; i++ {
		energy := (0.4 + 0.01*float64(i%40)) * scale
		if err := e.Update(fmt.Sprintf("m%d", i), units.Joule(energy), units.Meter(0.5+0.015*float64(i%200))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeEpochWarmDrift is the steady-state epoch: 50k members,
// 1% drifting per round, everyone else served by their existing plan.
func BenchmarkServeEpochWarmDrift(b *testing.B) {
	const n, k = 50_000, 500
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := benchEngine(b, shards, 0, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				driftEpoch(b, e, i, 0, k)
			}
		})
	}
}

// BenchmarkServeAdmitBody is the daemon's write path for one request:
// a 1000-entry /v1/update body through Server.Handler() — decode,
// admission, and the journal's op records (on io.Discard, so only the
// encoding is timed). The queue is drained by an untimed epoch before
// it would shed.
func BenchmarkServeAdmitBody(b *testing.B) {
	const n = 1000
	e := benchEngine(b, 1, 1, n)
	e.AttachJournal(NewJournal(io.Discard, e.Config()))
	reqs := make([]DeviceRequest, n)
	for i := range reqs {
		reqs[i] = DeviceRequest{
			ID:        fmt.Sprintf("m%d", i),
			EnergyJ:   (0.4 + 0.01*float64(i%40)) * 1.004,
			DistanceM: 0.5 + 0.015*float64(i%200),
		}
	}
	body, err := json.Marshal(reqs)
	if err != nil {
		b.Fatal(err)
	}
	h := (&Server{Engine: e}).Handler()
	queued := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if queued+n > e.Config().QueueCap {
			b.StopTimer()
			if _, err := e.RunEpoch(); err != nil {
				b.Fatal(err)
			}
			queued = 0
			b.StartTimer()
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(body)))
		if w.Code != http.StatusAccepted {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
		queued += n
	}
}

// BenchmarkJournalOp is one admitted operation's journal record: the
// JSON encoding, its CRC frame, and the buffered write.
func BenchmarkJournalOp(b *testing.B) {
	j := NewJournal(io.Discard, testConfig(nil))
	o := op{kind: opUpdate, id: "m48213", energy: 0.41642, distance: 2.2250000000000005}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.mu.Lock()
		j.opLocked(&o)
		j.mu.Unlock()
	}
	if err := j.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServePlanReadDuringEpoch measures GET /v1/plan's engine path
// (PlanFor) issued while RunEpoch's apply phase holds a member-state
// write lock — the reader stall the single global lock caused and
// sharding removes. Each iteration admits a 50k-member jitter wave
// (within tolerance, so the epoch is pure apply — the phase that must
// hold the write lock), starts the epoch, waits until the apply stage
// actually holds some shard's write lock, and times one read against
// that shard. With one shard the read waits out the rest of a 50k-op
// critical section; with 16 shards only that shard's ~3k slice.
//
// Workers is pinned to 1 so lock granularity is the only variable
// between the configs, and GOMAXPROCS is raised to at least 2 so the
// probe goroutine interleaves with the apply stage even on a single
// CPU (kernel preemption between the two OS threads). Reads that miss
// every apply window (the epoch finished first) are skipped, not
// counted. Reports stalled-read p50/p99 in ns and the hit rate.
func BenchmarkServePlanReadDuringEpoch(b *testing.B) {
	const n, wave = 100_000, 50_000
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := benchEngine(b, shards, 1, n)
			// One probe member per shard, so whichever shard the apply
			// stage is holding can be read through.
			probes := make([]string, len(e.shards))
			found := 0
			for i := 0; i < n && found < len(probes); i++ {
				id := fmt.Sprintf("m%d", i)
				for si, s := range e.shards {
					if probes[si] == "" && e.shardFor(id) == s {
						probes[si] = id
						found++
						break
					}
				}
			}
			if found < len(probes) {
				b.Fatal("some shard has no probe member")
			}
			lat := make([]float64, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				updateRange(b, e, i, 0, wave, 1.004)
				var epochDone atomic.Bool
				done := make(chan error, 1)
				go func() {
					_, err := e.RunEpoch()
					epochDone.Store(true)
					done <- err
				}()
				// Spin until the apply stage holds a shard's write lock,
				// then read through it. TryRLock fails exactly while a
				// writer holds (or waits for) the lock.
			spin:
				for !epochDone.Load() {
					for si, s := range e.shards {
						if s.mu.TryRLock() {
							s.mu.RUnlock()
							continue
						}
						t0 := time.Now()
						if _, ok := e.PlanFor(probes[si]); !ok {
							b.Fatalf("no plan for %s", probes[si])
						}
						lat = append(lat, float64(time.Since(t0)))
						break spin
					}
					runtime.Gosched()
				}
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if len(lat) == 0 {
				// Too few iterations to land a read in an apply window
				// (1x smoke runs); nothing to report.
				return
			}
			sort.Float64s(lat)
			b.ReportMetric(planQuantile(lat, 0.50), "p50-stall-ns")
			b.ReportMetric(planQuantile(lat, 0.99), "p99-stall-ns")
			b.ReportMetric(float64(len(lat))/float64(b.N), "hit-rate")
		})
	}
}
