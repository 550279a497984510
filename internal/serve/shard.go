// Sharded member state: the engine's membership is striped into a
// power-of-two number of shards selected by a SplitMix64-mixed hash of
// the member id. Each shard owns its members' inputs, dirty flags, and
// committed plans behind its own RWMutex, so admission apply, plan
// commit, and HTTP plan reads contend only per shard — the global lock
// that used to serialize a million-member epoch against every
// /v1/plan read is reduced to hub-budget and epoch-counter bookkeeping.
//
// Epoch pipeline: RunEpoch routes the drained admission queue into
// per-shard op queues with a single sequenced router (admission order is
// preserved within a shard, and hub-budget ops are broadcast to every
// shard at their admission position, so each member observes exactly
// the op sequence it would have under a single lock). Shards then run
// apply → plan → commit independently over internal/par — shard A can
// be solving while shard B is still applying — each with its own
// core.BatchScratch arena. A final fold walks the planned jobs in
// global registration order (k-way merge over the shards' seq-sorted
// job lists), so the FNV-1a epoch digest is bit-identical to the
// single-lock engine's at any shard or worker count.

package serve

import (
	"fmt"
	"sync"
	"time"

	"braidio/internal/core"
	"braidio/internal/linkcache"
	"braidio/internal/par"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// shard owns one stripe of the membership. The mutex guards members,
// order, and every member's mutable fields; the stage scratch (ops,
// jobs, batch) is owned by the epoch pipeline, which runs at most one
// stage per shard at a time (under the engine's epochMu).
type shard struct {
	mu      sync.RWMutex
	members map[string]*member
	// order is the shard-local registration order — the subsequence of
	// the engine's global order that hashes here. Appended only by the
	// sequenced router, read by the apply and plan stages.
	order []*member

	// Epoch-stage scratch, reused across epochs. ops is this epoch's
	// routed admission slice; jobs the dirty set in shard order; batch
	// the shard's private column arena (its capacity survives epochs,
	// so a steady-state epoch allocates no arena storage).
	ops   []op
	jobs  []planJob
	batch core.BatchScratch

	// Per-epoch stage results, merged by RunEpoch after the pipeline
	// barrier: ops applied, plans committed, the first solve error in
	// shard order (with its member's global seq for cross-shard
	// ordering), and the stage latencies feeding the observability rings.
	applied     int
	planned     int
	firstErr    error
	firstErrSeq uint64
	applyEndNs  float64
	planNs      float64
}

// mix64 is SplitMix64's finalizer — a cheap, high-quality 64-bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// shardFor selects a member id's owning shard: FNV-1a over the id
// bytes, finalized through mix64 so sequential ids ("m1", "m2", ...)
// spread evenly, masked into the power-of-two shard table.
func (e *Engine) shardFor(id string) *shard {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return e.shards[mix64(h)&e.shardMask]
}

// dirtyAgainst reports whether fresh inputs have drifted out of
// tolerance from the member's planned inputs, against the hub budget at
// the op's sequence point. A member with no plan yet is always dirty.
func dirtyAgainst(m *member, hubE units.Joule, cfg *Config) bool {
	if !m.hasPlan {
		return true
	}
	ratio := float64(hubE) / float64(m.energy)
	if !core.RatioWithin(ratio, m.plan.Ratio, cfg.RatioTolerance) {
		return true
	}
	return !core.RatioWithin(float64(m.distance), m.plan.Distance, cfg.DistanceTolerance)
}

// runStage is one shard's slice of the epoch pipeline: apply the routed
// ops in admission order under the shard lock, collect the dirty set,
// solve it through the shard's private column arena with no lock held,
// and commit the plans back under the lock. hubE is the hub budget at
// epoch start; broadcast hub markers advance the local copy at their
// admission positions, so dirtiness is evaluated against exactly the
// budget a single-lock apply would have seen. workers bounds the
// intra-shard kernel parallelism (1 when the shard fan-out already
// saturates the pool).
func (s *shard) runStage(e *Engine, epoch uint64, hubE units.Joule, workers int, applyStart time.Time) {
	rec := e.cfg.Rec

	s.mu.Lock()
	localHub := hubE
	applied := 0
	for i := range s.ops {
		o := &s.ops[i]
		switch o.kind {
		case opRegister:
			// The router pre-created unknown ids, so the member always
			// exists; the first applied register makes it live.
			m := s.members[o.id]
			m.live = true
			m.energy, m.distance, m.dirty = o.energy, o.distance, true
			if rec != nil {
				rec.ServeRegisters.Add(1)
			}
			applied++
		case opUpdate:
			m, found := s.members[o.id]
			if !found || !m.live {
				continue // raced a shed register, or register not yet applied
			}
			m.energy, m.distance = o.energy, o.distance
			if !m.dirty {
				m.dirty = dirtyAgainst(m, localHub, &e.cfg)
			}
			if rec != nil {
				rec.ServeUpdates.Add(1)
			}
			applied++
		case opHub:
			// Broadcast marker: every member's ratio shares the hub
			// term, so recheck the whole stripe at this sequence point.
			// (Counted as applied once, by the router.)
			localHub = o.energy
			for _, m := range s.order {
				if m.live && !m.dirty {
					m.dirty = dirtyAgainst(m, localHub, &e.cfg)
				}
			}
		}
	}
	// Collect the dirty set in shard registration order and snapshot its
	// solve inputs, so planning can proceed without the lock.
	s.jobs = s.jobs[:0]
	for _, m := range s.order {
		if m.live && m.dirty {
			s.jobs = append(s.jobs, planJob{m: m, energy: m.energy, distance: m.distance})
		}
	}
	s.mu.Unlock()
	s.applied = applied
	s.applyEndNs = float64(time.Since(applyStart))
	s.ops = s.ops[:0]

	// Plan phase, lock-free: the shard's own arena reset, columnar
	// characterization, offload kernel, and plan construction into
	// index-owned job slots. solveHub is the post-apply hub budget —
	// identical across shards, since every shard saw every hub marker.
	planStart := time.Now()
	n := len(s.jobs)
	if n > 0 {
		solveHub := localHub
		s.batch.Reset(n)
		for i := range s.jobs {
			s.batch.Dists[i] = s.jobs[i].distance
			s.batch.E1[i] = solveHub
			s.batch.E2[i] = s.jobs[i].energy
		}
		linkcache.NewView(e.model).CharacterizeColumns(workers, s.batch.Dists, &s.batch.Cols)
		core.OptimizeBatch(&s.batch, workers)
		if workers != 1 && n >= shardPlanParThreshold {
			par.For(workers, n, func(i int) { s.buildPlan(e, i, epoch, solveHub) })
		} else {
			for i := 0; i < n; i++ {
				s.buildPlan(e, i, epoch, solveHub)
			}
		}
	}

	// Commit under the shard lock; readers of other shards never notice.
	s.mu.Lock()
	s.firstErr, s.firstErrSeq = nil, 0
	plannedLocal := 0
	for i := range s.jobs {
		j := &s.jobs[i]
		if j.err != nil {
			// Out of range or drained: keep the member dirty so a
			// recovering update re-plans it; surface the shard's first
			// error (jobs are seq-ascending, so first is lowest).
			if s.firstErr == nil {
				s.firstErr = fmt.Errorf("serve: member %q: %w", j.m.id, j.err)
				s.firstErrSeq = j.m.seq
			}
			continue
		}
		j.m.plan = j.plan
		j.m.hasPlan = true
		j.m.dirty = false
		plannedLocal++
	}
	s.mu.Unlock()
	s.planned = plannedLocal
	s.planNs = float64(time.Since(planStart))
}

// shardPlanParThreshold is the per-shard job count below which plan
// construction stays sequential (same rationale as the batch kernels'
// threshold: fanning out a handful of copies costs more than it saves).
const shardPlanParThreshold = 64

// buildPlan constructs job i's plan from the shard arena's slot i:
// fractions and mixture from the batch offload kernel, blocks from the
// largest-remainder counts directly, mode names from the canonical
// shared table. Fractions and Blocks are freshly allocated — committed
// plans are retained and concurrently marshaled by PlanFor readers, so
// arena rows must never escape into them.
func (s *shard) buildPlan(e *Engine, i int, epoch uint64, hubE units.Joule) {
	j := &s.jobs[i]
	n := int(s.batch.Cols.Len[i])
	if n == 0 {
		j.err = fmt.Errorf("out of range at %.2fm: %w", float64(j.distance), core.ErrOutOfRange)
		return
	}
	if err := s.batch.Errs[i]; err != nil {
		j.err = err
		return
	}
	p := Plan{
		Epoch:     epoch,
		Ratio:     float64(hubE) / float64(j.energy),
		Distance:  float64(j.distance),
		Fractions: make([]float64, n),
		Blocks:    make([]int, n),
		Bits:      s.batch.Bits[i],
	}
	copy(p.Fractions, s.batch.PRow(i))
	copy(p.Blocks, s.batch.BlockCountsRow(i, e.cfg.Window))
	mask := 0
	base := i * phy.NumModes
	for sl := 0; sl < n; sl++ {
		mask |= 1 << uint(s.batch.Cols.Mode[base+sl])
	}
	p.Modes = modeNames[mask]
	j.plan = p
}

// latRing is a bounded ring of per-epoch wall-clock latencies (ns) the
// /v1/stats percentiles are computed over. Strictly observational —
// never touches EpochResult or the digest. Guarded by the engine's
// latMu.
type latRing struct {
	buf         []float64
	idx         int
	count       int
	first, last float64
}

// latRingCap bounds both stage-latency rings.
const latRingCap = 256

// observe records one epoch's latency.
func (r *latRing) observe(ns float64) {
	if r.buf == nil {
		r.buf = make([]float64, 0, latRingCap)
	}
	if len(r.buf) < latRingCap {
		r.buf = append(r.buf, ns)
	} else {
		r.buf[r.idx] = ns
	}
	r.idx = (r.idx + 1) % latRingCap
	if r.count == 0 {
		r.first = ns
	}
	r.count++
	r.last = ns
}
