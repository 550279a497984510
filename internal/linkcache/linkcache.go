// Package linkcache holds the serve daemon's batched link
// characterization: a View pins one model and fills structure-of-arrays
// link columns for a whole epoch of distances, striped over the worker
// pool. It caches nothing. Every other caller characterizes into
// buffers it owns and rebuilds them only when the values they were
// built from change.
//
// Stats, Snapshot and Flush remain for benchmark harnesses that still
// report cache counters; with no cache behind them they are inert.
package linkcache

import (
	"braidio/internal/par"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// View is a pinned-model handle for batched characterization. The
// pinned model must not be mutated while the view is alive. A View is
// safe for concurrent use.
type View struct {
	model *phy.Model
}

// NewView pins a model and returns its view.
func NewView(m *phy.Model) *View { return &View{model: m} }

// batchParThreshold is the batch size below which CharacterizeColumns
// stays sequential: striping a handful of rows over the pool costs more
// in goroutine fan-out than it saves.
const batchParThreshold = 64

// CharacterizeColumns fills row k of cols with the structure-of-arrays
// characterization at dists[k], for kernels that never need []ModeLink
// slices. Each index writes only its own row, so results are identical
// at any worker count; values are bit-identical to Characterize's
// because both run phy's one per-mode loop.
func (v *View) CharacterizeColumns(workers int, dists []units.Meter, cols *phy.LinkColumns) {
	cols.Reset(len(dists))
	fill := func(i int) { v.model.CharacterizeColumns(cols, i, dists[i]) }
	if len(dists) >= batchParThreshold && workers != 1 {
		par.For(workers, len(dists), fill)
		return
	}
	for i := range dists {
		fill(i)
	}
}

// Stats is a snapshot of cache counters.
type Stats struct {
	// Misses and Evictions are always zero: there is no cache.
	Misses, Evictions uint64
}

// Snapshot returns zero counters: there is no cache to count.
func Snapshot() Stats { return Stats{} }

// Flush does nothing: there is no cached state to drop.
func Flush() {}
