package linkcache

import (
	"reflect"
	"sync"
	"testing"

	"braidio/internal/phy"
	"braidio/internal/units"
)

// rowLinks reads row k of cols back as the links it projects.
func rowLinks(cols *phy.LinkColumns, k int) []phy.ModeLink {
	var out []phy.ModeLink
	base := k * phy.NumModes
	for i := 0; i < int(cols.Len[k]); i++ {
		out = append(out, phy.ModeLink{Mode: cols.Mode[base+i], T: cols.T[base+i], R: cols.R[base+i]})
	}
	return out
}

// directRow projects m.Characterize(d) onto the columns' fields.
func directRow(m *phy.Model, d units.Meter) []phy.ModeLink {
	var out []phy.ModeLink
	for _, l := range m.Characterize(d) {
		out = append(out, phy.ModeLink{Mode: l.Mode, T: l.T, R: l.R})
	}
	return out
}

// sweep returns n distances from 10 cm outward in 5 cm steps.
func sweep(n int) []units.Meter {
	dists := make([]units.Meter, n)
	for i := range dists {
		dists[i] = units.Meter(0.1 + 0.05*float64(i))
	}
	return dists
}

// TestCharacterizeMatchesDirect: every row CharacterizeColumns fills
// equals the direct characterization at its distance, sequentially and
// striped over the pool (the batch is past the parallel threshold).
func TestCharacterizeMatchesDirect(t *testing.T) {
	m := phy.NewModel()
	v := NewView(m)
	dists := sweep(2 * batchParThreshold)
	for _, workers := range []int{1, 4} {
		var cols phy.LinkColumns
		v.CharacterizeColumns(workers, dists, &cols)
		if cols.N != len(dists) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, cols.N, len(dists))
		}
		for k, d := range dists {
			if got, want := rowLinks(&cols, k), directRow(m, d); !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d d=%v: row %v, direct %v", workers, float64(d), got, want)
			}
		}
	}
}

// TestConcurrentAccess: one View shared by goroutines filling their own
// columns; run under -race this is the view's data-race test.
func TestConcurrentAccess(t *testing.T) {
	m := phy.NewModel()
	v := NewView(m)
	dists := sweep(batchParThreshold)
	var want phy.LinkColumns
	v.CharacterizeColumns(1, dists, &want)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cols phy.LinkColumns
			for i := 0; i < 20; i++ {
				v.CharacterizeColumns(2, dists, &cols)
			}
			if !reflect.DeepEqual(cols, want) {
				t.Errorf("goroutine %d filled different columns", g)
			}
		}()
	}
	wg.Wait()
}
