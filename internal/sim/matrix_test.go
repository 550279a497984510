package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"braidio/internal/energy"
	"braidio/internal/phy"
)

// goldenMatrices pins SHA-256 digests of the Fig. 15 and Fig. 16
// matrices: every cell's float64 bits, little-endian, row-major, so any
// change that moves a single cell of a reproduced figure fails here.
// Pinned on linux/amd64.
var goldenMatrices = map[string]string{
	"fig15-0.5m": "602195f396f6d8ae3ecb754855ac2c5ce44c72a3a95c76dd9b5adde0bcec4256",
	"fig16-0.5m": "249c0ebc1eadae4233c5c81fdfca356f2849200e8887331a860577a962460222",
	"fig15-3m":   "e601b8c93ebccfae130de257caf2d1a571ead75ff4e2f542e8db021442b6c5d8",
}

// matrixDigest is the goldenMatrices digest of a matrix.
func matrixDigest(m *Matrix) string {
	h := sha256.New()
	var b [8]byte
	for _, row := range m.Cells {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMatrixGolden pins the Fig. 15 and Fig. 16 matrices to their
// goldenMatrices digests.
func TestMatrixGolden(t *testing.T) {
	m := phy.NewModel()
	devices := energy.Catalog
	builds := map[string]func() (*Matrix, error){
		"fig15-0.5m": func() (*Matrix, error) { return GainMatrixBluetooth(m, 0.5, devices) },
		"fig16-0.5m": func() (*Matrix, error) { return GainMatrixBestMode(m, 0.5, devices) },
		"fig15-3m":   func() (*Matrix, error) { return GainMatrixBluetooth(m, 3, devices) },
	}
	for name, f := range builds {
		mat, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := matrixDigest(mat); got != goldenMatrices[name] {
			t.Errorf("%s: digest %s, want %s", name, got, goldenMatrices[name])
		}
	}
}

// errBoom is the sentinel the worker-pool tests propagate.
var errBoom = errors.New("boom")

// TestBuildMatrixPropagatesErrors: a failing cell must surface through
// errors.Join with its context intact, and the matrix must be withheld.
func TestBuildMatrixPropagatesErrors(t *testing.T) {
	devices := energy.Catalog[:4]
	mat, err := buildMatrix(devices, func(tx, rx energy.Device) (float64, error) {
		if tx.Name == devices[2].Name && rx.Name == devices[1].Name {
			return 0, fmt.Errorf("cell %s→%s: %w", tx.Name, rx.Name, errBoom)
		}
		return 1, nil
	})
	if mat != nil {
		t.Error("matrix returned alongside an error")
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want wrapped errBoom", err)
	}
}

// TestBuildMatrixStopsDispatchOnError: after the first error the pool
// must stop handing out cells — only in-flight work may still complete.
func TestBuildMatrixStopsDispatchOnError(t *testing.T) {
	devices := energy.Catalog // 10×10 = 100 cells
	var calls atomic.Int64
	_, err := buildMatrix(devices, func(tx, rx energy.Device) (float64, error) {
		calls.Add(1)
		return 0, errBoom
	})
	if err == nil {
		t.Fatal("no error propagated")
	}
	// The dispatcher checks the failure flag before every send, so at
	// most the worker-pool depth of extra cells can run after the first
	// failure.
	if max := int64(2 * (runtime.GOMAXPROCS(0) + 1)); calls.Load() > max {
		t.Errorf("%d cells ran after instant failure, want ≤ %d", calls.Load(), max)
	}
}

// TestBuildMatrixBoundedConcurrency: the pool never runs more cells at
// once than GOMAXPROCS.
func TestBuildMatrixBoundedConcurrency(t *testing.T) {
	devices := energy.Catalog[:5]
	var inFlight, peak atomic.Int64
	_, err := buildMatrix(devices, func(tx, rx energy.Device) (float64, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		inFlight.Add(-1)
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if limit := int64(runtime.GOMAXPROCS(0)); peak.Load() > limit {
		t.Errorf("observed %d concurrent cells, limit %d", peak.Load(), limit)
	}
}

// TestBuildMatrixMatchesSequential: the pooled matrix equals a plain
// sequential computation of the same gain function.
func TestBuildMatrixMatchesSequential(t *testing.T) {
	devices := energy.Catalog[:4]
	f := func(tx, rx energy.Device) (float64, error) {
		return float64(tx.Capacity) / float64(rx.Capacity), nil
	}
	mat, err := buildMatrix(devices, f)
	if err != nil {
		t.Fatal(err)
	}
	for r, rx := range devices {
		for c, tx := range devices {
			want, _ := f(tx, rx)
			if mat.Cells[r][c] != want {
				t.Errorf("cell [%d][%d] = %v, want %v", r, c, mat.Cells[r][c], want)
			}
		}
	}
}
