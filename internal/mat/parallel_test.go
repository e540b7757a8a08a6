package mat

import (
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

// withParallelism runs fn at worker count n, restoring the prior setting.
func withParallelism(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := Parallelism()
	SetParallelism(n)
	defer SetParallelism(prev)
	fn()
}

// The three loops below are the per-vector kernels Dense.MulVec,
// Dense.MulVecT and Dense.AddOuter, kept verbatim as the reference the
// GEMMs are held to once those methods were deleted: a single example is a
// one-row matrix on the GEMM path.

// serialMulVec is the reference dst = m * x loop.
func serialMulVec(m *Dense, dst, x []float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, w := range row {
			s += w * x[j]
		}
		dst[i] = s
	}
}

// serialMulVecT is the reference dst = mᵀ * x loop, matching the seed's
// accumulation order exactly.
func serialMulVecT(m *Dense, dst, x []float64) {
	Zero(dst)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, w := range row {
			dst[j] += w * xi
		}
	}
}

// serialAddOuter is the reference m += a * x * yᵀ loop.
func serialAddOuter(m *Dense, a float64, x, y []float64) {
	for i := 0; i < m.Rows; i++ {
		axi := a * x[i]
		if axi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, yj := range y {
			row[j] += axi * yj
		}
	}
}

// rowOf wraps v as a one-row matrix sharing its storage.
func rowOf(v []float64) *Dense { return &Dense{Rows: 1, Cols: len(v), Data: v} }

// kernelShapes run from tiny to a few hundred thousand elements, including
// skinny and wide aspect ratios and the 4-row block tails.
var kernelShapes = []struct{ rows, cols int }{
	{1, 1},
	{3, 7},
	{17, 33},
	{64, 64},
	{127, 258},
	{128, 256},
	{129, 256},
	{1000, 37}, // tall and skinny
	{37, 1000}, // short and wide
	{300, 301},
	{1, 40000}, // a single wide row
	{40000, 1}, // a single tall column
}

// randomVec fills a deterministic pseudo-random vector with ~1/8 exact
// zeros so the xi == 0 skip path is exercised.
func randomVec(rng *RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(8) == 0 {
			continue
		}
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// bitsEqual reports element-wise bit identity, distinguishing -0 from 0.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestParallelKernelsMatchSerial: the GEMMs on one-row operands —
// MulMatT as m·x, MulMat as mᵀ·x, AddOuterBatch as m += a·x·yᵀ — are
// bit-identical to the plain reference loops, from 1×1 to a 40000-wide row
// and a 40000-tall column.
func TestParallelKernelsMatchSerial(t *testing.T) {
	rng := NewRNG(42)
	for _, sh := range kernelShapes {
		m := NewDense(sh.rows, sh.cols)
		m.Randomize(rng, 1)
		xr := randomVec(rng, sh.rows) // length Rows: mᵀ·x input, outer-product x
		xc := randomVec(rng, sh.cols) // length Cols: m·x input, outer-product y

		wantMV := make([]float64, sh.rows)
		serialMulVec(m, wantMV, xc)
		wantMVT := make([]float64, sh.cols)
		serialMulVecT(m, wantMVT, xr)
		wantAO := m.Clone()
		serialAddOuter(wantAO, 0.75, xr, xc)

		got := make([]float64, sh.rows)
		MulMatT(rowOf(got), rowOf(xc), m)
		if !bitsEqual(got, wantMV) {
			t.Errorf("one-row MulMatT %dx%d differs from serial m·x", sh.rows, sh.cols)
		}
		gotT := make([]float64, sh.cols)
		MulMat(rowOf(gotT), rowOf(xr), m)
		if !bitsEqual(gotT, wantMVT) {
			t.Errorf("one-row MulMat %dx%d differs from serial mᵀ·x", sh.rows, sh.cols)
		}
		ao := m.Clone()
		AddOuterBatch(ao, 0.75, rowOf(xr), rowOf(xc))
		if !bitsEqual(ao.Data, wantAO.Data) {
			t.Errorf("one-row AddOuterBatch %dx%d differs from serial outer product", sh.rows, sh.cols)
		}
	}
}

func TestForEachCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withParallelism(t, workers, func() {
			for _, n := range []int{0, 1, 7, 64, 1000} {
				visits := make([]int32, n)
				if err := ForEach(n, func(i int) error {
					if i < 0 || i >= n {
						t.Errorf("index %d out of range for n=%d", i, n)
						return nil
					}
					atomic.AddInt32(&visits[i], 1)
					return nil
				}); err != nil {
					t.Fatalf("n=%d workers=%d: unexpected error %v", n, workers, err)
				}
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
					}
				}
			}
		})
	}
}

// TestForEachReturnsLowestIndexError: whatever order the jobs finish in,
// the error is the one serial execution would have stopped at.
func TestForEachReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withParallelism(t, workers, func() {
			errs := []error{errors.New("job 3"), errors.New("job 6")}
			err := ForEach(9, func(i int) error {
				switch i {
				case 3:
					return errs[0]
				case 6:
					return errs[1]
				}
				return nil
			})
			if !errors.Is(err, errs[0]) {
				t.Fatalf("workers=%d: error = %v, want job 3", workers, err)
			}
		})
	}
}

func TestForEachNested(t *testing.T) {
	withParallelism(t, 4, func() {
		var count atomic.Int64
		_ = ForEach(16, func(int) error {
			return ForEach(16, func(int) error {
				count.Add(1)
				return nil
			})
		})
		if got := count.Load(); got != 16*16 {
			t.Fatalf("nested ForEach covered %d of %d indices", got, 16*16)
		}
	})
}

func TestSetParallelismClamps(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	for _, n := range []int{0, -5} {
		SetParallelism(n)
		if got := Parallelism(); got != 1 {
			t.Fatalf("SetParallelism(%d) -> Parallelism() = %d, want 1", n, got)
		}
	}
	SetParallelism(6)
	if got := Parallelism(); got != 6 {
		t.Fatalf("Parallelism() = %d, want 6", got)
	}
}

func TestDefaultParallelismIsGOMAXPROCS(t *testing.T) {
	// The init default must be at least 1 and no more than GOMAXPROCS;
	// other tests may have changed it, so set it back explicitly.
	prev := Parallelism()
	defer SetParallelism(prev)
	SetParallelism(runtime.GOMAXPROCS(0))
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism() = %d", got)
	}
}
