package nn

import (
	"testing"

	"repro/internal/mat"
)

// batchFixture builds a deterministic layer and example batch.
func batchFixture(t *testing.T, examples, in, out int) (*Linear, *mat.Dense, *mat.Dense) {
	t.Helper()
	rng := mat.NewRNG(42)
	l := NewLinear(rng, in, out)
	x := mat.NewDense(examples, in)
	x.Randomize(rng, 1)
	dy := mat.NewDense(examples, out)
	dy.Randomize(rng, 1)
	// Plant exact zeros: the batched kernels have zero-skip paths.
	dy.Set(0, 0, 0)
	x.Set(examples-1, in-1, 0)
	return l, x, dy
}

// The per-example layer passes the batched ones replaced — Linear.Forward
// and Linear.Backward on mat.Dense.MulVec / MulVecT / AddOuter — kept
// verbatim as the oracle of the two tests below.

// mulVecReference is mat.Dense.MulVec as it was: dst = m * x.
func mulVecReference(m *mat.Dense, dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("mat: MulVec length mismatch")
	}
	for i := range dst {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, w := range row {
			s += w * x[j]
		}
		dst[i] = s
	}
}

// mulVecTReference is mat.Dense.MulVecT as it was: dst = mᵀ * x.
func mulVecTReference(m *mat.Dense, dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic("mat: MulVecT length mismatch")
	}
	mat.Zero(dst)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += w * xi
		}
	}
}

// addOuterReference is mat.Dense.AddOuter as it was: m += a * x * yᵀ.
func addOuterReference(m *mat.Dense, a float64, x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("mat: AddOuter length mismatch")
	}
	for i, xi := range x {
		axi := a * xi
		if axi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, yj := range y {
			row[j] += axi * yj
		}
	}
}

// forwardReference is Linear.Forward as it was: dst = W*x + b.
func forwardReference(l *Linear, dst, x []float64) {
	mulVecReference(l.W, dst, x)
	mat.AddTo(dst, l.B.Row(0))
}

// backwardReference is Linear.Backward as it was: gW += dy*xᵀ, gB += dy
// and, when dx is non-nil, dx = Wᵀ*dy.
func backwardReference(l *Linear, x, dy []float64, gW, gB *mat.Dense, dx []float64) {
	addOuterReference(gW, 1, dy, x)
	mat.AddTo(gB.Row(0), dy)
	if dx != nil {
		mulVecTReference(l.W, dx, dy)
	}
}

// TestForwardBatchMatchesForward asserts the batched forward equals the
// per-example forward (forwardReference) bitwise.
func TestForwardBatchMatchesForward(t *testing.T) {
	l, x, _ := batchFixture(t, 9, 16, 8)
	want := mat.NewDense(9, 8)
	for i := 0; i < x.Rows; i++ {
		forwardReference(l, want.Row(i), x.Row(i))
	}
	got := mat.NewDense(9, 8)
	l.ForwardBatch(got, x)
	requireSame(t, "y", got, want)
}

// TestBackwardBatchMatchesBackward asserts the batched backward produces
// bitwise-identical gradients to per-example backwardReference calls in
// order.
func TestBackwardBatchMatchesBackward(t *testing.T) {
	l, x, dy := batchFixture(t, 9, 16, 8)
	wantGW := mat.NewDense(8, 16)
	wantGB := mat.NewDense(1, 8)
	wantDX := mat.NewDense(9, 16)
	for i := 0; i < x.Rows; i++ {
		backwardReference(l, x.Row(i), dy.Row(i), wantGW, wantGB, wantDX.Row(i))
	}
	gW := mat.NewDense(8, 16)
	gB := mat.NewDense(1, 8)
	dx := mat.NewDense(9, 16)
	l.BackwardBatch(x, dy, gW, gB, dx)
	requireSame(t, "gW", gW, wantGW)
	requireSame(t, "gB", gB, wantGB)
	requireSame(t, "dx", dx, wantDX)
}

// requireSame fails t at the first element where got and want differ.
func requireSame(t *testing.T, name string, got, want *mat.Dense) {
	t.Helper()
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got.Data[i], want.Data[i])
		}
	}
}
