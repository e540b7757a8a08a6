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

// TestForwardBatchMatchesForward asserts the batched forward equals the
// per-example Forward bitwise.
func TestForwardBatchMatchesForward(t *testing.T) {
	l, x, _ := batchFixture(t, 9, 16, 8)
	want := mat.NewDense(9, 8)
	for i := 0; i < x.Rows; i++ {
		l.Forward(want.Row(i), x.Row(i))
	}
	got := mat.NewDense(9, 8)
	l.ForwardBatch(got, x)
	requireSame(t, "y", got, want)
}

// TestBackwardBatchMatchesBackward asserts the batched backward produces
// bitwise-identical gradients to per-example Backward calls in order.
func TestBackwardBatchMatchesBackward(t *testing.T) {
	l, x, dy := batchFixture(t, 9, 16, 8)
	wantGW := mat.NewDense(8, 16)
	wantGB := mat.NewDense(1, 8)
	wantDX := mat.NewDense(9, 16)
	for i := 0; i < x.Rows; i++ {
		l.Backward(x.Row(i), dy.Row(i), wantGW, wantGB, wantDX.Row(i))
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
