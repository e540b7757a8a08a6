package mat

import (
	"testing"
)

// gemmShapes run from one element to a few hundred rows, with odd sizes
// that hit the kernels' row and column tails.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{8, 16, 8},
	{17, 24, 59},
	{64, 48, 33},
	{300, 128, 257},
}

// fillDeterministic fills d with a fixed pseudo-random pattern including
// exact zeros (the kernels have zero-skip fast paths that must not change
// results).
func fillDeterministic(d *Dense, seed uint64) {
	rng := NewRNG(seed)
	for i := range d.Data {
		if rng.Intn(7) == 0 {
			d.Data[i] = 0
			continue
		}
		d.Data[i] = 2*rng.Float64() - 1
	}
}

// refMulMatT computes dst = a * bᵀ one row at a time through the reference
// matrix-vector loop serialMulVec.
func refMulMatT(dst, a, b *Dense) {
	row := make([]float64, b.Rows)
	for i := 0; i < a.Rows; i++ {
		serialMulVec(b, row, a.Row(i))
		copy(dst.Row(i), row)
	}
}

// refMulMat computes dst = a * b through serialMulVecT per row.
func refMulMat(dst, a, b *Dense) {
	row := make([]float64, b.Cols)
	for i := 0; i < a.Rows; i++ {
		serialMulVecT(b, row, a.Row(i))
		copy(dst.Row(i), row)
	}
}

// TestMulMatTMatchesMulVec asserts MulMatT is bit-identical to the
// reference matrix-vector loop (serialMulVec) applied row by row.
func TestMulMatTMatchesMulVec(t *testing.T) {
	for _, sh := range gemmShapes {
		a := NewDense(sh.m, sh.k)
		b := NewDense(sh.n, sh.k)
		fillDeterministic(a, 1)
		fillDeterministic(b, 2)
		want := NewDense(sh.m, sh.n)
		refMulMatT(want, a, b)
		got := NewDense(sh.m, sh.n)
		MulMatT(got, a, b)
		requireSameGEMM(t, sh.m, sh.k, sh.n, got, want)
	}
}

// requireSameGEMM fails t at the first element where got and want differ.
func requireSameGEMM(t *testing.T, m, k, n int, got, want *Dense) {
	t.Helper()
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%dx%dx%d: element %d = %v, want %v", m, k, n, i, got.Data[i], want.Data[i])
		}
	}
}

// TestMulMatMatchesMulVecT asserts MulMat is bit-identical to the
// reference transposed matrix-vector loop (serialMulVecT) applied row by
// row.
func TestMulMatMatchesMulVecT(t *testing.T) {
	for _, sh := range gemmShapes {
		a := NewDense(sh.m, sh.k)
		b := NewDense(sh.k, sh.n)
		fillDeterministic(a, 3)
		fillDeterministic(b, 4)
		want := NewDense(sh.m, sh.n)
		refMulMat(want, a, b)
		got := NewDense(sh.m, sh.n)
		MulMat(got, a, b)
		requireSameGEMM(t, sh.m, sh.k, sh.n, got, want)
	}
}

// TestAddOuterBatchMatchesAddOuter asserts AddOuterBatch equals the
// reference outer-product loop (serialAddOuter) run per row, bitwise.
func TestAddOuterBatchMatchesAddOuter(t *testing.T) {
	for _, sh := range gemmShapes {
		x := NewDense(sh.k, sh.m) // k examples of dimension m
		y := NewDense(sh.k, sh.n)
		fillDeterministic(x, 5)
		fillDeterministic(y, 6)
		want := NewDense(sh.m, sh.n)
		fillDeterministic(want, 7)
		for i := 0; i < sh.k; i++ {
			serialAddOuter(want, 0.5, x.Row(i), y.Row(i))
		}
		got := NewDense(sh.m, sh.n)
		fillDeterministic(got, 7)
		AddOuterBatch(got, 0.5, x, y)
		requireSameGEMM(t, sh.m, sh.k, sh.n, got, want)
	}
}

// TestMulVecBlockedTail computes m·x as a one-row MulMatT, whose Go loop
// fills four outputs at a time, on output counts around that block width,
// against a scalar reference.
func TestMulVecBlockedTail(t *testing.T) {
	for rows := 1; rows <= 9; rows++ {
		m := NewDense(rows, 13)
		fillDeterministic(m, uint64(rows))
		x := make([]float64, 13)
		for i := range x {
			x[i] = float64(i%5) - 2
		}
		want := make([]float64, rows)
		for i := 0; i < rows; i++ {
			s := 0.0
			for j, w := range m.Row(i) {
				s += w * x[j]
			}
			want[i] = s
		}
		got := make([]float64, rows)
		MulMatT(rowOf(got), rowOf(x), m)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rows=%d: dst[%d] = %v, want %v", rows, i, got[i], want[i])
			}
		}
	}
}

// TestGEMMShapePanics asserts the kernels reject mismatched shapes.
func TestGEMMShapePanics(t *testing.T) {
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic on shape mismatch", name)
			}
		}()
		fn()
	}
	a := NewDense(2, 3)
	b := NewDense(4, 5)
	check("MulMatT", func() { MulMatT(NewDense(2, 4), a, b) })
	check("MulMat", func() { MulMat(NewDense(2, 5), a, b) })
	check("AddOuterBatch", func() { AddOuterBatch(NewDense(3, 5), 1, a, b) })
	check("AddRowTo", func() { AddRowTo(a, make([]float64, 4)) })
}

// TestMulMatTAddRowMatchesUnfused asserts the fused bias GEMM equals
// MulMatT followed by AddRowTo bitwise.
func TestMulMatTAddRowMatchesUnfused(t *testing.T) {
	for _, sh := range gemmShapes {
		a := NewDense(sh.m, sh.k)
		b := NewDense(sh.n, sh.k)
		fillDeterministic(a, 21)
		fillDeterministic(b, 22)
		bias := make([]float64, sh.n)
		for i := range bias {
			bias[i] = float64(i%13)*0.17 - 1
		}
		want := NewDense(sh.m, sh.n)
		MulMatT(want, a, b)
		AddRowTo(want, bias)
		got := NewDense(sh.m, sh.n)
		MulMatTAddRow(got, a, b, bias)
		requireSameGEMM(t, sh.m, sh.k, sh.n, got, want)
	}
}

// TestAddRowTo asserts the batched bias add equals per-row AddTo.
func TestAddRowTo(t *testing.T) {
	m := NewDense(5, 7)
	fillDeterministic(m, 11)
	want := m.Clone()
	bias := make([]float64, 7)
	for i := range bias {
		bias[i] = float64(i) * 0.25
	}
	for i := 0; i < want.Rows; i++ {
		AddTo(want.Row(i), bias)
	}
	AddRowTo(m, bias)
	for i := range want.Data {
		if m.Data[i] != want.Data[i] {
			t.Fatalf("element %d = %v, want %v", i, m.Data[i], want.Data[i])
		}
	}
}
