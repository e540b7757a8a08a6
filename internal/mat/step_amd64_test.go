//go:build amd64 && !purego

package mat

import (
	"math"
	"testing"
)

// The kernels of the training step's minibatch update (the row softmax,
// the scale-and-square sweep and the momentum step that clears the
// gradient), held to their Go loops.

// softmaxRowReference is Softmax as it was before rows were batched,
// verbatim: the per-row oracle softmaxRows must reproduce bit for bit.
func softmaxRowReference(dst, logits []float64) {
	if len(dst) != len(logits) {
		panic("mat: Softmax length mismatch")
	}
	if len(logits) == 0 {
		return
	}
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	expShift(dst, logits, max)
	sum := 0.0
	for _, e := range dst {
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// stepKernelInput returns n values in (−spread, spread) mixed with exact
// ±0, with special planted in every seventh one from a seed-chosen start.
func stepKernelInput(seed uint64, n int, special, spread float64) []float64 {
	v := make([]float64, n)
	fillKernel(v, seed, 0, false)
	for i := range v {
		v[i] *= spread
	}
	for i := int(seed % 7); i < n; i += 7 {
		v[i] = special
	}
	return v
}

// checkStepKernels runs every step kernel on one fuzzer-chosen input and
// compares it with its Go loop.
func checkStepKernels(t *testing.T, seed uint64, rows, cols int, special, spread, s float64) {
	t.Helper()
	requireExpKernels(t)
	logits := &Dense{Rows: rows, Cols: cols, Data: stepKernelInput(seed, rows*cols, special, spread)}

	// Row softmax: both paths, out of place and in place, against the
	// per-row oracle on the Go loops.
	want := NewDense(rows, cols)
	pureGo(func() {
		for r := 0; r < rows; r++ {
			softmaxRowReference(want.Row(r), logits.Row(r))
		}
	})
	for _, path := range []struct {
		name string
		run  func(func())
	}{{"avx2", func(fn func()) { fn() }}, {"go", pureGo}} {
		got := NewDense(rows, cols)
		inPlace := logits.Clone()
		path.run(func() {
			SoftmaxRows(got, logits)
			SoftmaxRows(inPlace, inPlace)
		})
		for _, m := range []*Dense{got, inPlace} {
			if i, ok := sameKernelOutput(m.Data, want.Data); !ok {
				t.Fatalf("SoftmaxRows %s %dx%d: p[%d][%d] = %x, per-row loop %x",
					path.name, rows, cols, i/cols, i%cols, math.Float64bits(m.Data[i]), math.Float64bits(want.Data[i]))
			}
		}
	}

	// Scale sweep: Scale's values, and lane sums within (4n+16)·u of the
	// serial sum of their squares in either order of comparison.
	n := len(logits.Data)
	scaled := Clone(logits.Data)
	Scale(scaled, s)
	serial := 0.0
	for _, x := range scaled {
		serial += x * x
	}
	tol := 1 + float64(4*n+16)*0x1p-53
	var accs [2][4]float64
	for k, path := range []struct {
		name string
		run  func(func())
	}{{"avx2", func(fn func()) { fn() }}, {"go", pureGo}} {
		v := Clone(logits.Data)
		acc := &accs[k]
		path.run(func() { ScaleSquares(v, s, acc) })
		if i, ok := sameKernelOutput(v, scaled); !ok {
			t.Fatalf("ScaleSquares %s n=%d s=%v: v[%d] = %x, Scale %x", path.name, n, s, i, math.Float64bits(v[i]), math.Float64bits(scaled[i]))
		}
		lanes := (acc[0] + acc[1]) + (acc[2] + acc[3])
		switch {
		case math.IsNaN(serial) || math.IsNaN(lanes):
			if !math.IsNaN(serial) || !math.IsNaN(lanes) {
				t.Fatalf("ScaleSquares %s n=%d: lane sum %v, serial sum %v", path.name, n, lanes, serial)
			}
		case lanes*tol < serial || serial*tol < lanes:
			t.Fatalf("ScaleSquares %s n=%d: lane sum %v outside (4n+16)·u of the serial sum %v", path.name, n, lanes, serial)
		}
	}
	if i, ok := sameKernelOutput(accs[0][:], accs[1][:]); !ok {
		t.Fatalf("ScaleSquares n=%d: lane %d = %v, Go loop %v", n, i, accs[0][i], accs[1][i])
	}

	// Momentum step: the Go loop's parameters and velocity, and the
	// gradient left +0 by both.
	p := stepKernelInput(seed+1, n, 0, 1)
	vel := stepKernelInput(seed+2, n, special, 1)
	wantP, wantV, wantG := Clone(p), Clone(vel), Clone(logits.Data)
	pureGo(func() { MomentumStep(wantP, wantV, wantG, 0.5, s) })
	g := Clone(logits.Data)
	MomentumStep(p, vel, g, 0.5, s)
	if i, ok := sameKernelOutput(vel, wantV); !ok {
		t.Fatalf("MomentumStep n=%d lr=%v: velocity %d = %v, Go loop %v", n, s, i, vel[i], wantV[i])
	}
	if i, ok := sameKernelOutput(p, wantP); !ok {
		t.Fatalf("MomentumStep n=%d lr=%v: parameter %d = %v, Go loop %v", n, s, i, p[i], wantP[i])
	}
	for i := range g {
		if math.Float64bits(g[i]) != 0 || math.Float64bits(wantG[i]) != 0 {
			t.Fatalf("MomentumStep n=%d: gradient %d left %v (kernel), %v (Go loop), want +0", n, i, g[i], wantG[i])
		}
	}
}

// TestStepKernelsBitExact runs checkStepKernels over every row count the
// fuzz target reaches and column counts around the 4-lane boundary and
// the codec's 59 concepts, with spreads that keep every exp argument in
// the kernel's range and spreads that push some past ±700.
func TestStepKernelsBitExact(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 3}
	for rows := 1; rows <= 9; rows++ {
		for _, cols := range []int{1, 2, 3, 4, 5, 8, 9, 24, 59, 64} {
			for k, special := range specials {
				for _, spread := range []float64{0.5, 30, 1500} {
					seed := uint64(rows*1000 + cols*10 + k)
					checkStepKernels(t, seed, rows, cols, special, spread, 0.125)
				}
			}
		}
	}
}

// FuzzStepKernels holds the row softmax, the scale sweep and the momentum
// step to their Go loops on fuzzer-chosen shapes (1–9 rows × 1–64
// columns), planted values (±0, NaN, ±Inf), spreads (past ±700 the exp
// kernel hands blocks back to math.Exp) and scales.
func FuzzStepKernels(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(58), 0.0, 4.0, 0.125)
	f.Add(uint64(2), uint8(3), uint8(3), math.Copysign(0, -1), 1.0, -0.37)
	f.Add(uint64(3), uint8(8), uint8(63), math.NaN(), 2.0, 1.0/3)
	f.Add(uint64(4), uint8(0), uint8(15), math.Inf(1), 10.0, 0.5)
	f.Add(uint64(5), uint8(4), uint8(40), math.Inf(-1), 0.1, 2.0)
	f.Add(uint64(6), uint8(5), uint8(31), 900.0, 1500.0, 1e-3)
	f.Add(uint64(7), uint8(8), uint8(0), -800.0, 800.0, 1e300)
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols uint8, special, spread, s float64) {
		checkStepKernels(t, seed, 1+int(rows)%9, 1+int(cols)%64, special, spread, s)
	})
}
