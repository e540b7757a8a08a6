//go:build amd64 && !purego

package mat

import (
	"fmt"
	"math"
	"testing"
)

// The f64 AVX2 kernels claim bit identity with the pure-Go loops they
// shadow. These tests compare every dispatched entry point with useAVX2 on
// against the same call with it off, bit for bit.

// requireAVX2 fails (never skips) when the kernels are not dispatched: an
// amd64 runner that silently tested only the Go loops would let the
// assembly rot.
func requireAVX2(t *testing.T) {
	t.Helper()
	if !useAVX2 {
		t.Fatal("useAVX2 is false on amd64: the f64 kernels would go untested (need AVX2+FMA and OS YMM support)")
	}
}

// pureGo runs fn with the assembly kernels switched off — every one of
// them, exp and tanh included, dispatches on useAVX2.
func pureGo(fn func()) {
	prev := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = prev }()
	fn()
}

// offsetDense returns a rows x cols matrix whose backing array starts off
// elements into its allocation, so off=1 makes every vector access in the
// kernels unaligned.
func offsetDense(rows, cols, off int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols+off)[off:]}
}

// kernelFill is one input pattern of the grid.
type kernelFill struct {
	name string
	// special, when non-zero, is planted in a few elements of exactly one
	// operand (which one: see plant).
	special float64
	plant   int // 0: none, 1: first operand, 2: second operand
}

var kernelFills = []kernelFill{
	{name: "zeros"},
	{name: "inf-a", special: math.Inf(1), plant: 1},
	{name: "neginf-b", special: math.Inf(-1), plant: 2},
	{name: "nan-a", special: math.NaN(), plant: 1},
	{name: "nan-b", special: math.NaN(), plant: 2},
}

// fillKernel fills data with values in (-1, 1) mixed with exact +0 and -0
// (the skip paths and the sign of a zero sum both depend on them), then
// plants special in every fifth element when asked to.
func fillKernel(data []float64, seed uint64, special float64, plant bool) {
	rng := NewRNG(seed)
	for i := range data {
		switch rng.Intn(9) {
		case 0:
			data[i] = 0
		case 1:
			data[i] = math.Copysign(0, -1)
		default:
			data[i] = 2*rng.Float64() - 1
		}
	}
	if plant {
		for i := int(seed % 5); i < len(data); i += 5 {
			data[i] = special
		}
	}
}

// sameKernelOutput compares got with want bit for bit, except that two
// NaNs match whatever their payloads: x86 picks a NaN operand's payload by
// operand order, which is not part of the contract. Inf signs and zero
// signs are bits like any other.
func sameKernelOutput(got, want []float64) (int, bool) {
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

var (
	kernelGridM = []int{1, 2, 3, 5, 8, 9, 13, 96}
	kernelGridK = []int{1, 3, 4, 8, 12, 16, 24, 28}
	kernelGridN = []int{1, 3, 4, 5, 8, 16, 17, 24, 56, 59, 70}
)

// TestF64KernelsBitExactGrid runs the three GEMM range kernels over the
// shape grid, aligned and unaligned, on every fill (odd row and column
// counts hit the kernels' row and column tails), and requires the assembly
// path's output to equal the Go loop's.
func TestF64KernelsBitExactGrid(t *testing.T) {
	requireAVX2(t)

	type kernel struct {
		name string
		// operands returns the two inputs and the m-row output for shape
		// m,k,n.
		operands func(m, k, n, off int) (a, b, out *Dense)
		run      func(a, b, out *Dense, bias []float64, lo, hi int)
		bias     bool // run gets a bias row (nil otherwise)
	}
	// a·bᵀ operands: a is m x k, b is n x k.
	abT := func(m, k, n, off int) (*Dense, *Dense, *Dense) {
		return offsetDense(m, k, off), offsetDense(n, k, off), offsetDense(m, n, off)
	}
	runT := func(a, b, out *Dense, bias []float64, lo, hi int) { mulMatTRange(out, a, b, bias, lo, hi) }
	kernels := []kernel{
		{name: "mulMatT", operands: abT, run: runT},
		{name: "mulMatT+bias", operands: abT, run: runT, bias: true},
		{
			name: "mulMat",
			operands: func(m, k, n, off int) (*Dense, *Dense, *Dense) {
				return offsetDense(m, k, off), offsetDense(k, n, off), offsetDense(m, n, off)
			},
			run: func(a, b, out *Dense, _ []float64, lo, hi int) { mulMatRange(out, a, b, lo, hi) },
		},
		{
			// m += 0.5 * xᵀ * y with k examples: x is k x m, y is k x n.
			name: "addOuterBatch",
			operands: func(m, k, n, off int) (*Dense, *Dense, *Dense) {
				return offsetDense(k, m, off), offsetDense(k, n, off), offsetDense(m, n, off)
			},
			run: func(x, y, out *Dense, _ []float64, lo, hi int) { addOuterBatchRange(out, 0.5, x, y, lo, hi) },
		},
	}

	for _, kn := range kernels {
		for _, fill := range kernelFills {
			t.Run(kn.name+"/"+fill.name, func(t *testing.T) {
				for _, m := range kernelGridM {
					for _, k := range kernelGridK {
						for _, n := range kernelGridN {
							for off := 0; off <= 1; off++ {
								a, b, out := kn.operands(m, k, n, off)
								seed := uint64(m*10007 + k*101 + n)
								fillKernel(a.Data, seed, fill.special, fill.plant == 1)
								fillKernel(b.Data, seed+1, fill.special, fill.plant == 2)
								init := make([]float64, len(out.Data))
								fillKernel(init, seed+2, 0, false)
								var bias []float64
								if kn.bias {
									bias = make([]float64, n+off)[off:]
									fillKernel(bias, seed+3, 0, false)
								}

								want := make([]float64, len(init))
								copy(out.Data, init)
								pureGo(func() { kn.run(a, b, out, bias, 0, m) })
								copy(want, out.Data)

								copy(out.Data, init)
								kn.run(a, b, out, bias, 0, m)
								if i, ok := sameKernelOutput(out.Data, want); !ok {
									t.Fatalf("m=%d k=%d n=%d off=%d: element %d = %x (%v), Go loop %x (%v)",
										m, k, n, off, i,
										math.Float64bits(out.Data[i]), out.Data[i],
										math.Float64bits(want[i]), want[i])
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestF64KernelsSkipSemantics pins where a zero coefficient is skipped and
// where it is not, through the dispatched (assembly) path: the AXPY-form
// kernels never touch an Inf behind a zero coefficient, the a·bᵀ kernel
// multiplies it and gets NaN.
func TestF64KernelsSkipSemantics(t *testing.T) {
	requireAVX2(t)
	const m, k, n = 4, 4, 4
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)

	a := NewDense(m, k) // all zero coefficients, one of them -0
	a.Data[1] = negZero
	b := NewDense(k, n)
	for i := range b.Data {
		b.Data[i] = inf
	}
	out := NewDense(m, n)
	mulMatRange(out, a, b, 0, m)
	for i, v := range out.Data {
		if math.Float64bits(v) != 0 {
			t.Fatalf("mulMatRange: zero coefficients must skip Inf rows, element %d = %v", i, v)
		}
	}

	acc := NewDense(k, n) // x is m x k (zero), y is m x n (Inf)
	for i := range acc.Data {
		acc.Data[i] = 1
	}
	addOuterBatchRange(acc, 2, a, b, 0, k)
	for i, v := range acc.Data {
		if v != 1 {
			t.Fatalf("addOuterBatchRange: zero coefficients must skip Inf rows, element %d = %v", i, v)
		}
	}

	bt := NewDense(n, k)
	for i := range bt.Data {
		bt.Data[i] = inf
	}
	mulMatTRange(out, a, bt, nil, 0, m)
	for i, v := range out.Data {
		if !math.IsNaN(v) {
			t.Fatalf("mulMatTRange: 0*Inf must not be skipped, element %d = %v", i, v)
		}
	}
}

// TestF64ElementwiseKernelsBitExact covers ScaleSquares, the softmax's
// division, MomentumStep (which must leave the gradient +0) and
// AddRowsTo (over 1 to 9 rows) over lengths around the 4-lane boundary,
// aligned and unaligned.
func TestF64ElementwiseKernelsBitExact(t *testing.T) {
	requireAVX2(t)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 101} {
		for off := 0; off <= 1; off++ {
			for _, fill := range kernelFills {
				name := fmt.Sprintf("n=%d off=%d %s", n, off, fill.name)
				mk := func(seed uint64, plant bool) []float64 {
					v := make([]float64, n+off)[off:]
					fillKernel(v, seed, fill.special, plant)
					return v
				}

				v := mk(1, fill.plant == 1)
				want := Clone(v)
				var acc, wantAcc [4]float64
				pureGo(func() { ScaleSquares(want, -0.37, &wantAcc) })
				ScaleSquares(v, -0.37, &acc)
				if i, ok := sameKernelOutput(v, want); !ok {
					t.Fatalf("ScaleSquares %s: element %d = %v, Go loop %v", name, i, v[i], want[i])
				}
				if i, ok := sameKernelOutput(acc[:], wantAcc[:]); !ok {
					t.Fatalf("ScaleSquares %s: lane %d = %v, Go loop %v", name, i, acc[i], wantAcc[i])
				}

				v = mk(1, fill.plant == 1)
				want = Clone(v)
				pureGo(func() { divideBy(want, 0.37) })
				divideBy(v, 0.37)
				if i, ok := sameKernelOutput(v, want); !ok {
					t.Fatalf("divideBy %s: element %d = %v, Go loop %v", name, i, v[i], want[i])
				}

				p, vel, g := mk(2, false), mk(3, fill.plant == 1), mk(4, fill.plant == 2)
				wantP, wantV, wantG := Clone(p), Clone(vel), Clone(g)
				pureGo(func() { MomentumStep(wantP, wantV, wantG, 0.5, 0.0125) })
				MomentumStep(p, vel, g, 0.5, 0.0125)
				if i, ok := sameKernelOutput(vel, wantV); !ok {
					t.Fatalf("MomentumStep %s: velocity %d = %v, Go loop %v", name, i, vel[i], wantV[i])
				}
				if i, ok := sameKernelOutput(p, wantP); !ok {
					t.Fatalf("MomentumStep %s: parameter %d = %v, Go loop %v", name, i, p[i], wantP[i])
				}
				for i := range g {
					if math.Float64bits(g[i]) != 0 || math.Float64bits(wantG[i]) != 0 {
						t.Fatalf("MomentumStep %s: gradient %d left %v (kernel), %v (Go loop), want +0", name, i, g[i], wantG[i])
					}
				}

				for rows := 1; rows <= 9 && n > 0; rows++ {
					m := offsetDense(rows, n, off)
					fillKernel(m.Data, uint64(rows), fill.special, fill.plant == 2)
					dst := mk(5, fill.plant == 1)
					wantDst := Clone(dst)
					pureGo(func() { AddRowsTo(wantDst, m) })
					AddRowsTo(dst, m)
					if i, ok := sameKernelOutput(dst, wantDst); !ok {
						t.Fatalf("AddRowsTo %s rows=%d: element %d = %v, Go loop %v", name, rows, i, dst[i], wantDst[i])
					}
				}
			}
		}
	}
}

// BenchmarkF64Kernels times the assembly kernels against the Go loops they
// shadow at the codec's three layer shapes (in -> out), for a training
// minibatch (m=8) and a long served message (m=96): the layer forward
// (MulMatTAddRow), the input gradient (MulMat) and the weight gradient
// (AddOuterBatch); and the rest of a fine-tune step at its shapes: the
// softmax of a minibatch's 8x59 logits, the out-layer's bias gradient over
// the same 8 rows, and the optimizer's two sweeps over 2,048 gradient
// values (about a codec's): scale-and-square, and the momentum step that
// clears the gradient.
func BenchmarkF64Kernels(b *testing.B) {
	if !useAVX2 {
		b.Skip("no AVX2: only the Go loops exist on this machine")
	}
	run := func(b *testing.B, name string, op func()) {
		b.Run(name+"/asm", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op()
			}
		})
		b.Run(name+"/go", func(b *testing.B) {
			pureGo(func() {
				for i := 0; i < b.N; i++ {
					op()
				}
			})
		})
	}
	layers := []struct{ in, out int }{{16, 8}, {8, 24}, {24, 59}}
	for _, l := range layers {
		for _, m := range []int{8, 96} {
			w := NewDense(l.out, l.in)
			x := NewDense(m, l.in)
			dy := NewDense(m, l.out)
			w.Randomize(NewRNG(1), 1)
			x.Randomize(NewRNG(2), 1)
			dy.Randomize(NewRNG(3), 1)
			bias := make([]float64, l.out)
			y := NewDense(m, l.out)
			dx := NewDense(m, l.in)
			gw := NewDense(l.out, l.in)
			ops := []struct {
				name string
				run  func()
			}{
				{"forward", func() { MulMatTAddRow(y, x, w, bias) }},
				{"inputgrad", func() { MulMat(dx, dy, w) }},
				{"weightgrad", func() { AddOuterBatch(gw, 1, dy, x) }},
			}
			for _, op := range ops {
				run(b, fmt.Sprintf("%s/%dto%d/m%d", op.name, l.in, l.out, m), op.run)
			}
		}
	}

	logits := NewDense(8, 59)
	logits.Randomize(NewRNG(4), 3)
	probs := NewDense(8, 59)
	gB := make([]float64, 59)
	g := make([]float64, 2048)
	p := make([]float64, len(g))
	v := make([]float64, len(g))
	for _, x := range [][]float64{g, p, v} {
		fillKernel(x, uint64(len(x)), 0, false)
	}
	run(b, "softmax/8x59", func() { SoftmaxRows(probs, logits) })
	run(b, "biasgrad/8x59", func() { AddRowsTo(gB, logits) })
	// Scale 1 and momentum 1 keep the values where they are: the gradient
	// is +0 after the first momentum step, and the velocity stays put.
	run(b, "scalesquares/2048", func() {
		var acc [4]float64
		ScaleSquares(g, 1, &acc)
	})
	run(b, "momentumclear/2048", func() { MomentumStep(p, v, g, 1, 1e-3) })
}
