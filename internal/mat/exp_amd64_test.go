//go:build amd64 && !purego

package mat

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The exp and tanh kernels claim math.Exp's and math.Tanh's bits, not an
// approximation of them: these tests compare the dispatched entry points
// (expShift, Tanh, Softmax) with the math package element by element.

// requireExpKernels fails, like requireAVX2, when the exp and tanh kernels
// would not run.
func requireExpKernels(t *testing.T) {
	t.Helper()
	requireAVX2(t)
	if !expOnFMAPath {
		t.Fatal("expOnFMAPath is false: math.Exp is off its FMA path (GODEBUG cpu.fma or cpu.avx off?), so the exp and tanh kernels would go untested")
	}
}

// expTanhEdges are the inputs where a kernel could part from the math
// package: signed zeros, subnormals, non-finite values, tanh's branch
// point and cut-offs, and the ends of the exp kernel's range.
func expTanhEdges() []float64 {
	v := []float64{
		0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
		math.SmallestNonzeroFloat64 * 3, 1e-300, -1e-200,
		math.Inf(1), math.Inf(-1), math.NaN(),
		44, -44, 44.014845965556525, -44.014845965556525, 43.999999, 44.0000001,
		700, -700, 699.9999999999999, -699.9999999999999, 709.78, -708, -708.4, 709.782712893384,
		1, -1, 0.5, 2, 20, -20, 1e6, -1e6, math.MaxFloat64, -math.MaxFloat64,
	}
	for _, c := range []float64{0.625, -0.625, 350, -350} {
		x := c
		for i := 0; i < 4; i++ {
			x = math.Nextafter(x, math.Inf(-1))
			v = append(v, x)
		}
		x = c
		for i := 0; i < 4; i++ {
			x = math.Nextafter(x, math.Inf(1))
			v = append(v, x)
		}
		v = append(v, c)
	}
	return v
}

// checkExpTanh runs src through expShift (shift 0) and Tanh and compares
// every element with math.Exp / math.Tanh bit for bit.
func checkExpTanh(t *testing.T, src []float64) {
	t.Helper()
	dst := make([]float64, len(src))
	expShift(dst, src, 0)
	for i, x := range src {
		if want := math.Exp(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("exp(%v) (element %d of %d) = %x (%v), math.Exp %x (%v)",
				x, i, len(src), math.Float64bits(dst[i]), dst[i], math.Float64bits(want), want)
		}
	}
	Tanh(dst, src)
	for i, x := range src {
		if want := math.Tanh(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("tanh(%v) (element %d of %d) = %x (%v), math.Tanh %x (%v)",
				x, i, len(src), math.Float64bits(dst[i]), dst[i], math.Float64bits(want), want)
		}
	}
}

// TestExpTanhKernelsBitExact: random arguments over the whole finite range
// and over each kernel's working range, and every edge value in every lane
// position of slices of length 0 to 9 (so whole blocks, tails and the
// fall-back to the math package after a rejected block all run).
func TestExpTanhKernelsBitExact(t *testing.T) {
	requireExpKernels(t)
	rng := NewRNG(17)
	for _, spread := range []float64{1, 3, 50, 750} {
		src := make([]float64, 4099)
		for i := range src {
			src[i] = (2*rng.Float64() - 1) * spread
		}
		checkExpTanh(t, src)
	}
	finite := make([]float64, 4096)
	for i := range finite {
		for {
			finite[i] = math.Float64frombits(rng.Uint64())
			if !math.IsNaN(finite[i]) && !math.IsInf(finite[i], 0) {
				break
			}
		}
	}
	checkExpTanh(t, finite)

	edges := expTanhEdges()
	for n := 0; n <= 9; n++ {
		for _, e := range edges {
			for lane := 0; lane < max(n, 1); lane++ {
				src := make([]float64, n)
				for i := range src {
					src[i] = (2*rng.Float64() - 1) * 3
				}
				if n > 0 {
					src[lane] = e
				}
				checkExpTanh(t, src)
			}
		}
	}
}

// TestSoftmaxKernelMatchesGo compares Softmax on the exp kernel with the
// pure-Go loop over row lengths around the block size, including rows whose
// spread pushes some arguments past the kernel's range.
func TestSoftmaxKernelMatchesGo(t *testing.T) {
	requireExpKernels(t)
	rng := NewRNG(23)
	for _, n := range []int{1, 3, 4, 5, 8, 9, 24, 59, 64} {
		for _, spread := range []float64{0.1, 5, 400} {
			logits := make([]float64, n)
			for i := range logits {
				logits[i] = (2*rng.Float64() - 1) * spread
			}
			want := make([]float64, n)
			pureGo(func() { Softmax(want, logits) })
			got := make([]float64, n)
			Softmax(got, logits)
			if i, ok := sameKernelOutput(got, want); !ok {
				t.Fatalf("n=%d spread=%v: p[%d] = %v, Go loop %v", n, spread, i, got[i], want[i])
			}
		}
	}
}

// TestExpKernelsFollowMathUnderGODEBUG re-runs the kernel comparison in a
// child process with GODEBUG=cpu.fma=off, where math.Exp leaves the FMA
// path the kernels repeat and rounds about one argument in eleven
// differently: expOnFMAPath must see that and route every element to the
// math package, so the results still match. (A GOAMD64=v3 build requires
// FMA and ignores the setting; math.Exp stays on the FMA path and so do
// the kernels.)
func TestExpKernelsFollowMathUnderGODEBUG(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		checkExpTanh(t, expTanhEdges())
		rng := NewRNG(5)
		src := make([]float64, 1024)
		for i := range src {
			src[i] = (2*rng.Float64() - 1) * 20
		}
		checkExpTanh(t, src)
		return
	}
	requireExpKernels(t)
	cmd := exec.Command(os.Args[0], "-test.run=^TestExpKernelsFollowMathUnderGODEBUG$", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child with GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// FuzzExpTanhKernels: six fuzzer-chosen arguments (one block and a tail)
// and a shift, through expShift and Tanh, against math.Exp and math.Tanh.
func FuzzExpTanhKernels(f *testing.F) {
	edges := expTanhEdges()
	for i := 0; i+6 < len(edges); i += 3 {
		f.Add(edges[i], edges[i+1], edges[i+2], edges[i+3], edges[i+4], edges[i+5], 0.0)
	}
	f.Add(0.3, -0.7, 1.2, 0.625, -2.5, 9.0, 1.5)
	f.Add(-650.0, -3.0, 1.0, 0.0, 40.0, 600.0, 60.0)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, shift float64) {
		requireExpKernels(t)
		src := []float64{a, b, c, d, e, g}
		dst := make([]float64, len(src))
		expShift(dst, src, shift)
		for i, x := range src {
			if want := math.Exp(x - shift); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("exp(%v - %v) = %x, math.Exp %x", x, shift, math.Float64bits(dst[i]), math.Float64bits(want))
			}
		}
		checkExpTanh(t, src)
	})
}
