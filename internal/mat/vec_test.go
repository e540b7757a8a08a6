package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestDot(t *testing.T) {
	got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6})
	if got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAddToAXPYScale(t *testing.T) {
	v := []float64{1, 2, 3}
	AddTo(v, []float64{1, 1, 1})
	if v[0] != 2 || v[2] != 4 {
		t.Fatalf("AddTo result %v", v)
	}
	AXPY(v, 2, []float64{1, 0, 1})
	if v[0] != 4 || v[1] != 3 || v[2] != 6 {
		t.Fatalf("AXPY result %v", v)
	}
	Scale(v, 0.5)
	if v[0] != 2 || v[2] != 3 {
		t.Fatalf("Scale result %v", v)
	}
}

func TestCloneIndependent(t *testing.T) {
	v := []float64{1, 2}
	c := Clone(v)
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine([]float64{1, 0}, []float64{1, 0}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Cosine identical = %v", got)
	}
	if got := Cosine([]float64{1, 0}, []float64{0, 1}); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("Cosine orthogonal = %v", got)
	}
	if got := Cosine([]float64{1, 0}, []float64{-1, 0}); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("Cosine opposite = %v", got)
	}
	if got := Cosine([]float64{0, 0}, []float64{1, 0}); got != 0 {
		t.Fatalf("Cosine zero vector = %v, want 0", got)
	}
}

func TestArgmax(t *testing.T) {
	if got := Argmax([]float64{1, 5, 3}); got != 1 {
		t.Fatalf("Argmax = %d, want 1", got)
	}
	if got := Argmax(nil); got != -1 {
		t.Fatalf("Argmax(nil) = %d, want -1", got)
	}
	// Ties resolve to lowest index.
	if got := Argmax([]float64{2, 2}); got != 0 {
		t.Fatalf("Argmax tie = %d, want 0", got)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	logits := []float64{1, 2, 3, 4}
	p := make([]float64, 4)
	Softmax(p, logits)
	sum := 0.0
	prev := -1.0
	for _, v := range p {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax element out of (0,1): %v", v)
		}
		if v < prev {
			t.Fatal("softmax not monotone in logits")
		}
		prev = v
		sum += v
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Fatalf("softmax sums to %v", sum)
	}
}

func TestSoftmaxStability(t *testing.T) {
	p := make([]float64, 2)
	Softmax(p, []float64{1000, 1001})
	if math.IsNaN(p[0]) || math.IsInf(p[1], 0) {
		t.Fatal("softmax overflowed on large logits")
	}
	if !almostEqual(p[0]+p[1], 1, 1e-12) {
		t.Fatalf("softmax large-logit sum = %v", p[0]+p[1])
	}
}

func TestTanhClampMaxAbs(t *testing.T) {
	v := []float64{-10, 0, 10}
	Tanh(v, v)
	if !almostEqual(v[0], -1, 1e-3) || v[1] != 0 || !almostEqual(v[2], 1, 1e-3) {
		t.Fatalf("Tanh = %v", v)
	}
	if got := MaxAbs([]float64{-4, 2}); got != 4 {
		t.Fatalf("MaxAbs = %v", got)
	}
	if got := MaxAbs(nil); got != 0 {
		t.Fatalf("MaxAbs(nil) = %v", got)
	}
}

// Property: cosine similarity is always within [-1, 1] (up to rounding) and
// symmetric.
func TestCosineQuick(t *testing.T) {
	f := func(a, b [8]float64) bool {
		x, y := a[:], b[:]
		for _, s := range [][]float64{x, y} {
			for i, v := range s {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				s[i] = math.Mod(v, 1e6)
			}
		}
		c1 := Cosine(x, y)
		c2 := Cosine(y, x)
		return c1 >= -1-1e-9 && c1 <= 1+1e-9 && almostEqual(c1, c2, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is a probability distribution for any finite
// logits.
func TestSoftmaxQuick(t *testing.T) {
	f := func(raw [6]float64) bool {
		logits := make([]float64, 6)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			// Keep magnitudes finite but allow a wide range.
			logits[i] = math.Mod(v, 1e6)
		}
		p := make([]float64, 6)
		Softmax(p, logits)
		sum := 0.0
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is bilinear in its first argument: Dot(ax+y, z) =
// a*Dot(x,z) + Dot(y,z).
func TestDotBilinearQuick(t *testing.T) {
	f := func(xa, ya, za [5]float64, a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			a = 1
		}
		a = math.Mod(a, 100)
		x, y, z := xa[:], ya[:], za[:]
		for i := 0; i < 5; i++ {
			for _, s := range []*[5]float64{&xa, &ya, &za} {
				if math.IsNaN(s[i]) || math.IsInf(s[i], 0) {
					s[i] = 0
				}
				s[i] = math.Mod(s[i], 100)
			}
		}
		lhsVec := make([]float64, 5)
		for i := range lhsVec {
			lhsVec[i] = a*x[i] + y[i]
		}
		lhs := Dot(lhsVec, z)
		rhs := a*Dot(x, z) + Dot(y, z)
		return almostEqual(lhs, rhs, 1e-6*(1+math.Abs(lhs)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
