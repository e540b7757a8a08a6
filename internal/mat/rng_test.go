package mat

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs out of 100", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d of 7 values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestReseedRestartsStream(t *testing.T) {
	r := NewRNG(42)
	fresh := NewRNG(42)
	// Advance by an odd number of normal draws so a polar-method spare is
	// pending, then reseed: the stream must restart exactly, which also
	// proves the spare was discarded.
	for i := 0; i < 7; i++ {
		r.NormFloat64()
	}
	r.Reseed(42)
	for i := 0; i < 20; i++ {
		if a, b := r.NormFloat64(), fresh.NormFloat64(); a != b {
			t.Fatalf("reseeded stream diverged from fresh at step %d: %v != %v", i, a, b)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(123)
	child := parent.Split()
	// The child must not replay the parent's stream.
	a := make([]uint64, 20)
	for i := range a {
		a[i] = child.Uint64()
	}
	parent2 := NewRNG(123)
	matches := 0
	for i := 0; i < 20; i++ {
		if parent2.Uint64() == a[i] {
			matches++
		}
	}
	if matches > 1 {
		t.Fatalf("child stream overlaps parent stream in %d/20 positions", matches)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(17)
	z := NewZipf(r, 10, 1.0)
	counts := make([]int, 10)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[z.Sample()]++
	}
	// Rank-0 must dominate rank-9 heavily under s=1.
	if counts[0] < 5*counts[9] {
		t.Fatalf("Zipf skew too weak: counts[0]=%d counts[9]=%d", counts[0], counts[9])
	}
	// Monotone non-increasing within sampling noise for the head.
	if counts[0] < counts[1] || counts[1] < counts[2] {
		t.Fatalf("Zipf head not monotone: %v", counts[:3])
	}
}

func TestZipfCoversRange(t *testing.T) {
	r := NewRNG(23)
	z := NewZipf(r, 5, 0.8)
	if len(z.cdf) != 5 {
		t.Fatalf("sampler draws from %d items, want 5", len(z.cdf))
	}
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := z.Sample()
		if v < 0 || v >= 5 {
			t.Fatalf("Zipf sample out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Zipf hit only %d of 5 values", len(seen))
	}
}

func TestZipfPanics(t *testing.T) {
	r := NewRNG(1)
	for _, tc := range []struct {
		name string
		n    int
		s    float64
	}{
		{"zero n", 0, 1},
		{"negative s", 3, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewZipf(r, tc.n, tc.s)
		})
	}
}
