package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {-5, 1}, {200, 5},
	}
	for _, tc := range tests {
		if got := Percentile(vals, tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	// Interpolation between points.
	if got := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Errorf("interpolated median = %v, want 5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Percentile(vals, 50)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatal("Percentile mutated input")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileQuick(t *testing.T) {
	f := func(raw [12]float64, p1, p2 float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			vals = append(vals, math.Mod(v, 1e6))
		}
		if len(vals) == 0 {
			return true
		}
		p1 = math.Abs(math.Mod(p1, 100))
		p2 = math.Abs(math.Mod(p2, 100))
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		lo, hi := Percentile(vals, 0), Percentile(vals, 100)
		a, b := Percentile(vals, p1), Percentile(vals, p2)
		return a <= b+1e-9 && a >= lo-1e-9 && b <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
