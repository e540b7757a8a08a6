package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.N() != 0 || h.Mean() != 0 || h.P(50) != 0 {
		t.Fatalf("empty histogram not zero: n=%d mean=%v p50=%v", h.N(), h.Mean(), h.P(50))
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewLatencyHistogram()
	// Uniform ramp 1..1000 ms: quantiles are known exactly.
	for v := 1.0; v <= 1000; v++ {
		h.Observe(v)
	}
	if h.N() != 1000 {
		t.Fatalf("n = %d", h.N())
	}
	ratio := math.Pow(10, 0.1)
	for _, tc := range []struct{ p, want float64 }{
		{50, 500}, {95, 950}, {99, 990},
	} {
		got := h.P(tc.p)
		// Log-spaced buckets bound the relative error by one bucket ratio.
		if got < tc.want/ratio || got > tc.want*ratio {
			t.Fatalf("P(%v) = %v, want within one bucket of %v", tc.p, got, tc.want)
		}
	}
	wantMean := 500.5
	if math.Abs(h.Mean()-wantMean) > 1e-9 {
		t.Fatalf("mean = %v, want %v", h.Mean(), wantMean)
	}
}

func TestHistogramUnderOverflow(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(1e-6) // underflow
	h.Observe(-4)   // negative: underflow, still counted
	h.Observe(1e9)  // overflow
	if h.N() != 3 {
		t.Fatalf("n = %d", h.N())
	}
	if got := h.P(1); got != 1e-3 {
		t.Fatalf("underflow quantile = %v, want clamped to lo", got)
	}
	if got := h.P(99.9); got != 1e5 {
		t.Fatalf("overflow quantile = %v, want clamped to hi", got)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewLatencyHistogram()
	// Exact bucket boundaries must not panic or land out of range.
	for i := -30; i <= 50; i++ {
		h.Observe(math.Pow(10, float64(i)/10))
	}
	if h.N() != 81 {
		t.Fatalf("n = %d", h.N())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewLatencyHistogram()
	const workers, each = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(float64(1+(w*each+i)%500) * 0.1)
			}
		}(w)
	}
	wg.Wait()
	if h.N() != workers*each {
		t.Fatalf("lost observations: n = %d, want %d", h.N(), workers*each)
	}
	if p50 := h.P(50); p50 <= 0 {
		t.Fatalf("p50 = %v after %d observations", p50, h.N())
	}
	// Sum is order-independent up to FP association; bound loosely.
	want := 0.0
	for i := 0; i < workers*each; i++ {
		want += float64(1+i%500) * 0.1
	}
	if math.Abs(h.Mean()-want/float64(workers*each)) > 1e-6 {
		t.Fatalf("mean = %v, want ~%v", h.Mean(), want/float64(workers*each))
	}
}
