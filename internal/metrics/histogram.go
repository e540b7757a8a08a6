package metrics

import (
	"math"
	"sync/atomic"
)

// Histogram is a streaming histogram over positive values with fixed
// log-spaced buckets. It keeps O(buckets) memory regardless of how many
// observations it absorbs, and is safe for concurrent use: Observe is a
// single atomic increment, so request paths can record into a shared
// instance without locking.
//
// Quantiles are approximate: the answer is exact to within one bucket
// ratio (~26% width at 10 buckets per decade), which is ample for latency
// reporting. Values below the low bound land in an underflow bucket and
// report as that bound; values at or above the high bound land in an
// overflow bucket and report as that bound.
type Histogram struct {
	lo, hi  float64
	invLogR float64 // 1 / ln(ratio)
	logLo   float64
	ratio   float64
	counts  []atomic.Int64
	under   atomic.Int64
	over    atomic.Int64
	n       atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewLatencyHistogram returns the one histogram layout, shared by the
// daemon and the load generator: [1µs, 100s) in milliseconds, 10
// log-spaced buckets per decade.
func NewLatencyHistogram() *Histogram {
	const lo, hi, perDecade float64 = 1e-3, 1e5, 10
	nBuckets := int(math.Ceil(math.Log10(hi/lo) * perDecade))
	ratio := math.Pow(10, 1/perDecade)
	return &Histogram{
		lo:      lo,
		hi:      hi,
		ratio:   ratio,
		invLogR: 1 / math.Log(ratio),
		logLo:   math.Log(lo),
		counts:  make([]atomic.Int64, nBuckets),
	}
}

// Observe folds one value into the histogram.
func (h *Histogram) Observe(v float64) {
	h.n.Add(1)
	h.addSum(v)
	switch {
	case v < h.lo:
		h.under.Add(1)
	case v >= h.hi:
		h.over.Add(1)
	default:
		i := int((math.Log(v) - h.logLo) * h.invLogR)
		// Guard the edges against floating-point rounding.
		if i < 0 {
			i = 0
		} else if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
		h.counts[i].Add(1)
	}
}

// addSum atomically accumulates the running sum of observations.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.n.Load() }

// Mean returns the mean of all observations (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load()) / float64(n)
}

// P returns the p-th percentile (0-100), log-interpolated within the
// containing bucket. Concurrent Observe calls make the answer a snapshot,
// not an instant: each counter is read once, in order.
func (h *Histogram) P(p float64) float64 {
	total := h.under.Load()
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	total += h.over.Load()
	if total == 0 {
		return 0
	}
	rank := p / 100 * float64(total)
	cum := float64(h.under.Load())
	if rank <= cum && cum > 0 {
		return h.lo
	}
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			frac := (rank - cum) / c
			lower := h.lo * math.Pow(h.ratio, float64(i))
			return lower * math.Pow(h.ratio, frac)
		}
		cum += c
	}
	return h.hi
}
