// Package metrics provides the small statistics shared by the daemon's
// stats, the load generator and the experiments: percentiles and latency
// histograms.
package metrics

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0-100) of values using linear
// interpolation; it copies and sorts internally. It returns 0 for empty
// input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
