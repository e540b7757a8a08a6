// Package mat provides the small, dependency-free numerical substrate used
// by the semantic-codec training stack: dense matrices, vector kernels and a
// deterministic random number generator.
//
// Everything in this package is deterministic given a seed, which is what
// makes the experiment harness bit-reproducible across runs.
package mat

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator based on SplitMix64.
//
// It is intentionally not safe for concurrent use; callers that need
// parallel streams should derive independent generators with Split.
type RNG struct {
	state uint64
	// spare holds a cached second normal deviate from the polar method.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Reseed resets the generator to the exact state NewRNG(seed) would
// produce, discarding any cached polar spare. It lets a long-lived
// generator (and whatever buffers hang off its consumers) be reused for
// many independent short streams without reallocating. The body is two
// stores and inlines into per-message call sites: the lock-free channel
// stage reseeds once per transmission, so this sits on the serve path.
// The stale spare value itself is left in place — hasSpare alone gates
// every read of it, so clearing the float would be a third store for
// nothing.
func (r *RNG) Reseed(seed uint64) {
	r.state = seed
	r.hasSpare = false
}

// splitMixGamma is what every draw adds to the state.
const splitMixGamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += splitMixGamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits -> [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, mirroring
// math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mat: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// PolarPairs fills s — and the first len(s) entries of u and v, which must
// be at least as long — with the next len(s) accepted pairs of the
// Marsaglia polar method before scaling: u[i] and v[i] uniform in (-1, 1)
// with s[i] = u[i]² + v[i]² in (0, 1). Pair i's two standard normal
// deviates are u[i]*PolarScale(s[i]) and v[i]*PolarScale(s[i]).
//
// This is the generator's only rejection loop; NormFloat64 and
// NormFloat64Block are built on it, so a caller that needs less than the
// full deviate — a hard-decision receiver only has to know whether the
// noise can cross its boundary, which s bounds — consumes exactly the
// uniforms the same number of NormFloat64 pairs would: two per attempt,
// the last attempt consumed being the last pair accepted. It neither reads
// nor writes the cached spare; callers mixing it with NormFloat64 on one
// stream check HasSpare first.
//
// Every attempt is stored at the next free slot and the slot advances only
// when the attempt is accepted, so a rejected attempt (21 % of them) is
// overwritten by the next one instead of steering a branch the predictor
// cannot learn. The acceptance test 0 < s < 1 is one unsigned comparison
// of the bit pattern — non-negative floats order like their bits, and
// subtracting one wraps +0 past every valid value — which is what lets the
// compiler turn the advance into a conditional increment.
func (r *RNG) PolarPairs(u, v, s []float64) {
	u, v = u[:len(s)], v[:len(s)]
	const one = 0x3ff0000000000000 // math.Float64bits(1)
	for n := 0; n < len(s); {
		a := 2*r.Float64() - 1
		b := 2*r.Float64() - 1
		ss := a*a + b*b
		u[n], v[n], s[n] = a, b, ss
		if math.Float64bits(ss)-1 < one-1 {
			n++
		}
	}
}

// PolarClear advances the generator exactly as PolarPairs would for n
// accepted pairs — the same uniforms, the same s = a² + b² — and reports
// whether every one of those pairs has s > thr, which must not be
// negative. It stores nothing per pair, and it has no branch per
// attempt besides the loop's own: acceptance and the threshold test are
// the borrows of two unsigned subtractions on the float bit patterns
// (non-negative floats order like their bits), summed into the accepted
// count and or-ed into the verdict. A scan that branched on acceptance
// mispredicts on the 21 % of attempts that are rejected, and was measured
// slower than the channel crossing it was meant to shortcut.
//
// With AVX2 the scan runs four attempts at a time first (polar_amd64.s):
// the state only ever adds splitMixGamma, so attempt j of a block draws
// from the state plus (2j+1)γ and (2j+2)γ, and four lanes carry four
// independent attempts through the same mix, uniform, s and comparisons.
// Blocks run only while at least four acceptances are still wanted, so
// none can pass the n-th; the loop below then places the last few from
// where the blocks left the generator. It is also the whole scan on CPUs
// without AVX2, and the oracle the kernel is tested against.
func (r *RNG) PolarClear(n int, thr float64) bool {
	const one = 0x3ff0000000000000 // math.Float64bits(1)
	t := math.Float64bits(thr)
	var bad uint64
	acc := 0
	if useAVX2 {
		var blocks int
		// Capping t keeps the kernel's signed compare in the unsigned order:
		// s is never negative, so its bits are below 2^63 either way.
		blocks, acc, bad = polarScan4(r.state, n, min(t, math.MaxInt64))
		r.state += uint64(8*blocks) * splitMixGamma
	}
	for acc < n {
		a := 2*r.Float64() - 1
		b := 2*r.Float64() - 1
		sb := math.Float64bits(a*a + b*b)
		_, ok := bits.Sub64(sb-1, one-1, 0) // 1 iff 0 < s < 1
		_, above := bits.Sub64(t, sb, 0)    // 1 iff s > thr
		acc += int(ok)
		bad |= ok &^ above
	}
	return bad == 0
}

// PolarScale returns the factor that turns an accepted polar pair's
// uniforms into standard normal deviates: sqrt(-2 ln(s) / s).
func PolarScale(s float64) float64 {
	return math.Sqrt(-2 * math.Log(s) / s)
}

// HasSpare reports whether the next NormFloat64 would return the cached
// second deviate of an earlier polar pair instead of drawing a new one.
func (r *RNG) HasSpare() bool { return r.hasSpare }

// NormFloat64 returns a standard normal deviate using the Marsaglia polar
// method.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s [1]float64
	r.PolarPairs(u[:], v[:], s[:])
	f := PolarScale(s[0])
	r.spare = v[0] * f
	r.hasSpare = true
	return u[0] * f
}

// NormFloat64Block fills dst with standard normal deviates, producing the
// EXACT sequence that len(dst) successive NormFloat64 calls would — it
// consumes a cached spare first and caches a spare when the block ends on
// the first half of a polar pair — so callers can amortize per-value call
// overhead without perturbing the stream. Interleaving block and scalar
// draws on one generator is therefore always bit-identical to scalar-only
// draws.
func (r *RNG) NormFloat64Block(dst []float64) {
	if r.hasSpare && len(dst) > 0 {
		r.hasSpare = false
		dst[0] = r.spare
		dst = dst[1:]
	}
	// Whole pairs, a stack-sized batch at a time, without touching the spare.
	var u, v, s [64]float64
	for len(dst) >= 2 {
		n := min(len(dst)/2, len(s))
		r.PolarPairs(u[:n], v[:n], s[:n])
		for i := 0; i < n; i++ {
			f := PolarScale(s[i])
			dst[2*i] = u[i] * f
			dst[2*i+1] = v[i] * f
		}
		dst = dst[2*n:]
	}
	if len(dst) == 1 {
		// Odd tail: the scalar path caches the pair's second deviate as the
		// spare, exactly like a plain NormFloat64 call.
		dst[0] = r.NormFloat64()
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly reorders the first n elements using swap, with the
// same contract as math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Split derives a new generator whose stream is independent of the parent's
// subsequent output. It is the supported way to hand deterministic
// sub-streams to parallel components.
func (r *RNG) Split() *RNG {
	// Mixing two successive outputs gives a well-separated child state.
	a := r.Uint64()
	b := r.Uint64()
	return NewRNG(a ^ (b << 1) ^ 0x632be59bd9b4e019)
}

// Zipf samples from a Zipf distribution over {0, ..., n-1} with exponent s
// using inverse-CDF lookup on precomputed weights. It is suitable for the
// small ranges (domains, vocabulary buckets) used by the workload generator.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a Zipf sampler over n items with exponent s (s > 0); larger
// s skews mass toward low indices. It panics if n <= 0 or s <= 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("mat: NewZipf called with non-positive n")
	}
	if s <= 0 {
		panic("mat: NewZipf called with non-positive exponent")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Sample draws one index in [0, n) with Zipf-distributed probability.
func (z *Zipf) Sample() int {
	u := z.rng.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
