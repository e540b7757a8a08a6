package channel

import (
	"math"

	"repro/internal/mat"
)

// Channel distorts a symbol stream as a physical medium would.
type Channel interface {
	// TransmitTo appends the received symbols for the sent symbols to dst
	// and returns it, like the built-in append.
	TransmitTo(dst, symbols []complex128) []complex128
}

// Clean is a distortion-free channel, useful as a control condition.
type Clean struct{}

var _ Channel = Clean{}

// TransmitTo implements Channel.
func (Clean) TransmitTo(dst, symbols []complex128) []complex128 {
	return append(dst, symbols...)
}

// AWGN adds complex white Gaussian noise at a configured signal-to-noise
// ratio, assuming unit average symbol energy.
type AWGN struct {
	// SNRdB is the per-symbol signal-to-noise ratio in decibels.
	SNRdB float64
	// Rng drives the noise; it must be non-nil.
	Rng *mat.RNG

	// sigma caches NoiseSigma() for the current SNRdB (the pow+sqrt is
	// measurable per message), and noise is the reusable block-draw buffer;
	// both make TransmitTo stateful, which is fine because the Rng field
	// already makes a channel single-goroutine.
	sigmaFor float64
	sigma    float64
	hardThr  float64 // hardFlipThreshold(sigma), for the fused crossing
	sigmaOK  bool
	noise    []float64
}

var _ Channel = (*AWGN)(nil)

// NoiseSigma returns the per-component noise standard deviation implied by
// SNRdB for unit-energy symbols.
func (c *AWGN) NoiseSigma() float64 {
	noisePower := math.Pow(10, -c.SNRdB/10)
	return math.Sqrt(noisePower / 2)
}

// noiseSigmaCached returns NoiseSigma(), recomputing only when SNRdB
// changed since the last call.
func (c *AWGN) noiseSigmaCached() float64 {
	if !c.sigmaOK || c.sigmaFor != c.SNRdB {
		c.sigma = c.NoiseSigma()
		c.hardThr = hardFlipThreshold(c.sigma)
		c.sigmaFor = c.SNRdB
		c.sigmaOK = true
	}
	return c.sigma
}

// noiseBlock fills and returns c's reusable buffer with n normal deviates
// drawn as one block: bit-identical to n scalar NormFloat64 calls
// (mat.RNG.NormFloat64Block), amortizing per-draw call overhead across the
// whole message.
func (c *AWGN) noiseBlock(n int) []float64 {
	if cap(c.noise) < n {
		c.noise = make([]float64, n)
	}
	nz := c.noise[:n]
	c.Rng.NormFloat64Block(nz)
	return nz
}

// TransmitTo implements Channel; the block draw reproduces the scalar
// NormFloat64 sequence — real deviate, then imaginary, per symbol — bit
// for bit.
func (c *AWGN) TransmitTo(dst, symbols []complex128) []complex128 {
	sigma := c.noiseSigmaCached()
	nz := c.noiseBlock(2 * len(symbols))
	for i, s := range symbols {
		dst = append(dst, complex(awgnComponent(real(s), sigma, nz[2*i]), awgnComponent(imag(s), sigma, nz[2*i+1])))
	}
	return dst
}

// awgnComponent is one real component of a received AWGN symbol: the sent
// component x plus the standard normal deviate n scaled to the channel's
// sigma. TransmitTo and the fused hard-decision crossing (hard.go) both
// evaluate it, so the two paths cannot drift apart by a rounding.
func awgnComponent(x, sigma, n float64) float64 { return x + sigma*n }
