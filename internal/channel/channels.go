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

// Rayleigh models flat Rayleigh fading with AWGN and perfect channel state
// information at the receiver: y = h*x + n, equalized as y/h.
type Rayleigh struct {
	// SNRdB is the average per-symbol signal-to-noise ratio in decibels.
	SNRdB float64
	// BlockLen is the number of symbols sharing one fading coefficient
	// (coherence block); 0 means per-symbol fading.
	BlockLen int
	// Rng drives fading and noise; it must be non-nil.
	Rng *mat.RNG

	// sigma cache + block-draw buffer, as in AWGN.
	sigmaFor float64
	sigma    float64
	sigmaOK  bool
	noise    []float64
}

var _ Channel = (*Rayleigh)(nil)

// noiseSigmaCached returns the per-component noise sigma, recomputing only
// when SNRdB changed since the last call.
func (c *Rayleigh) noiseSigmaCached() float64 {
	if !c.sigmaOK || c.sigmaFor != c.SNRdB {
		noisePower := math.Pow(10, -c.SNRdB/10)
		c.sigma = math.Sqrt(noisePower / 2)
		c.sigmaFor = c.SNRdB
		c.sigmaOK = true
	}
	return c.sigma
}

// TransmitTo implements Channel. Per-symbol fading (the default) draws all
// four deviates per symbol — h_re, h_im, n_re, n_im — as one block per
// message, bit-identical to the scalar sequence; coherence blocks larger
// than one keep the scalar draw pattern.
func (c *Rayleigh) TransmitTo(dst, symbols []complex128) []complex128 {
	sigma := c.noiseSigmaCached()
	block := c.BlockLen
	if block <= 0 {
		block = 1
	}
	if block == 1 {
		need := 4 * len(symbols)
		if cap(c.noise) < need {
			c.noise = make([]float64, need)
		}
		nz := c.noise[:need]
		c.Rng.NormFloat64Block(nz)
		for i, s := range symbols {
			h := complex(nz[4*i]/math.Sqrt2, nz[4*i+1]/math.Sqrt2)
			// Avoid pathological division in deep fades.
			if abs := math.Hypot(real(h), imag(h)); abs < 1e-3 {
				h = complex(1e-3, 0)
			}
			n := complex(sigma*nz[4*i+2], sigma*nz[4*i+3])
			dst = append(dst, (h*s+n)/h)
		}
		return dst
	}
	var h complex128
	for i, s := range symbols {
		if i%block == 0 {
			// h ~ CN(0,1): unit average power fade.
			h = complex(c.Rng.NormFloat64()/math.Sqrt2, c.Rng.NormFloat64()/math.Sqrt2)
			// Avoid pathological division in deep fades.
			if abs := math.Hypot(real(h), imag(h)); abs < 1e-3 {
				h = complex(1e-3, 0)
			}
		}
		n := complex(sigma*c.Rng.NormFloat64(), sigma*c.Rng.NormFloat64())
		dst = append(dst, (h*s+n)/h)
	}
	return dst
}

// Erasure zeroes each symbol independently with probability P, modeling
// deep packet-level losses.
type Erasure struct {
	// P is the per-symbol erasure probability in [0,1].
	P float64
	// Rng drives erasures; it must be non-nil.
	Rng *mat.RNG
}

var _ Channel = (*Erasure)(nil)

// TransmitTo implements Channel.
func (c *Erasure) TransmitTo(dst, symbols []complex128) []complex128 {
	for _, s := range symbols {
		if c.Rng.Float64() < c.P {
			dst = append(dst, 0)
		} else {
			dst = append(dst, s)
		}
	}
	return dst
}
