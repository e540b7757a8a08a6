package experiments

import (
	"math"

	"repro/internal/channel"
	"repro/internal/mat"
)

// This file holds the links only the tables sweep: the uncoded and
// repetition rows and the analog transport of the ablation, its erasure
// channel, and E1's Rayleigh fading. The daemon's link — Hamming(7,4),
// BPSK, AWGN — lives in channel.

// identityCode is the no-coding passthrough ("digital/none").
type identityCode struct{}

// EncodeTo implements channel.Code.
func (identityCode) EncodeTo(dst, bits []bool) []bool {
	return append(dst, bits...)
}

// DecodeTo implements channel.Code.
func (identityCode) DecodeTo(dst, coded []bool) []bool {
	return append(dst, coded...)
}

// repetitionCode repeats every bit n times and decodes by majority vote;
// n must be odd ("digital/rep3" sends 3).
type repetitionCode struct {
	n int
}

// EncodeTo implements channel.Code.
func (r repetitionCode) EncodeTo(dst, bits []bool) []bool {
	for _, b := range bits {
		for i := 0; i < r.n; i++ {
			dst = append(dst, b)
		}
	}
	return dst
}

// DecodeTo implements channel.Code.
func (r repetitionCode) DecodeTo(dst, coded []bool) []bool {
	count := len(coded) / r.n
	for i := 0; i < count; i++ {
		ones := 0
		for j := 0; j < r.n; j++ {
			if coded[i*r.n+j] {
				ones++
			}
		}
		dst = append(dst, ones*2 > r.n)
	}
	return dst
}

// rayleighChannel models flat per-symbol Rayleigh fading with AWGN and
// perfect channel state information at the receiver: y = h*x + n,
// equalized as y/h.
type rayleighChannel struct {
	sigma float64   // per-component noise sigma
	rng   *mat.RNG  // drives fading and noise
	noise []float64 // reused block-draw buffer
}

// newRayleigh returns the fading channel at an average per-symbol SNR of
// snrDB, its noise scaled as channel.AWGN scales it.
func newRayleigh(snrDB float64, rng *mat.RNG) *rayleighChannel {
	return &rayleighChannel{sigma: (&channel.AWGN{SNRdB: snrDB}).NoiseSigma(), rng: rng}
}

// TransmitTo implements channel.Channel. It draws all four deviates per
// symbol — h_re, h_im, n_re, n_im — as one block per message,
// bit-identical to the scalar sequence.
func (c *rayleighChannel) TransmitTo(dst, symbols []complex128) []complex128 {
	need := 4 * len(symbols)
	if cap(c.noise) < need {
		c.noise = make([]float64, need)
	}
	nz := c.noise[:need]
	c.rng.NormFloat64Block(nz)
	for i, s := range symbols {
		// h ~ CN(0,1): unit average power fade.
		h := complex(nz[4*i]/math.Sqrt2, nz[4*i+1]/math.Sqrt2)
		// Avoid pathological division in deep fades.
		if abs := math.Hypot(real(h), imag(h)); abs < 1e-3 {
			h = complex(1e-3, 0)
		}
		n := complex(c.sigma*nz[4*i+2], c.sigma*nz[4*i+3])
		dst = append(dst, (h*s+n)/h)
	}
	return dst
}

// erasureChannel zeroes each symbol independently with probability p,
// modeling deep packet-level losses.
type erasureChannel struct {
	p   float64  // per-symbol erasure probability in [0,1]
	rng *mat.RNG // drives erasures
}

// TransmitTo implements channel.Channel.
func (c *erasureChannel) TransmitTo(dst, symbols []complex128) []complex128 {
	for _, s := range symbols {
		if c.rng.Float64() < c.p {
			dst = append(dst, 0)
		} else {
			dst = append(dst, s)
		}
	}
	return dst
}

// analogLink transmits features directly as symbol amplitudes (two feature
// dimensions per complex symbol) with no quantization or coding — the
// DeepSC-style analog transport of the ablation. It keeps its own symbol
// buffers, so one value serves one goroutine.
type analogLink struct {
	ch                channel.Channel
	symbols, received []complex128
}

// SendFlatScratch transmits a flat feature buffer in analog form under
// the contract of channel.FeatureLink.SendFlatScratch; ts is unused.
// Payload accounting charges what the default digital link would — one
// channel.DefaultQuantizer code per dimension — so analog and digital rows
// are comparable in the ablation tables.
func (l *analogLink) SendFlatScratch(_ *channel.TxScratch, dst, flat []float64) channel.LinkStats {
	if len(dst) != len(flat) {
		panic("experiments: SendFlatScratch buffer length mismatch")
	}
	l.symbols = l.symbols[:0]
	for i := 0; i < len(flat); i += 2 {
		im := 0.0
		if i+1 < len(flat) {
			im = flat[i+1]
		}
		l.symbols = append(l.symbols, complex(flat[i], im))
	}
	l.received = l.ch.TransmitTo(l.received[:0], l.symbols)
	for i, r := range l.received {
		dst[2*i] = real(r)
		if 2*i+1 < len(dst) {
			dst[2*i+1] = imag(r)
		}
	}
	bits := channel.DefaultQuantizer().Bits * len(flat)
	return channel.LinkStats{InfoBits: bits, CodedBits: bits, Symbols: len(l.symbols)}
}
