package experiments

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/mat"
)

func TestCodesRoundTripClean(t *testing.T) {
	rng := mat.NewRNG(4)
	for _, code := range []channel.Code{identityCode{}, repetitionCode{n: 3}, repetitionCode{n: 5}, channel.Hamming74{}} {
		bits := randomBits(rng, 64)
		decoded := code.DecodeTo(nil, code.EncodeTo(nil, bits))
		if len(decoded) < len(bits) {
			t.Fatalf("%T: decoded shorter than input", code)
		}
		if bitErrors(bits, decoded[:len(bits)]) != 0 {
			t.Fatalf("%T: clean round trip corrupted bits", code)
		}
	}
}

func TestRepetitionCorrectsMinorityErrors(t *testing.T) {
	code := repetitionCode{n: 3}
	bits := []bool{true, false, true, true}
	coded := code.EncodeTo(nil, bits)
	coded[0] = !coded[0] // one of three copies
	coded[5] = !coded[5]
	decoded := code.DecodeTo(nil, coded)
	if bitErrors(bits, decoded) != 0 {
		t.Fatal("rep3 failed to correct single flips")
	}
}

func TestRayleighWorseThanAWGN(t *testing.T) {
	rng := mat.NewRNG(10)
	bits := randomBits(rng, 30000)
	berA := bpskBER(&channel.AWGN{SNRdB: 8, Rng: rng.Split()}, bits)
	berR := bpskBER(newRayleigh(8, rng.Split()), bits)
	if berR <= berA {
		t.Fatalf("Rayleigh BER %v should exceed AWGN BER %v at equal SNR", berR, berA)
	}
}

// TestRayleighDegradesVsAWGN is the same claim one layer up, on the link
// every system crosses: at 6 dB, features sent through DefaultFeatureLink
// arrive further from what was sent over Rayleigh fading than over AWGN,
// Hamming(7,4) included.
func TestRayleighDegradesVsAWGN(t *testing.T) {
	rng := mat.NewRNG(71)
	flat := make([]float64, 80*8*8) // 80 messages of 8 tokens x 8 dims
	for i := range flat {
		flat[i] = 2*rng.Float64() - 1
	}
	mse := func(ch channel.Channel) float64 {
		rx := make([]float64, len(flat))
		channel.DefaultFeatureLink(ch).SendFlatScratch(nil, rx, flat)
		sum := 0.0
		for i := range flat {
			sum += (rx[i] - flat[i]) * (rx[i] - flat[i])
		}
		return sum / float64(len(flat))
	}
	a := mse(&channel.AWGN{SNRdB: 6, Rng: rng.Split()})
	r := mse(newRayleigh(6, rng.Split()))
	// Quantization alone costs both links 0.027; AWGN adds next to nothing
	// behind the code, fading about as much again.
	if r <= 1.5*a {
		t.Fatalf("feature MSE over Rayleigh (%v) should be well above AWGN (%v) at 6 dB", r, a)
	}
}

// scalarRayleigh reproduces the pre-amortization Rayleigh TransmitTo with
// per-symbol fading: two NormFloat64 draws for the fade, then two for the
// noise, symbol by symbol.
func scalarRayleigh(snr float64, rng *mat.RNG, dst, symbols []complex128) []complex128 {
	sigma := math.Sqrt(math.Pow(10, -snr/10) / 2)
	for _, s := range symbols {
		h := complex(rng.NormFloat64()/math.Sqrt2, rng.NormFloat64()/math.Sqrt2)
		if abs := math.Hypot(real(h), imag(h)); abs < 1e-3 {
			h = complex(1e-3, 0)
		}
		n := complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
		dst = append(dst, (h*s+n)/h)
	}
	return dst
}

// TestRayleighBlockDrawBitIdentical proves the block-drawn Rayleigh channel
// is bit-identical to the scalar draw order across messages of varying
// lengths on one shared RNG stream.
func TestRayleighBlockDrawBitIdentical(t *testing.T) {
	ch := newRayleigh(3, mat.NewRNG(7))
	ref := mat.NewRNG(7)
	var got, want []complex128
	for _, n := range []int{1, 5, 16, 3} {
		symbols := make([]complex128, n)
		for i := range symbols {
			symbols[i] = complex(1-float64(i%3), float64(i%2))
		}
		got = ch.TransmitTo(got[:0], symbols)
		want = scalarRayleigh(3, ref, want[:0], symbols)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("len=%d symbol %d: %v vs %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestErasureRate(t *testing.T) {
	rng := mat.NewRNG(11)
	ch := &erasureChannel{p: 0.2, rng: rng.Split()}
	symbols := make([]complex128, 10000)
	for i := range symbols {
		symbols[i] = complex(1, 0)
	}
	rx := ch.TransmitTo(nil, symbols)
	erased := 0
	for _, s := range rx {
		if s == 0 {
			erased++
		}
	}
	frac := float64(erased) / float64(len(rx))
	if math.Abs(frac-0.2) > 0.03 {
		t.Fatalf("erasure fraction %v, want ~0.2", frac)
	}
}

func TestAnalogLinkCleanIsExact(t *testing.T) {
	link := &analogLink{ch: channel.Clean{}}
	feats := []float64{0.3, -0.7, 0.1, 0.2}
	rx := make([]float64, len(feats))
	stats := link.SendFlatScratch(nil, rx, feats)
	for i := range feats {
		if rx[i] != feats[i] {
			t.Fatal("analog clean transport should be exact")
		}
	}
	if stats.Symbols != 2 {
		t.Fatalf("symbols = %d, want 2 (two dims per symbol)", stats.Symbols)
	}
}

// The bit helpers below repeat channel's test helpers for these tests and
// the traditional pipeline's.

func randomBits(rng *mat.RNG, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Float64() < 0.5
	}
	return out
}

// bpskBER sends bits over ch as BPSK symbols and returns the share the
// hard decision gets wrong.
func bpskBER(ch channel.Channel, bits []bool) float64 {
	bpsk := channel.BPSK{}
	rx := bpsk.DemodulateTo(nil, ch.TransmitTo(nil, bpsk.ModulateTo(nil, bits)))
	return float64(bitErrors(bits, rx)) / float64(len(bits))
}

// bitErrors counts positions where a and b differ, comparing over the
// shorter length and adding the length difference as errors.
func bitErrors(a, b []bool) int {
	n := min(len(a), len(b))
	errs := 0
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			errs++
		}
	}
	return errs + len(a) - n + len(b) - n
}
