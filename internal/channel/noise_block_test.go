package channel

import (
	"testing"

	"repro/internal/mat"
)

// scalarAWGN reproduces the pre-amortization AWGN TransmitTo: one
// NormFloat64 pair per symbol, sigma recomputed per call.
func scalarAWGN(snr float64, rng *mat.RNG, dst, symbols []complex128) []complex128 {
	sigma := (&AWGN{SNRdB: snr}).NoiseSigma()
	for _, s := range symbols {
		dst = append(dst, s+complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64()))
	}
	return dst
}

// TestAWGNBlockDrawBitIdentical proves the block-amortized AWGN produces
// exactly the symbols the scalar-draw implementation did, across messages
// of varying (odd and even) lengths on one shared RNG stream.
func TestAWGNBlockDrawBitIdentical(t *testing.T) {
	ch := &AWGN{SNRdB: 6, Rng: mat.NewRNG(42)}
	ref := mat.NewRNG(42)
	var got, want []complex128
	for _, n := range []int{1, 3, 8, 0, 5, 64, 2} {
		symbols := make([]complex128, n)
		for i := range symbols {
			symbols[i] = complex(float64(i)-1, 0.5*float64(i))
		}
		got = ch.TransmitTo(got[:0], symbols)
		want = scalarAWGN(6, ref, want[:0], symbols)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("len=%d symbol %d: block %v vs scalar %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestAWGNSigmaCacheTracksSNRChanges guards the sigma cache against a
// mutated SNRdB field between calls.
func TestAWGNSigmaCacheTracksSNRChanges(t *testing.T) {
	ch := &AWGN{SNRdB: 0, Rng: mat.NewRNG(1)}
	if got, want := ch.noiseSigmaCached(), ch.NoiseSigma(); got != want {
		t.Fatalf("sigma %v, want %v", got, want)
	}
	ch.SNRdB = 12
	if got, want := ch.noiseSigmaCached(), ch.NoiseSigma(); got != want {
		t.Fatalf("after SNR change: sigma %v, want %v", got, want)
	}
}
