package channel

import (
	"testing"

	"repro/internal/mat"
)

// scratchConfigs are the default link on the fused crossing (config 0)
// and links on the staged pipeline: a 4-bit quantizer over 0 dB AWGN
// through stagedHamming74, which hardLink declines, and the default
// quantizer over Clean.
func scratchConfigs() []FeatureLink {
	return []FeatureLink{
		{Quant: DefaultQuantizer(), Code: Hamming74{}, Mod: BPSK{}, Ch: &AWGN{SNRdB: 6, Rng: mat.NewRNG(1)}},
		{Quant: Quantizer{Bits: 4, Lo: -1, Hi: 1}, Code: stagedHamming74{}, Mod: BPSK{}, Ch: &AWGN{SNRdB: 0, Rng: mat.NewRNG(2)}},
		{Quant: DefaultQuantizer(), Code: Hamming74{}, Mod: BPSK{}, Ch: Clean{}},
	}
}

// testFeats builds a deterministic feature batch.
func testFeats(tokens, dim int) [][]float64 {
	rng := mat.NewRNG(42)
	out := make([][]float64, tokens)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = 2*rng.Float64() - 1
		}
		out[i] = v
	}
	return out
}

// TestSendFlatScratchMatchesSend asserts the scratch-reusing transmit path
// is bit-identical to a send on fresh stage buffers (a nil TxScratch) for
// every stock configuration, across repeated reuses of one TxScratch
// (noisy channels are re-seeded so both paths consume identical RNG
// streams).
func TestSendFlatScratchMatchesSend(t *testing.T) {
	const dim = 8
	feats := testFeats(11, dim)
	flat := make([]float64, 0, len(feats)*dim)
	for _, f := range feats {
		flat = append(flat, f...)
	}
	for ci := range scratchConfigs() {
		ts := new(TxScratch)
		for round := 0; round < 3; round++ {
			// Fresh links with identical seeds: one per path.
			plain := scratchConfigs()[ci]
			scratch := scratchConfigs()[ci]
			want := make([]float64, len(flat))
			wantStats := plain.SendFlatScratch(nil, want, flat)
			dst := make([]float64, len(flat))
			gotStats := scratch.SendFlatScratch(ts, dst, flat)
			if gotStats != wantStats {
				t.Fatalf("config %d round %d: stats %+v, want %+v", ci, round, gotStats, wantStats)
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("config %d round %d: value %d = %v, want %v", ci, round, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestSendFlatScratchZeroAllocs pins the warm scratch transmit path at
// zero heap allocations for the default configuration.
func TestSendFlatScratchZeroAllocs(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	l := FeatureLink{Quant: DefaultQuantizer(), Code: Hamming74{}, Mod: BPSK{}, Ch: &AWGN{SNRdB: 6, Rng: mat.NewRNG(9)}}
	feats := testFeats(9, 8)
	flat := make([]float64, 0, 72)
	for _, f := range feats {
		flat = append(flat, f...)
	}
	dst := make([]float64, len(flat))
	ts := new(TxScratch)
	send := func() { l.SendFlatScratch(ts, dst, flat) }
	send() // warm the stage buffers
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("warm SendFlatScratch allocates %v times per call, want 0", allocs)
	}
}
