package channel

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/mat"
)

// seededTestSNRs are the SNRs the seeded-link tests run at: the daemon's
// 12 dB, where nearly every crossing is certified clean, and 3 dB, where
// the per-symbol receiver flips decisions.
var seededTestSNRs = []float64{12, 3}

// reseededLink builds the reference a SeededLink must match: the default
// link over AWGN at snr, around a generator the test reseeds itself.
func reseededLink(snr float64) (FeatureLink, *mat.RNG) {
	rng := mat.NewRNG(0)
	return DefaultFeatureLink(&AWGN{SNRdB: snr, Rng: rng}), rng
}

// seededTestPayload is a deterministic flat feature buffer.
func seededTestPayload(n int, seed uint64) []float64 {
	rng := mat.NewRNG(seed)
	flat := make([]float64, n)
	for i := range flat {
		flat[i] = 2*rng.Float64() - 1
	}
	return flat
}

// TestSendSeededMatchesSerializedReseed pins the seeded link's founding
// claim: Send(seed, …) produces the exact bytes and stats of one shared
// link reseeded to seed and then crossed with SendFlatScratch. The seeds
// repeat in a scrambled order on one SeededLink value, and a second value
// built apart from it must agree, so nothing a crossing leaves behind can
// reach the next one.
func TestSendSeededMatchesSerializedReseed(t *testing.T) {
	const dims = 96
	seeds := []uint64{3, 11, 3, 900719, 11, 0xdeadbeef, 3}
	flat := seededTestPayload(dims, 42)
	for _, snr := range seededTestSNRs {
		shared, sharedRng := reseededLink(snr)
		var ts TxScratch
		links := []SeededLink{NewSeededLink(snr), NewSeededLink(snr)}
		for i, seed := range seeds {
			sharedRng.Reseed(seed)
			want := make([]float64, dims)
			wantStats := shared.SendFlatScratch(&ts, want, flat)

			got := make([]float64, dims)
			if stats := links[i%2].Send(seed, got, flat); stats != wantStats {
				t.Fatalf("snr %v seed %#x: stats %+v, reseeded reference %+v", snr, seed, stats, wantStats)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("snr %v seed %#x: output[%d] = %v, reseeded reference %v",
						snr, seed, j, got[j], want[j])
				}
			}
		}
	}
}

// TestSeededLinkZeroAllocs pins the per-message cost of the seeded
// crossing at the channel layer: Send performs zero heap allocations, its
// generator included. (The serve-path pin in core covers the same property
// end to end.)
func TestSeededLinkZeroAllocs(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	const dims = 96
	flat := seededTestPayload(dims, 9)
	dst := make([]float64, dims)
	for _, snr := range seededTestSNRs {
		l := NewSeededLink(snr)
		var seed uint64
		send := func() {
			l.Send(seed, dst, flat)
			seed++
		}
		if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
			t.Fatalf("snr %v: seeded crossing allocates %v times, want 0", snr, allocs)
		}
	}
}

// TestSeededLinkConcurrentCrossings shares one SeededLink among many
// goroutines under the race detector and checks every crossing still
// reproduces the reseeded reference bytes for its seed.
func TestSeededLinkConcurrentCrossings(t *testing.T) {
	const (
		dims       = 48
		goroutines = 8
		perG       = 40
	)
	flat := seededTestPayload(dims, 21)
	for _, snr := range seededTestSNRs {
		// Reference bytes per seed, drawn serially.
		shared, sharedRng := reseededLink(snr)
		var ts TxScratch
		want := make(map[uint64][]float64)
		for g := 0; g < goroutines; g++ {
			for i := 0; i < perG; i++ {
				seed := uint64(g*1000 + i)
				sharedRng.Reseed(seed)
				dst := make([]float64, dims)
				shared.SendFlatScratch(&ts, dst, flat)
				want[seed] = dst
			}
		}

		l := NewSeededLink(snr)
		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				dst := make([]float64, dims)
				for i := 0; i < perG; i++ {
					seed := uint64(g*1000 + i)
					l.Send(seed, dst, flat)
					for j := range dst {
						if dst[j] != want[seed][j] {
							errs <- fmt.Sprintf("snr %v seed %d: concurrent crossing diverged from the reseeded reference", snr, seed)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Fatal(msg)
		}
	}
}
