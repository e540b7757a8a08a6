package mat

import "testing"

// TestNormFloat64BlockMatchesScalar proves the block fill is bit-identical
// to repeated scalar draws, including spare handling across odd-sized
// blocks interleaved with scalar calls — the property the channel layer's
// noise amortization rests on.
func TestNormFloat64BlockMatchesScalar(t *testing.T) {
	scalar := NewRNG(99)
	mixed := NewRNG(99)
	var want, got []float64
	// Sizes chosen to cycle the spare through every state: empty blocks,
	// odd blocks (leave a spare), even blocks, and scalar draws in between;
	// the last three span more than one of the block fill's internal
	// 64-pair batches, on both parities.
	sizes := []int{0, 1, 2, 3, 0, 5, 4, 7, 1, 1, 8, 3, 128, 131, 300}
	for _, n := range sizes {
		for i := 0; i < n; i++ {
			want = append(want, scalar.NormFloat64())
		}
		buf := make([]float64, n)
		mixed.NormFloat64Block(buf)
		got = append(got, buf...)
		// One scalar draw between blocks exercises spare interleaving.
		want = append(want, scalar.NormFloat64())
		got = append(got, mixed.NormFloat64())
	}
	if len(want) != len(got) {
		t.Fatalf("length mismatch: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("draw %d differs: scalar %v vs block %v", i, want[i], got[i])
		}
	}
	// The generators must end in identical states.
	if scalar.Uint64() != mixed.Uint64() {
		t.Fatal("generator states diverged after block draws")
	}
}

// TestPolarPairsScaledMatchesNormFloat64 proves the unscaled primitive is
// the same stream: PolarPairs followed by PolarScale reproduces
// NormFloat64 and NormFloat64Block bit for bit, in batches of every shape
// (empty, one pair, more pairs than NormFloat64Block's internal batch),
// interleaved with scalar and block draws on the same generator, and
// leaves the generator in the same state.
func TestPolarPairsScaledMatchesNormFloat64(t *testing.T) {
	scalar := NewRNG(2024)
	mixed := NewRNG(2024)
	var want, got []float64
	for round, pairs := range []int{0, 1, 7, 2, 112, 65, 0, 3, 129} {
		for i := 0; i < 2*pairs; i++ {
			want = append(want, scalar.NormFloat64())
		}
		u, v, s := make([]float64, pairs), make([]float64, pairs+1), make([]float64, pairs)
		mixed.PolarPairs(u, v, s) // v longer than s: only len(s) entries are filled
		for i := range s {
			if !(s[i] > 0 && s[i] < 1) || s[i] != u[i]*u[i]+v[i]*v[i] {
				t.Fatalf("round %d pair %d: (u, v, s) = (%v, %v, %v) is not an accepted polar pair", round, i, u[i], v[i], s[i])
			}
			f := PolarScale(s[i])
			got = append(got, u[i]*f, v[i]*f)
		}
		if mixed.HasSpare() {
			t.Fatalf("round %d: PolarPairs left a spare", round)
		}
		// Between batches, alternately a block draw and an even number of
		// scalar draws: both must continue from where the pairs stopped, and
		// both hand back a spare-free stream for the next batch.
		n := 2 * (round%3 + 1)
		for i := 0; i < n; i++ {
			want = append(want, scalar.NormFloat64())
		}
		if round%2 == 0 {
			buf := make([]float64, n)
			mixed.NormFloat64Block(buf)
			got = append(got, buf...)
		} else {
			for i := 0; i < n; i++ {
				got = append(got, mixed.NormFloat64())
			}
		}
	}
	if len(want) != len(got) {
		t.Fatalf("length mismatch: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("draw %d differs: NormFloat64 %v vs scaled pair %v", i, want[i], got[i])
		}
	}
	if scalar.Uint64() != mixed.Uint64() {
		t.Fatal("generator states diverged after PolarPairs")
	}
}

// TestHasSpareTracksOddDraws pins the accessor the channel's fused
// crossing gates on.
func TestHasSpareTracksOddDraws(t *testing.T) {
	r := NewRNG(3)
	if r.HasSpare() {
		t.Fatal("fresh generator reports a spare")
	}
	r.NormFloat64()
	if !r.HasSpare() {
		t.Fatal("no spare after one scalar draw")
	}
	r.NormFloat64()
	if r.HasSpare() {
		t.Fatal("spare survived the draw that consumed it")
	}
	r.NormFloat64Block(make([]float64, 3))
	if !r.HasSpare() {
		t.Fatal("no spare after an odd block")
	}
	r.Reseed(4)
	if r.HasSpare() {
		t.Fatal("Reseed kept the spare")
	}
}

// TestPolarClearMatchesPolarPairs is PolarClear's oracle: over many seeds,
// message lengths and thresholds, its verdict equals all(s[:n] > thr) over
// the pairs PolarPairs draws on a twin generator, and both generators end
// in the same state. Thresholds at and past 1 fail every accepted pair, so
// there the verdict is false whatever the scan does and the generator
// state is what catches a scan that miscounts acceptances or runs an
// attempt past the n-th accepted pair.
func TestPolarClearMatchesPolarPairs(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	thrs := []float64{0, 2.6e-7, 0.05, 0.5, 1, 2}
	u, v, s := make([]float64, 4032), make([]float64, 4032), make([]float64, 4032)
	verdicts := map[bool]int{}
	for seed := 0; seed < seeds; seed++ {
		for _, n := range []int{0, 1, 7, 112, 4032} {
			for _, thr := range thrs {
				scan, twin := NewRNG(uint64(seed)*7919+uint64(n)), NewRNG(uint64(seed)*7919+uint64(n))
				got := scan.PolarClear(n, thr)
				twin.PolarPairs(u[:n], v[:n], s[:n])
				want := true
				for _, si := range s[:n] {
					want = want && si > thr
				}
				if got != want {
					t.Fatalf("seed %d n %d thr %v: PolarClear %v, pairs say %v", seed, n, thr, got, want)
				}
				if scan.Uint64() != twin.Uint64() {
					t.Fatalf("seed %d n %d thr %v: generator states diverged", seed, n, thr)
				}
				verdicts[got]++
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("verdicts %v: both outcomes must be exercised", verdicts)
	}
}
