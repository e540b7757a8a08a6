//go:build amd64

package mat

import (
	"math"
	"testing"
)

// withEachPath runs fn as two subtests: with the assembly kernels
// dispatched (failing, not skipping, without AVX2) and with the pure-Go
// loops alone.
func withEachPath(t *testing.T, fn func(t *testing.T)) {
	t.Run("avx2", func(t *testing.T) {
		requireAVX2(t)
		fn(t)
	})
	t.Run("go", func(t *testing.T) { pureGo(func() { fn(t) }) })
}

// FuzzPolarClear holds the AVX2 scan to the Go loop on fuzzer-chosen
// seeds, lengths and thresholds — negative, NaN and past 1 included: the
// same verdict, and the generator left in the same state.
func FuzzPolarClear(f *testing.F) {
	f.Add(uint64(1), uint16(4032), 2.6e-7)
	f.Add(uint64(2), uint16(5), 0.5)
	f.Add(uint64(3), uint16(4), 1.0)
	f.Add(uint64(4), uint16(9), math.Copysign(0, -1))
	f.Add(uint64(5), uint16(8), math.NaN())
	f.Add(uint64(6), uint16(3), -1.0)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, thr float64) {
		requireAVX2(t)
		kernel, loop := NewRNG(seed), NewRNG(seed)
		got := kernel.PolarClear(int(n), thr)
		var want bool
		pureGo(func() { want = loop.PolarClear(int(n), thr) })
		if got != want {
			t.Fatalf("verdict: kernel %v, Go loop %v", got, want)
		}
		if kernel.Uint64() != loop.Uint64() {
			t.Fatal("generator states diverged")
		}
	})
}

// BenchmarkPolarClear times the clean-crossing scan over 5,376 symbols
// (128 tokens × 8 dims × 3 bits, Hamming(7,4)-coded) at the threshold the
// channel uses at 12 dB, on the Go loop and on the AVX2 kernel.
func BenchmarkPolarClear(b *testing.B) {
	const n = 5376
	sigma2 := math.Pow(10, -1.2) / 2
	thr := 2 * math.Exp(-1/(2*sigma2))
	run := func(b *testing.B) {
		r := NewRNG(1)
		for i := 0; i < b.N; i++ {
			r.PolarClear(n, thr)
		}
	}
	b.Run("go", func(b *testing.B) { pureGo(func() { run(b) }) })
	b.Run("avx2", func(b *testing.B) {
		if !useAVX2 {
			b.Skip("no AVX2")
		}
		run(b)
	})
}
