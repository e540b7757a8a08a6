package channel

import (
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestInterleaveRoundTrip(t *testing.T) {
	rng := mat.NewRNG(1)
	for _, depth := range []int{0, 1, 2, 7, 8} {
		for _, n := range []int{0, 1, 7, 8, 56, 57, 100} {
			bits := randomBits(rng, n)
			iv := Interleaver{Depth: depth}
			got := iv.Deinterleave(iv.Interleave(bits))
			if BitErrors(bits, got) != 0 {
				t.Fatalf("depth %d n %d: round trip corrupted", depth, n)
			}
		}
	}
}

func TestInterleaveActuallyPermutes(t *testing.T) {
	bits := make([]bool, 16)
	bits[0], bits[1] = true, true // adjacent pair
	iv := Interleaver{Depth: 4}
	out := iv.Interleave(bits)
	// The two set bits must no longer be adjacent.
	positions := []int{}
	for i, b := range out {
		if b {
			positions = append(positions, i)
		}
	}
	if len(positions) != 2 {
		t.Fatalf("bit count changed: %v", positions)
	}
	if positions[1]-positions[0] == 1 {
		t.Fatal("interleaver left adjacent bits adjacent")
	}
}

func TestInterleavedCodeBreaksBursts(t *testing.T) {
	// A burst of 3 consecutive coded-bit errors defeats plain Hamming(7,4)
	// (two errors can land in one block) but not the interleaved version
	// with sufficient depth.
	rng := mat.NewRNG(2)
	info := randomBits(rng, 64)

	plain := Hamming74{}
	ilv := InterleavedCode{Inner: Hamming74{}, IV: Interleaver{Depth: 16}}

	burstAt := func(coded []bool, start int) []bool {
		out := make([]bool, len(coded))
		copy(out, coded)
		for i := start; i < start+3 && i < len(out); i++ {
			out[i] = !out[i]
		}
		return out
	}

	plainFail, ilvFail := 0, 0
	for start := 0; start+3 <= 64; start++ {
		if BitErrors(info, plain.Decode(burstAt(plain.Encode(info), start))[:64]) > 0 {
			plainFail++
		}
		if BitErrors(info, ilv.Decode(burstAt(ilv.Encode(info), start))[:64]) > 0 {
			ilvFail++
		}
	}
	if ilvFail >= plainFail {
		t.Fatalf("interleaving did not help bursts: plain %d fails, interleaved %d", plainFail, ilvFail)
	}
	if ilvFail != 0 {
		t.Fatalf("depth-16 interleaving should absorb all 3-bit bursts, got %d failures", ilvFail)
	}
}

func TestInterleavedCodeMetadata(t *testing.T) {
	c := InterleavedCode{Inner: Hamming74{}, IV: Interleaver{Depth: 8}}
	if c.Name() != "hamming74+ilv" {
		t.Fatalf("Name = %q", c.Name())
	}
	bits := make([]bool, 64)
	if got, want := len(c.Encode(bits)), len(Hamming74{}.Encode(bits)); got != want {
		t.Fatalf("interleaving changed the coded length: %d bits, want %d", got, want)
	}
}

// Property: interleave/deinterleave is a bijection for arbitrary sizes.
func TestInterleaveQuick(t *testing.T) {
	f := func(seed uint64, depthRaw, nRaw uint8) bool {
		depth := int(depthRaw%12) + 1
		n := int(nRaw)
		rng := mat.NewRNG(seed)
		bits := randomBits(rng, n)
		iv := Interleaver{Depth: depth}
		return BitErrors(bits, iv.Deinterleave(iv.Interleave(bits))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
