package channel

import (
	"math"
	"testing"
)

// mustPanic asserts fn panics with the quantizer's Bits-contract message.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: expected panic for out-of-range Bits", name)
		}
		if s, ok := r.(string); !ok || s != "channel: Quantizer.Bits out of range [1,16]" {
			t.Fatalf("%s: unexpected panic value %v", name, r)
		}
	}()
	fn()
}

// TestQuantizerPanicContract pins the shared validation: every entry point
// — encode and decode — rejects Bits outside [1,16] with the same panic,
// for both too-small and too-large widths.
func TestQuantizerPanicContract(t *testing.T) {
	vals := []float64{0.5}
	bits := []bool{true, false, true}
	dst := make([]float64, 1)
	for _, b := range []int{0, -1, 17, 100} {
		q := Quantizer{Bits: b, Lo: -1, Hi: 1}
		mustPanic(t, "Encode", func() { q.Encode(vals) })
		mustPanic(t, "EncodeTo", func() { q.EncodeTo(nil, vals) })
		mustPanic(t, "Decode", func() { q.Decode(bits) })
		mustPanic(t, "DecodeInto", func() { q.DecodeInto(dst, bits) })
	}
	// Boundary widths are accepted everywhere.
	for _, b := range []int{1, 16} {
		q := Quantizer{Bits: b, Lo: -1, Hi: 1}
		q.DecodeInto(dst, q.EncodeTo(nil, vals))
		if got := dst[0]; math.Abs(got-0.5) > q.StepSize() {
			t.Fatalf("Bits=%d: round trip of 0.5 gave %v (step %v)", b, got, q.StepSize())
		}
	}
}
