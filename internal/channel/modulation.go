package channel

import "math"

// Modulation maps bit streams to complex baseband symbols and back (hard
// decision). All modulations are normalized to unit average symbol energy.
type Modulation interface {
	// Name identifies the modulation in experiment output.
	Name() string
	// Modulate maps bits to symbols. Bit streams are zero-padded to a
	// whole number of symbols.
	Modulate(bits []bool) []complex128
	// Demodulate maps symbols back to bits by nearest-constellation-point
	// decision.
	Demodulate(symbols []complex128) []bool
}

// BPSK is binary phase-shift keying: one bit per real symbol.
type BPSK struct{}

var _ Modulation = BPSK{}

// Name implements Modulation.
func (BPSK) Name() string { return "bpsk" }

// Modulate implements Modulation.
func (m BPSK) Modulate(bits []bool) []complex128 {
	return m.ModulateTo(make([]complex128, 0, len(bits)), bits)
}

// ModulateTo implements the allocation-free fast path.
func (BPSK) ModulateTo(dst []complex128, bits []bool) []complex128 {
	for _, b := range bits {
		if b {
			dst = append(dst, complex(1, 0))
		} else {
			dst = append(dst, complex(-1, 0))
		}
	}
	return dst
}

// Demodulate implements Modulation.
func (m BPSK) Demodulate(symbols []complex128) []bool {
	return m.DemodulateTo(make([]bool, 0, len(symbols)), symbols)
}

// DemodulateTo implements the allocation-free fast path.
func (BPSK) DemodulateTo(dst []bool, symbols []complex128) []bool {
	for _, s := range symbols {
		dst = append(dst, bpskDecide(real(s)))
	}
	return dst
}

// bpskDecide is the BPSK hard decision on a received real component,
// shared by DemodulateTo and the fused hard-decision crossing (hard.go).
func bpskDecide(re float64) bool { return re >= 0 }

// QPSK is quadrature phase-shift keying: two Gray-coded bits per symbol.
type QPSK struct{}

var _ Modulation = QPSK{}

// Name implements Modulation.
func (QPSK) Name() string { return "qpsk" }

// qpskAmp normalizes unit average energy: each I/Q component is ±1/√2.
var qpskAmp = 1 / math.Sqrt2

// Modulate implements Modulation.
func (m QPSK) Modulate(bits []bool) []complex128 {
	return m.ModulateTo(make([]complex128, 0, (len(bits)+1)/2), bits)
}

// ModulateTo implements the allocation-free fast path.
func (QPSK) ModulateTo(dst []complex128, bits []bool) []complex128 {
	n := (len(bits) + 1) / 2
	for i := 0; i < n; i++ {
		b0, b1 := false, false
		if 2*i < len(bits) {
			b0 = bits[2*i]
		}
		if 2*i+1 < len(bits) {
			b1 = bits[2*i+1]
		}
		re, im := -qpskAmp, -qpskAmp
		if b0 {
			re = qpskAmp
		}
		if b1 {
			im = qpskAmp
		}
		dst = append(dst, complex(re, im))
	}
	return dst
}

// Demodulate implements Modulation.
func (m QPSK) Demodulate(symbols []complex128) []bool {
	return m.DemodulateTo(make([]bool, 0, 2*len(symbols)), symbols)
}

// DemodulateTo implements the allocation-free fast path.
func (QPSK) DemodulateTo(dst []bool, symbols []complex128) []bool {
	for _, s := range symbols {
		dst = append(dst, real(s) >= 0, imag(s) >= 0)
	}
	return dst
}

// QAM16 is 16-ary quadrature amplitude modulation with Gray coding: four
// bits per symbol, two per axis.
type QAM16 struct{}

var _ Modulation = QAM16{}

// Name implements Modulation.
func (QAM16) Name() string { return "16qam" }

// qam16Amp normalizes average symbol energy to 1 for levels {±1, ±3}:
// E = 2 * mean{1,9} = 10, so divide by √10.
var qam16Amp = 1 / math.Sqrt(10)

// qam16Level maps two Gray-coded bits to an axis level.
func qam16Level(b0, b1 bool) float64 {
	// Gray mapping: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3.
	switch {
	case !b0 && !b1:
		return -3
	case !b0 && b1:
		return -1
	case b0 && b1:
		return +1
	default:
		return +3
	}
}

// qam16Bits inverts qam16Level by nearest level.
func qam16Bits(v float64) (bool, bool) {
	switch {
	case v < -2:
		return false, false
	case v < 0:
		return false, true
	case v < 2:
		return true, true
	default:
		return true, false
	}
}

// Modulate implements Modulation.
func (m QAM16) Modulate(bits []bool) []complex128 {
	return m.ModulateTo(make([]complex128, 0, (len(bits)+3)/4), bits)
}

// ModulateTo implements the allocation-free fast path.
func (QAM16) ModulateTo(dst []complex128, bits []bool) []complex128 {
	n := (len(bits) + 3) / 4
	get := func(i int) bool {
		if i < len(bits) {
			return bits[i]
		}
		return false
	}
	for i := 0; i < n; i++ {
		re := qam16Level(get(4*i), get(4*i+1))
		im := qam16Level(get(4*i+2), get(4*i+3))
		dst = append(dst, complex(re*qam16Amp, im*qam16Amp))
	}
	return dst
}

// Demodulate implements Modulation.
func (m QAM16) Demodulate(symbols []complex128) []bool {
	return m.DemodulateTo(make([]bool, 0, 4*len(symbols)), symbols)
}

// DemodulateTo implements the allocation-free fast path.
func (QAM16) DemodulateTo(dst []bool, symbols []complex128) []bool {
	for _, s := range symbols {
		b0, b1 := qam16Bits(real(s) / qam16Amp)
		b2, b3 := qam16Bits(imag(s) / qam16Amp)
		dst = append(dst, b0, b1, b2, b3)
	}
	return dst
}
