package channel

// Modulation maps bit streams to complex baseband symbols and back (hard
// decision), normalized to unit average symbol energy. Both methods append
// to dst and return it, like the built-in append.
type Modulation interface {
	// ModulateTo appends the symbols for bits to dst.
	ModulateTo(dst []complex128, bits []bool) []complex128
	// DemodulateTo appends the bits for symbols to dst by
	// nearest-constellation-point decision.
	DemodulateTo(dst []bool, symbols []complex128) []bool
}

// BPSK is binary phase-shift keying: one bit per real symbol.
type BPSK struct{}

var _ Modulation = BPSK{}

// ModulateTo implements Modulation.
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

// DemodulateTo implements Modulation.
func (BPSK) DemodulateTo(dst []bool, symbols []complex128) []bool {
	for _, s := range symbols {
		dst = append(dst, bpskDecide(real(s)))
	}
	return dst
}

// bpskDecide is the BPSK hard decision on a received real component,
// shared by DemodulateTo and the fused hard-decision crossing (hard.go).
func bpskDecide(re float64) bool { return re >= 0 }
