package channel

// Code is a forward-error-correction channel code over bit streams.
type Code interface {
	// Name identifies the code in experiment output.
	Name() string
	// Encode maps information bits to coded bits.
	Encode(bits []bool) []bool
	// Decode maps coded bits back to information bits, correcting errors
	// within the code's capability.
	Decode(coded []bool) []bool
}

// Identity is the no-coding passthrough.
type Identity struct{}

var _ Code = Identity{}

// Name implements Code.
func (Identity) Name() string { return "none" }

// Encode implements Code.
func (c Identity) Encode(bits []bool) []bool {
	return c.EncodeTo(make([]bool, 0, len(bits)), bits)
}

// EncodeTo implements the allocation-free fast path.
func (Identity) EncodeTo(dst, bits []bool) []bool {
	return append(dst, bits...)
}

// Decode implements Code.
func (c Identity) Decode(coded []bool) []bool {
	return c.DecodeTo(make([]bool, 0, len(coded)), coded)
}

// DecodeTo implements the allocation-free fast path.
func (Identity) DecodeTo(dst, coded []bool) []bool {
	return append(dst, coded...)
}

// Repetition repeats every bit N times and decodes by majority vote. N must
// be odd and >= 3.
type Repetition struct {
	N int
}

var _ Code = Repetition{}

// Name implements Code.
func (r Repetition) Name() string {
	switch r.N {
	case 3:
		return "rep3"
	case 5:
		return "rep5"
	default:
		return "repN"
	}
}

func (r Repetition) n() int {
	if r.N < 3 {
		return 3
	}
	return r.N | 1 // force odd
}

// Encode implements Code.
func (r Repetition) Encode(bits []bool) []bool {
	return r.EncodeTo(make([]bool, 0, len(bits)*r.n()), bits)
}

// EncodeTo implements the allocation-free fast path.
func (r Repetition) EncodeTo(dst, bits []bool) []bool {
	n := r.n()
	for _, b := range bits {
		for i := 0; i < n; i++ {
			dst = append(dst, b)
		}
	}
	return dst
}

// Decode implements Code.
func (r Repetition) Decode(coded []bool) []bool {
	return r.DecodeTo(make([]bool, 0, len(coded)/r.n()), coded)
}

// DecodeTo implements the allocation-free fast path.
func (r Repetition) DecodeTo(dst, coded []bool) []bool {
	n := r.n()
	count := len(coded) / n
	for i := 0; i < count; i++ {
		ones := 0
		for j := 0; j < n; j++ {
			if coded[i*n+j] {
				ones++
			}
		}
		dst = append(dst, ones*2 > n)
	}
	return dst
}

// Hamming74 is the classic (7,4) Hamming code: 4 information bits per
// 7-bit codeword with single-error correction. Information streams are
// zero-padded to a multiple of 4; callers track payload length.
type Hamming74 struct{}

var _ Code = Hamming74{}

// Name implements Code.
func (Hamming74) Name() string { return "hamming74" }

// Encode implements Code. Codeword layout: p1 p2 d1 p3 d2 d3 d4 with
// parity positions 1, 2 and 4 (1-indexed).
func (c Hamming74) Encode(bits []bool) []bool {
	return c.EncodeTo(make([]bool, 0, (len(bits)+3)/4*7), bits)
}

// EncodeTo implements the allocation-free fast path.
func (Hamming74) EncodeTo(dst, bits []bool) []bool {
	blocks := (len(bits) + 3) / 4
	var d [4]bool
	for blk := 0; blk < blocks; blk++ {
		for i := 0; i < 4; i++ {
			idx := blk*4 + i
			if idx < len(bits) {
				d[i] = bits[idx]
			} else {
				d[i] = false
			}
		}
		p1 := d[0] != d[1] != d[3]
		p2 := d[0] != d[2] != d[3]
		p3 := d[1] != d[2] != d[3]
		dst = append(dst, p1, p2, d[0], p3, d[1], d[2], d[3])
	}
	return dst
}

// Decode implements Code, correcting at most one bit error per 7-bit block.
func (c Hamming74) Decode(coded []bool) []bool {
	return c.DecodeTo(make([]bool, 0, len(coded)/7*4), coded)
}

// DecodeTo implements the allocation-free fast path.
func (Hamming74) DecodeTo(dst, coded []bool) []bool {
	blocks := len(coded) / 7
	var w [7]bool
	for blk := 0; blk < blocks; blk++ {
		copy(w[:], coded[blk*7:blk*7+7])
		// Syndrome bits (1-indexed positions).
		s1 := w[0] != w[2] != w[4] != w[6]
		s2 := w[1] != w[2] != w[5] != w[6]
		s3 := w[3] != w[4] != w[5] != w[6]
		syndrome := 0
		if s1 {
			syndrome += 1
		}
		if s2 {
			syndrome += 2
		}
		if s3 {
			syndrome += 4
		}
		if syndrome != 0 {
			w[syndrome-1] = !w[syndrome-1]
		}
		dst = append(dst, w[2], w[4], w[5], w[6])
	}
	return dst
}
