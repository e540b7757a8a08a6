package channel

// Code is a forward-error-correction channel code over bit streams. Both
// methods append to dst and return it, like the built-in append.
type Code interface {
	// EncodeTo appends the coded bits for the information bits to dst.
	EncodeTo(dst, bits []bool) []bool
	// DecodeTo appends the information bits for coded to dst, correcting
	// errors within the code's capability.
	DecodeTo(dst, coded []bool) []bool
}

// Identity is the no-coding passthrough.
type Identity struct{}

var _ Code = Identity{}

// EncodeTo implements Code.
func (Identity) EncodeTo(dst, bits []bool) []bool {
	return append(dst, bits...)
}

// DecodeTo implements Code.
func (Identity) DecodeTo(dst, coded []bool) []bool {
	return append(dst, coded...)
}

// Repetition repeats every bit N times and decodes by majority vote. N must
// be odd and >= 3.
type Repetition struct {
	N int
}

var _ Code = Repetition{}

func (r Repetition) n() int {
	if r.N < 3 {
		return 3
	}
	return r.N | 1 // force odd
}

// EncodeTo implements Code.
func (r Repetition) EncodeTo(dst, bits []bool) []bool {
	n := r.n()
	for _, b := range bits {
		for i := 0; i < n; i++ {
			dst = append(dst, b)
		}
	}
	return dst
}

// DecodeTo implements Code.
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

// EncodeTo implements Code. Codeword layout: p1 p2 d1 p3 d2 d3 d4 with
// parity positions 1, 2 and 4 (1-indexed).
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

// DecodeTo implements Code, correcting at most one bit error per 7-bit
// block.
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
