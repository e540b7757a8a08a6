package channel

// Quantizer maps bounded float values to fixed-width bit codes and back.
// Semantic feature vectors are tanh-bounded, so the standard configuration
// (DefaultQuantizer) is [-1,1] at 3 bits per dimension.
type Quantizer struct {
	Bits   int     // bits per value; must be in [1,16]
	Lo, Hi float64 // value range; values outside are clamped
}

// DefaultQuantizer quantizes tanh features with 3 bits per dimension: the
// smallest width that costs no measurable codec accuracy (the quantization
// step sits at the denoising-training noise level, which the decoder is
// trained to absorb).
func DefaultQuantizer() Quantizer { return Quantizer{Bits: 3, Lo: -1, Hi: 1} }

// levels returns the number of quantization levels.
func (q Quantizer) levels() int { return 1 << uint(q.Bits) }

// validate panics unless Bits is in [1,16]: the single shared contract
// check every codec entry point (Encode/EncodeTo, Decode/DecodeInto) runs
// before touching the grid.
func (q Quantizer) validate() {
	if q.Bits < 1 || q.Bits > 16 {
		panic("channel: Quantizer.Bits out of range [1,16]")
	}
}

// index returns the level index v quantizes to: the truncating affine grid
// idx = trunc((v-Lo)/span * (n-1)), with v clamped to [Lo, Hi] and the
// index clamped to the valid range.
func (q Quantizer) index(v float64, n int, span float64) int {
	if v < q.Lo {
		v = q.Lo
	} else if v > q.Hi {
		v = q.Hi
	}
	idx := int((v - q.Lo) / span * float64(n-1))
	if idx < 0 {
		idx = 0
	} else if idx > n-1 {
		idx = n - 1
	}
	return idx
}

// value returns the reconstruction value of level idx: Lo + idx*StepSize.
func (q Quantizer) value(idx, n int, span float64) float64 {
	return q.Lo + float64(idx)/float64(n-1)*span
}

// Encode quantizes vals into a bit stream of len(vals)*Bits bits.
func (q Quantizer) Encode(vals []float64) []bool {
	q.validate() // before sizing the buffer: a negative Bits must hit the contract panic
	return q.EncodeTo(make([]bool, 0, len(vals)*q.Bits), vals)
}

// EncodeTo quantizes vals, appending the bit stream to dst and returning
// it: the allocation-free variant of Encode.
func (q Quantizer) EncodeTo(dst []bool, vals []float64) []bool {
	q.validate()
	n := q.levels()
	span := q.Hi - q.Lo
	out := dst
	for _, v := range vals {
		idx := q.index(v, n, span)
		for b := q.Bits - 1; b >= 0; b-- {
			out = append(out, idx&(1<<uint(b)) != 0)
		}
	}
	return out
}

// Decode reconstructs values from a bit stream produced by Encode.
// Trailing bits that do not fill a full code are ignored.
func (q Quantizer) Decode(bits []bool) []float64 {
	q.validate()
	out := make([]float64, len(bits)/q.Bits)
	q.DecodeInto(out, bits)
	return out
}

// DecodeInto reconstructs values from a bit stream produced by Encode into
// dst, returning how many values were written: min(len(dst),
// len(bits)/Bits). Trailing bits that do not fill a full code are ignored.
// It is the allocation-free variant of Decode.
func (q Quantizer) DecodeInto(dst []float64, bits []bool) int {
	q.validate()
	n := q.levels()
	span := q.Hi - q.Lo
	count := len(bits) / q.Bits
	if count > len(dst) {
		count = len(dst)
	}
	for i := 0; i < count; i++ {
		idx := 0
		for b := 0; b < q.Bits; b++ {
			idx <<= 1
			if bits[i*q.Bits+b] {
				idx |= 1
			}
		}
		dst[i] = q.value(idx, n, span)
	}
	return count
}

// StepSize returns the reconstruction step between adjacent levels.
func (q Quantizer) StepSize() float64 {
	return (q.Hi - q.Lo) / float64(q.levels()-1)
}
