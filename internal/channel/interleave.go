package channel

// Interleaver is a block interleaver: bits are written row-wise into a
// Depth x width matrix and read column-wise, spreading burst errors (deep
// fades, erasure clusters) across many codewords so the channel code sees
// isolated errors it can correct.
type Interleaver struct {
	// Depth is the number of rows; bursts up to Depth bits apart land in
	// different codewords. Depth <= 1 disables interleaving.
	Depth int
}

// Interleave permutes bits. The output has the same length; a trailing
// partial block passes through unpermuted.
func (iv Interleaver) Interleave(bits []bool) []bool {
	return iv.permute(bits, false)
}

// Deinterleave inverts Interleave.
func (iv Interleaver) Deinterleave(bits []bool) []bool {
	return iv.permute(bits, true)
}

// permute applies the block permutation (or its inverse).
func (iv Interleaver) permute(bits []bool, inverse bool) []bool {
	depth := iv.Depth
	out := make([]bool, len(bits))
	if depth <= 1 {
		copy(out, bits)
		return out
	}
	width := len(bits) / depth
	block := width * depth
	for i := 0; i < block; i++ {
		// Row-wise index i = r*width + c maps to column-wise j = c*depth + r.
		r, c := i/width, i%width
		j := c*depth + r
		if inverse {
			out[i] = bits[j]
		} else {
			out[j] = bits[i]
		}
	}
	copy(out[block:], bits[block:])
	return out
}

// InterleavedCode wraps a channel code with block interleaving applied to
// its coded bits.
type InterleavedCode struct {
	Inner Code
	IV    Interleaver
}

var _ Code = InterleavedCode{}

// Name implements Code.
func (c InterleavedCode) Name() string { return c.Inner.Name() + "+ilv" }

// Encode implements Code.
func (c InterleavedCode) Encode(bits []bool) []bool {
	return c.IV.Interleave(c.Inner.Encode(bits))
}

// Decode implements Code.
func (c InterleavedCode) Decode(coded []bool) []bool {
	return c.Inner.Decode(c.IV.Deinterleave(coded))
}
