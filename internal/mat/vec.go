package mat

import "math"

// Dot returns the inner product of a and b. It panics if the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AddTo adds src into dst element-wise. It panics if the lengths differ.
func AddTo(dst, src []float64) {
	if len(dst) != len(src) {
		panic("mat: AddTo length mismatch")
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Scale multiplies every element of v by s in place.
func Scale(v []float64, s float64) {
	if useAVX2 && len(v) > 0 {
		f64Scale(&v[0], len(v), s)
		return
	}
	for i := range v {
		v[i] *= s
	}
}

// AXPY computes dst += a*x element-wise. It panics if the lengths differ.
func AXPY(dst []float64, a float64, x []float64) {
	if len(dst) != len(x) {
		panic("mat: AXPY length mismatch")
	}
	for i, v := range x {
		dst[i] += a * v
	}
}

// MomentumStep applies one momentum-SGD update element-wise: v = momentum*v
// - lr*g, then p += v. It panics if the lengths differ.
func MomentumStep(p, v, g []float64, momentum, lr float64) {
	if len(p) != len(v) || len(p) != len(g) {
		panic("mat: MomentumStep length mismatch")
	}
	if useAVX2 && len(p) > 0 {
		f64MomentumStep(&p[0], &v[0], &g[0], len(p), momentum, lr)
		return
	}
	for j := range v {
		v[j] = momentum*v[j] - lr*g[j]
		p[j] += v[j]
	}
}

// Zero sets every element of v to zero.
func Zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// Clone returns a fresh copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// L2 returns the Euclidean norm of v.
func L2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of a and b, or 0 when either vector
// has zero norm. It panics if the lengths differ.
func Cosine(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Cosine length mismatch")
	}
	na, nb := L2(a), L2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Argmax returns the index of the largest element of v, or -1 for an empty
// slice. Ties resolve to the lowest index.
func Argmax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Softmax writes the softmax of logits into dst (which may alias logits).
// It uses the max-subtraction trick for numerical stability and panics if
// the lengths differ.
func Softmax(dst, logits []float64) {
	if len(dst) != len(logits) {
		panic("mat: Softmax length mismatch")
	}
	if len(logits) == 0 {
		return
	}
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	expShift(dst, logits, max)
	sum := 0.0
	for _, e := range dst {
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// expShift sets dst[i] = math.Exp(src[i] - shift); dst may alias src. The
// exp kernel takes every whole block of four it can, math.Exp the rest.
func expShift(dst, src []float64, shift float64) {
	for i := 0; i < len(src); i++ {
		if useAVX2 && expOnFMAPath && len(src)-i >= 4 {
			if i += f64ExpShift(&dst[i], &src[i], len(src)-i, shift); i == len(src) {
				break
			}
		}
		dst[i] = math.Exp(src[i] - shift)
	}
}

// Tanh applies tanh element-wise, writing into dst (which may alias src).
// The tanh kernel takes every whole block of four it can, math.Tanh the
// rest; the results are math.Tanh's bits either way.
func Tanh(dst, src []float64) {
	if len(dst) != len(src) {
		panic("mat: Tanh length mismatch")
	}
	for i := 0; i < len(src); i++ {
		if useAVX2 && expOnFMAPath && len(src)-i >= 4 {
			if i += f64Tanh(&dst[i], &src[i], len(src)-i); i == len(src) {
				break
			}
		}
		dst[i] = math.Tanh(src[i])
	}
}

// MaxAbs returns the largest absolute value in v, or 0 for an empty slice.
func MaxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
