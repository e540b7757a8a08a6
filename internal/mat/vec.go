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

// ScaleSquares multiplies every element of v by s in place and adds the
// squares of the results into the four lane sums of acc: element i of
// every whole block of four into acc[i%4], the tail into acc[0]. It is one
// sweep for what Scale and a sum of squares would take two; the lane sums
// add in another order than a serial sum does, so they are fit only for a
// bound that tolerates any order (the optimizers' clip certificate).
func ScaleSquares(v []float64, s float64, acc *[4]float64) {
	if useAVX2 && len(v) > 0 {
		f64ScaleSquares(&v[0], len(v), s, acc)
		return
	}
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	w := v
	for ; len(w) >= 4; w = w[4:] {
		x0, x1, x2, x3 := w[0]*s, w[1]*s, w[2]*s, w[3]*s
		w[0], w[1], w[2], w[3] = x0, x1, x2, x3
		a0 += x0 * x0
		a1 += x1 * x1
		a2 += x2 * x2
		a3 += x3 * x3
	}
	for i := range w {
		x := w[i] * s
		w[i] = x
		a0 += x * x
	}
	acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
}

// MomentumStep applies one momentum-SGD update element-wise and consumes
// the gradient: v = momentum*v - lr*g, then p += v, then g = +0. It panics
// if the lengths differ.
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
		g[j] = 0
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
// the lengths differ. It is SoftmaxRows on a single row.
func Softmax(dst, logits []float64) {
	if len(dst) != len(logits) {
		panic("mat: Softmax length mismatch")
	}
	if len(logits) == 0 {
		return
	}
	softmaxRows(dst, logits, 1, len(logits))
}

// SoftmaxRows writes the softmax of every row of logits into the same row
// of dst (which may alias logits). Each row gets exactly the bits Softmax
// gives it alone. It panics if the shapes differ.
func SoftmaxRows(dst, logits *Dense) {
	if dst.Rows != logits.Rows || dst.Cols != logits.Cols {
		panic("mat: SoftmaxRows shape mismatch")
	}
	if logits.Cols == 0 {
		return
	}
	softmaxRows(dst.Data, logits.Data, logits.Rows, logits.Cols)
}

// softmaxRows is the one softmax: per row, the running max over the row in
// order, exp(x − max), the sum of those in order, and a division of each
// by the sum. Rows go four at a time with their max and sum chains
// interleaved — four independent dependency chains where one row alone is
// latency-bound — and each row keeps its own order, so its bits are the
// single-row loop's. The division is correctly rounded in any width, so
// divideBy may take it four lanes at a time.
func softmaxRows(dst, src []float64, rows, cols int) {
	r := 0
	for ; r+4 <= rows; r += 4 {
		s0 := src[r*cols:][:cols]
		s1 := src[(r+1)*cols:][:cols]
		s2 := src[(r+2)*cols:][:cols]
		s3 := src[(r+3)*cols:][:cols]
		m0, m1, m2, m3 := s0[0], s1[0], s2[0], s3[0]
		for j := 1; j < cols; j++ {
			if v := s0[j]; v > m0 {
				m0 = v
			}
			if v := s1[j]; v > m1 {
				m1 = v
			}
			if v := s2[j]; v > m2 {
				m2 = v
			}
			if v := s3[j]; v > m3 {
				m3 = v
			}
		}
		d0 := dst[r*cols:][:cols]
		d1 := dst[(r+1)*cols:][:cols]
		d2 := dst[(r+2)*cols:][:cols]
		d3 := dst[(r+3)*cols:][:cols]
		expShift(d0, s0, m0)
		expShift(d1, s1, m1)
		expShift(d2, s2, m2)
		expShift(d3, s3, m3)
		t0, t1, t2, t3 := 0.0, 0.0, 0.0, 0.0
		for j := range d0 {
			t0 += d0[j]
			t1 += d1[j]
			t2 += d2[j]
			t3 += d3[j]
		}
		divideBy(d0, t0)
		divideBy(d1, t1)
		divideBy(d2, t2)
		divideBy(d3, t3)
	}
	for ; r < rows; r++ {
		s := src[r*cols:][:cols]
		d := dst[r*cols:][:cols]
		max := s[0]
		for _, v := range s[1:] {
			if v > max {
				max = v
			}
		}
		expShift(d, s, max)
		sum := 0.0
		for _, e := range d {
			sum += e
		}
		divideBy(d, sum)
	}
}

// divideBy sets v[i] /= d.
func divideBy(v []float64, d float64) {
	if useAVX2 && len(v) > 0 {
		f64Div(&v[0], len(v), d)
		return
	}
	for i := range v {
		v[i] /= d
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
