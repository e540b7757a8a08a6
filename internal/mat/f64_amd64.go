//go:build amd64

package mat

// AVX2 float64 kernels behind mulMatTRange, mulMatRange, addOuterBatchRange,
// Scale and MomentumStep. Each one is bit-identical to the pure-Go loop it
// shadows, by construction: a SIMD lane is always one independent output
// element, that element's accumulation keeps its ascending order, multiply
// and add stay separate instructions (no FMA — the Go compiler does not fuse
// on amd64 either), and zero-coefficient skips sit exactly where the Go
// loops have them. The Go loops stay as the fallback and the test oracle.

// f64AxpyRows computes, for c ascending in [0, count):
//
//	v := scale * coef[c*coefStride]
//	if v == 0 { continue }
//	dst[0:n] += v * rows[c*rowStride : c*rowStride+n]
//
// The destination is held in registers across the whole coefficient loop,
// one column block at a time, so every dst element still accumulates in
// ascending c order.
//
//go:noescape
func f64AxpyRows(dst *float64, n int, coef *float64, coefStride int, scale float64, rows *float64, rowStride int, count int)

// f64GemmT computes dst[i*ldd+j] = dot(a[i*k:i*k+k], b[j*k:j*k+k]) (+
// bias[j] when bias is non-nil) for i in [0, m), j in [0, n). m, n and k
// must be positive multiples of 4; ldd is dst's row stride. Lanes are four
// output columns: four weight rows are transposed 4x4 in registers per
// k-block and shared by four activation rows, each dot product
// accumulating in ascending k order with the bias added last.
//
//go:noescape
func f64GemmT(dst, a, b, bias *float64, m, n, k, ldd int)

// f64Scale computes v[i] *= s for i in [0, n).
//
//go:noescape
func f64Scale(v *float64, n int, s float64)

// f64MomentumStep computes, for j in [0, n):
//
//	v[j] = momentum*v[j] - lr*grad[j]
//	p[j] += v[j]
//
// (The gradient parameter is not called g: Go assembly reserves that name.)
//
//go:noescape
func f64MomentumStep(p, v, grad *float64, n int, momentum, lr float64)
