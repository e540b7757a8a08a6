//go:build amd64

package mat

// AVX2 float64 kernels behind mulMatTRange, mulMatRange, addOuterBatchRange,
// Scale, MomentumStep, Softmax (exp) and Tanh, and the scan behind
// RNG.PolarClear (polar_amd64.s). Each one is bit-identical to
// the pure-Go loop it shadows, by construction: a SIMD lane is always one
// independent output element, that element's accumulation keeps its
// ascending order, multiply and add stay separate instructions (no FMA —
// the Go compiler does not fuse on amd64 either), and zero-coefficient
// skips sit exactly where the Go loops have them. The one place an FMA
// appears is inside exp, where math.Exp's own assembly has it. The Go
// loops stay as the fallback and the test oracle.

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

// f64ExpShift computes dst[i] = math.Exp(src[i] - shift) four elements at a
// time and stops before the first block of four holding an argument outside
// (-700, 700), or before a tail shorter than four; it returns how many
// elements it wrote. Inside that range math.Exp runs the straight-line
// avxfma path of math/exp_amd64.s, which the kernel repeats lane for lane
// (exp_amd64.s) — so it may run only while math.Exp takes that path
// (expOnFMAPath).
//
//go:noescape
func f64ExpShift(dst, src *float64, n int, shift float64) int

// f64Tanh computes dst[i] = math.Tanh(src[i]) four elements at a time and
// stops before the first block holding a zero, a NaN or an |x| > 44, or
// before a tail shorter than four; it returns how many elements it wrote.
// Each lane computes both of math.tanh's branches (its exp through the
// f64ExpShift code) and keeps the one |x| selects.
//
//go:noescape
func f64Tanh(dst, src *float64, n int) int

// polarScan4 runs RNG.PolarClear's attempts from state four at a time while
// at least four of n acceptances are still wanted. It returns how many
// blocks of four attempts it ran (the generator is then 8γ per block
// further on), how many of their pairs were accepted, and a non-zero bad
// when an accepted pair's s was not above the float64 whose bits are t,
// which must be below 2^63.
func polarScan4(state uint64, n int, t uint64) (blocks, acc int, bad uint64)
