//go:build !amd64

package mat

// Non-amd64 builds always run the pure-Go reference loops.
const (
	useAVX2      = false
	expOnFMAPath = false
)

func f64AxpyRows(dst *float64, n int, coef *float64, coefStride int, scale float64, rows *float64, rowStride int, count int) {
	panic("mat: f64AxpyRows without AVX2")
}

func f64GemmT(dst, a, b, bias *float64, m, n, k, ldd int) {
	panic("mat: f64GemmT without AVX2")
}

func f64Scale(v *float64, n int, s float64) {
	panic("mat: f64Scale without AVX2")
}

func f64MomentumStep(p, v, grad *float64, n int, momentum, lr float64) {
	panic("mat: f64MomentumStep without AVX2")
}

func f64ExpShift(dst, src *float64, n int, shift float64) int {
	panic("mat: f64ExpShift without AVX2")
}

func f64Tanh(dst, src *float64, n int) int {
	panic("mat: f64Tanh without AVX2")
}

func polarScan4(state uint64, n int, t uint64) (blocks, acc int, bad uint64) {
	panic("mat: polarScan4 without AVX2")
}
