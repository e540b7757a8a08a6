//go:build amd64 && !purego

package mat

import "math"

// useAVX2 reports whether the AVX2+FMA assembly kernels may run: the CPU
// must advertise AVX2 and FMA3 and the OS must have enabled YMM state
// (OSXSAVE + XCR0). Detected once at startup; the pure-Go loops remain the
// reference fallback on older hardware, and the only path in a build with
// the purego tag (simd_other.go).
var useAVX2 = detectAVX2()

// expOnFMAPath reports whether math.Exp takes the avxfma path of
// math/exp_amd64.s, the one the exp and tanh kernels repeat. The CPU
// conditions of useAVX2 are the ones that select it, but GODEBUG=cpu.fma=off
// (or cpu.avx=off) moves math.Exp to its other path where cpuid cannot see
// it. So it is decided by the results: the kernel on four arguments that the
// two paths round differently must equal math.Exp on each.
var expOnFMAPath = useAVX2 && expKernelMatchesMath()

func expKernelMatchesMath() bool {
	probe := [4]float64{-0.1875, 0.375, 2.375, -3.75}
	var got [4]float64
	if f64ExpShift(&got[0], &probe[0], len(probe), 0) != len(probe) {
		return false
	}
	for i, x := range probe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (YMM) must both be OS-enabled.
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}

// cpuid executes CPUID with the given leaf/subleaf.
//
//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE).
//
//go:noescape
func xgetbv() (eax, edx uint32)
