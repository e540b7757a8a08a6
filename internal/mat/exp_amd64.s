//go:build amd64 && !purego

#include "textflag.h"

// Four-lane exp and tanh, bit-identical to math.Exp and math.Tanh on the
// machines the kernels run on (see f64_amd64.go). EXP4 is math/exp_amd64.s's
// avxfma path with each scalar instruction replaced by its packed twin:
// the same constants, the same FMAs, the same rounding of x·log2(e) to an
// integer, in the same order. Every constant below is stored four times so
// packed instructions can take it as a 256-bit memory operand; the exp ones
// are written exactly as in math/exp_amd64.s, the tanh ones as in
// math/tanh.go.

#define CONST4(name, v) \
	DATA name<>+0(SB)/8, v;  \
	DATA name<>+8(SB)/8, v;  \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(expLog2e, $1.4426950408889634073599246810018920)
CONST4(expLn2u, $0.69314718055966295651160180568695068359375)
CONST4(expLn2l, $0.28235290563031577122588448175013436025525412068e-12)
CONST4(expSixteenth, $0.0625)
CONST4(expC8, $2.4801587301587301587e-5)
CONST4(expC7, $1.9841269841269841270e-4)
CONST4(expC6, $1.3888888888888888889e-3)
CONST4(expC5, $8.3333333333333333333e-3)
CONST4(expC4, $4.1666666666666666667e-2)
CONST4(expC3, $1.6666666666666666667e-1)
CONST4(expHalf, $0.5)
CONST4(expOne, $1.0)
CONST4(expTwo, $2.0)
CONST4(expBias, $0x3FF)
CONST4(expLimit, $700.0)
CONST4(absMask, $0x7FFFFFFFFFFFFFFF)
CONST4(signMask, $0x8000000000000000)
CONST4(tanhP0, $-9.64399179425052238628e-1)
CONST4(tanhP1, $-9.92877231001918586564e1)
CONST4(tanhP2, $-1.61468768441708447952e3)
CONST4(tanhQ0, $1.12811678491632931402e2)
CONST4(tanhQ1, $2.23548839060100448583e3)
CONST4(tanhQ2, $4.84406305325125486048e3)
CONST4(tanhSplit, $0.625)
CONST4(tanhLimit, $44.0)

// VCMPPD predicates (ordered, quiet: false for a NaN lane).
#define LT_OQ $0x11
#define LE_OQ $0x12
#define GE_OQ $0x1D
#define GT_OQ $0x1E

// EXP4 replaces Y0 with exp(Y0) for four arguments in (-700, 700). There
// k = round(x·log2e) lies in [-1010, 1010], so the biased exponent k+1023
// is in [13, 2033] and math.Exp takes neither its overflow nor its
// denormal branch: 2^k is one multiply. Clobbers Y1, Y2 and Y3.
//
//	k  = round(x·log2e)              (CVTSD2SL: current rounding mode)
//	r  = (x − k·ln2u − k·ln2l)/16    (two fused negated multiply-adds)
//	p  = Taylor(r)·r                 (Horner with fused multiply-adds)
//	p  = p·(p+2), three times; then (p+2)·p + 1 fused
//	y  = p·2^k
#define EXP4 \
	VMULPD       expLog2e<>(SB), Y0, Y1; \
	VCVTPD2DQY   Y1, X2;                 \
	VCVTDQ2PD    X2, Y1;                 \
	VFNMADD231PD expLn2u<>(SB), Y1, Y0;  \
	VFNMADD231PD expLn2l<>(SB), Y1, Y0;  \
	VMULPD       expSixteenth<>(SB), Y0, Y0; \
	VMOVUPD      expC8<>(SB), Y3;        \
	VFMADD213PD  expC7<>(SB), Y0, Y3;    \
	VFMADD213PD  expC6<>(SB), Y0, Y3;    \
	VFMADD213PD  expC5<>(SB), Y0, Y3;    \
	VFMADD213PD  expC4<>(SB), Y0, Y3;    \
	VFMADD213PD  expC3<>(SB), Y0, Y3;    \
	VFMADD213PD  expHalf<>(SB), Y0, Y3;  \
	VFMADD213PD  expOne<>(SB), Y0, Y3;   \
	VMULPD       Y3, Y0, Y0;             \
	VADDPD       expTwo<>(SB), Y0, Y3;   \
	VMULPD       Y3, Y0, Y0;             \
	VADDPD       expTwo<>(SB), Y0, Y3;   \
	VMULPD       Y3, Y0, Y0;             \
	VADDPD       expTwo<>(SB), Y0, Y3;   \
	VMULPD       Y3, Y0, Y0;             \
	VADDPD       expTwo<>(SB), Y0, Y3;   \
	VFMADD213PD  expOne<>(SB), Y3, Y0;   \
	VPMOVSXDQ    X2, Y2;                 \
	VPADDQ       expBias<>(SB), Y2, Y2;  \
	VPSLLQ       $52, Y2, Y2;            \
	VMULPD       Y2, Y0, Y0

// func f64ExpShift(dst, src *float64, n int, shift float64) int
//
// dst[i] = exp(src[i] − shift), four at a time, up to the first block of
// four that holds an argument outside (-700, 700) (NaN included) or the
// last whole block; returns how many elements were written.
TEXT ·f64ExpShift(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD shift+24(FP), Y5
	XORQ         AX, AX

expblock:
	LEAQ      4(AX), DX
	CMPQ      DX, CX
	JGT       expdone
	VMOVUPD   (SI)(AX*8), Y0
	VSUBPD    Y5, Y0, Y0
	VANDPD    absMask<>(SB), Y0, Y4
	VCMPPD    LT_OQ, expLimit<>(SB), Y4, Y4
	VMOVMSKPD Y4, BX
	CMPQ      BX, $15
	JNE       expdone
	EXP4
	VMOVUPD   Y0, (DI)(AX*8)
	MOVQ      DX, AX
	JMP       expblock

expdone:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func f64Tanh(dst, src *float64, n int) int
//
// dst[i] = tanh(src[i]), four at a time, up to the first block of four
// that holds a zero, an |x| > 44 or a NaN, or the last whole block; returns
// how many elements were written. Both of math.tanh's branches are
// computed for every lane and blended on |x| ≥ 0.625, each in the Go
// source's operation order with no FMA:
//
//	|x| ≥ 0.625:  ±(1 − 2/(exp(2|x|) + 1))
//	otherwise:    x + x·s·((P0·s + P1)·s + P2) / (((s + Q0)·s + Q1)·s + Q2),  s = x·x
TEXT ·f64Tanh(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y15, Y15, Y15
	XORQ   AX, AX

tanhblock:
	LEAQ      4(AX), DX
	CMPQ      DX, CX
	JGT       tanhdone
	VMOVUPD   (SI)(AX*8), Y6         // x
	VANDPD    absMask<>(SB), Y6, Y7  // z = |x|
	VCMPPD    GT_OQ, Y15, Y7, Y8
	VCMPPD    LE_OQ, tanhLimit<>(SB), Y7, Y9
	VANDPD    Y9, Y8, Y8
	VMOVMSKPD Y8, BX
	CMPQ      BX, $15
	JNE       tanhdone

	// Large branch: 1 − 2/(exp(2z)+1), negated where x < 0.
	VADDPD  Y7, Y7, Y0
	EXP4
	VADDPD  expOne<>(SB), Y0, Y0
	VMOVUPD expTwo<>(SB), Y1
	VDIVPD  Y0, Y1, Y0
	VMOVUPD expOne<>(SB), Y1
	VSUBPD  Y0, Y1, Y0
	VANDPD  signMask<>(SB), Y6, Y1
	VXORPD  Y1, Y0, Y0

	// Small branch: the rational function.
	VMULPD Y6, Y6, Y1             // s
	VMULPD tanhP0<>(SB), Y1, Y2
	VADDPD tanhP1<>(SB), Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD tanhP2<>(SB), Y2, Y2   // numerator
	VADDPD tanhQ0<>(SB), Y1, Y3
	VMULPD Y1, Y3, Y3
	VADDPD tanhQ1<>(SB), Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD tanhQ2<>(SB), Y3, Y3   // denominator
	VMULPD Y1, Y6, Y1             // x·s
	VMULPD Y2, Y1, Y1
	VDIVPD Y3, Y1, Y1
	VADDPD Y1, Y6, Y1

	VCMPPD    GE_OQ, tanhSplit<>(SB), Y7, Y2
	VBLENDVPD Y2, Y0, Y1, Y1
	VMOVUPD   Y1, (DI)(AX*8)
	MOVQ      DX, AX
	JMP       tanhblock

tanhdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
