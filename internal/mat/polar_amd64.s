//go:build amd64

#include "textflag.h"

// The clean-crossing scan of RNG.PolarClear, four polar attempts at a
// time. SplitMix64's state only ever adds γ = 0x9e3779b97f4a7c15, so from a
// state s the j-th attempt of a block draws its a from s + (2j+1)γ and its b
// from s + (2j+2)γ: one register of four a states, one of four b states,
// each stepped by 8γ per block. Every lane computes exactly what the Go
// loop computes for its attempt — the same 64-bit mix, the same uniform,
// s = a*a + b*b as two multiplies and an add (no FMA), the Go loop's
// comparisons on s's bit pattern as integer compares — so the scan is
// bit-exact by construction, not by tolerance.

// polarLanes holds the a-lane offsets γ, 3γ, 5γ, 7γ, then the b-lane
// offsets 2γ, 4γ, 6γ, 8γ (mod 2^64).
DATA polarLanes<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA polarLanes<>+8(SB)/8, $0xdaa66d2c7ddf743f
DATA polarLanes<>+16(SB)/8, $0x1715609f7c746c69
DATA polarLanes<>+24(SB)/8, $0x538454127b096493
DATA polarLanes<>+32(SB)/8, $0x3c6ef372fe94f82a
DATA polarLanes<>+40(SB)/8, $0x78dde6e5fd29f054
DATA polarLanes<>+48(SB)/8, $0xb54cda58fbbee87e
DATA polarLanes<>+56(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL polarLanes<>(SB), RODATA|NOPTR, $64

// polarStep is 8γ in every lane: one block of four attempts.
DATA polarStep<>+0(SB)/8, $0xf1bbcdcbfa53e0a8
DATA polarStep<>+8(SB)/8, $0xf1bbcdcbfa53e0a8
DATA polarStep<>+16(SB)/8, $0xf1bbcdcbfa53e0a8
DATA polarStep<>+24(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL polarStep<>(SB), RODATA|NOPTR, $32

// MUL64 sets z = z·c mod 2^64 in every lane, where c holds the multiplier
// and ch the multiplier shifted right by 32. AVX2 has no 64-bit multiply;
// VPMULUDQ multiplies the low 32 bits of each lane, so
//
//	z·c = zl·cl + ((zh·cl + zl·ch) << 32)  (mod 2^64)
//
// Clobbers t1 and t2.
#define MUL64(z, c, ch, t1, t2) \
	VPSRLQ   $32, z, t1; \
	VPMULUDQ c, t1, t1;  \
	VPMULUDQ ch, z, t2;  \
	VPADDQ   t2, t1, t1; \
	VPSLLQ   $32, t1, t1; \
	VPMULUDQ c, z, z;    \
	VPADDQ   t1, z, z

// UNIFORM sets z to 2·Float64() − 1 of the SplitMix64 state in st, the
// expression the Go loop evaluates. With v = mix(st) >> 11 (53 bits) that
// value is exactly (v − 2^52)·2^-52. It is built without an int → float
// conversion: the low 52 bits of v under the exponent of 1.0 make
// 1 + m·2^-52, and subtracting 1.0 where v's top bit (the mix's sign bit)
// is set, 2.0 where it is clear, lands on the same value. Both subtractions
// are exact, and v = 2^52 gives +0 as the Go loop does. Needs Y2–Y5 (the
// multipliers), Y7 (1.0) and Y8 (2.0); clobbers t1 and t2.
#define UNIFORM(st, z, t1, t2) \
	VPSRLQ    $30, st, z;     \
	VPXOR     st, z, z;       \
	MUL64(z, Y2, Y3, t1, t2); \
	VPSRLQ    $27, z, t1;     \
	VPXOR     t1, z, z;       \
	MUL64(z, Y4, Y5, t1, t2); \
	VPSRLQ    $31, z, t1;     \
	VPXOR     t1, z, z;       \
	VPADDQ    z, z, t1;       \
	VPSRLQ    $12, t1, t1;    \
	VPOR      Y7, t1, t1;     \
	VBLENDVPD z, Y7, Y8, t2;  \
	VSUBPD    t2, t1, z

// func polarScan4(state uint64, n int, t uint64) (blocks, acc int, bad uint64)
//
// Runs blocks of four attempts from state while n − acc ≥ 4, so a block
// can never run past the n-th accepted pair, and returns how many blocks
// it ran, how many of their attempts were accepted (0 < s < 1) and, non-zero
// when any accepted s was not above the threshold, the verdict. t is the
// threshold's bit pattern capped at 2^63 − 1, so the signed 64-bit compare
// orders it against s's bits as the Go loop's unsigned one does.
//
// Blocks run in rounds of (n − acc)/4 with no count in the loop: four
// attempts accept at most four pairs, so none of a round's blocks can start
// with fewer than four acceptances left to find. Each lane counts its own
// acceptances, and only a round's end adds them up.
TEXT ·polarScan4(SB), NOSPLIT, $0-48
	MOVQ n+8(FP), CX
	VPBROADCASTQ state+0(FP), Y1
	VPADDQ       polarLanes<>+0(SB), Y1, Y0  // a states
	VPADDQ       polarLanes<>+32(SB), Y1, Y1 // b states
	VPBROADCASTQ t+16(FP), Y6

	MOVQ         $0xbf58476d1ce4e5b9, AX
	VMOVQ        AX, X2
	VPBROADCASTQ X2, Y2
	SHRQ         $32, AX
	VMOVQ        AX, X3
	VPBROADCASTQ X3, Y3
	MOVQ         $0x94d049bb133111eb, AX
	VMOVQ        AX, X4
	VPBROADCASTQ X4, Y4
	SHRQ         $32, AX
	VMOVQ        AX, X5
	VPBROADCASTQ X5, Y5
	MOVQ         $0x3ff0000000000000, AX
	VMOVQ        AX, X7
	VPBROADCASTQ X7, Y7
	MOVQ         $0x4000000000000000, AX
	VMOVQ        AX, X8
	VPBROADCASTQ X8, Y8

	VPXOR Y9, Y9, Y9   // per-lane accepted counts
	VPXOR Y10, Y10, Y10 // per-lane verdicts: all ones where an accepted s ≤ thr
	XORQ  BX, BX       // blocks
	XORQ  DX, DX       // acc

polarround:
	MOVQ CX, R8
	SUBQ DX, R8
	CMPQ R8, $4
	JLT  polardone
	SHRQ $2, R8
	ADDQ R8, BX

polarblock:
	UNIFORM(Y0, Y11, Y13, Y14) // a
	UNIFORM(Y1, Y12, Y13, Y14) // b
	VMULPD   Y11, Y11, Y11
	VMULPD   Y12, Y12, Y12
	VADDPD   Y12, Y11, Y11    // s = a*a + b*b
	VPCMPGTQ Y11, Y7, Y12     // s < 1
	VPXOR    Y13, Y13, Y13
	VPCMPGTQ Y13, Y11, Y13    // s > 0
	VPAND    Y13, Y12, Y12    // accepted
	VPCMPGTQ Y6, Y11, Y13     // s > thr
	VPANDN   Y12, Y13, Y13    // accepted and not above
	VPOR     Y13, Y10, Y10
	VPSUBQ   Y12, Y9, Y9      // an accepted lane is -1
	VPADDQ   polarStep<>(SB), Y0, Y0
	VPADDQ   polarStep<>(SB), Y1, Y1
	DECQ     R8
	JNZ      polarblock

	VEXTRACTI128 $1, Y9, X13
	VPADDQ       X13, X9, X13
	VPSHUFD      $0x4E, X13, X14
	VPADDQ       X14, X13, X13
	VMOVQ        X13, DX
	JMP          polarround

polardone:
	VEXTRACTI128 $1, Y10, X13
	VPOR         X13, X10, X13
	VPSHUFD      $0x4E, X13, X14
	VPOR         X14, X13, X13
	VMOVQ        X13, AX
	MOVQ         BX, blocks+24(FP)
	MOVQ         DX, acc+32(FP)
	MOVQ         AX, bad+40(FP)
	VZEROUPPER
	RET
