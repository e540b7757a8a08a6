//go:build amd64 && !purego

#include "textflag.h"

// Bit-exactness rules every kernel in this file obeys (see f64_amd64.go):
// lanes are independent output elements, accumulation order per element is
// the Go loop's, VMULPD and VADDPD stay separate (never FMA), zero skips
// match the Go loop, and every kernel ends in VZEROUPPER.

// AXPYCOEF loads the next coefficient into X12 as scale*coef and jumps to
// skip when it compares equal to zero (±0; NaN is unordered, so it is kept
// and propagates exactly as in the Go loop), else broadcasts it to Y12.
#define AXPYCOEF(skip) \
	VMOVSD       (SI), X12;     \
	VMULSD       X12, X14, X12; \
	VUCOMISD     X13, X12;      \
	JNE          2(PC);         \
	JPC          skip;          \
	VBROADCASTSD X12, Y12

// AXPYNEXT advances to the next coefficient / source row.
#define AXPYNEXT(loop) \
	ADDQ R8, SI; \
	ADDQ R9, DX; \
	DECQ BX;     \
	JNZ  loop

// func f64AxpyRows(dst *float64, n int, coef *float64, coefStride int, scale float64, rows *float64, rowStride int, count int)
//
// Column blocks of 24, 16, 8, 4 and 1 doubles; within a block the
// destination stays in registers while every coefficient is applied in
// ascending order. Each coefficient's adds wait on the previous ones into
// the same registers, so a pass costs about one add latency per
// coefficient however wide it is up to six registers: the 24-wide block
// covers a 24-column row (the out layer's, the codec's widest training
// row) in one pass where 16 + 8 took two.
TEXT ·f64AxpyRows(SB), NOSPLIT, $0-64
	MOVQ   dst+0(FP), DI
	MOVQ   n+8(FP), CX
	MOVQ   coefStride+24(FP), R8
	SHLQ   $3, R8                  // coefficient stride in bytes
	VMOVSD scale+32(FP), X14
	MOVQ   rows+40(FP), R10        // source column-block base
	MOVQ   rowStride+48(FP), R9
	SHLQ   $3, R9                  // source row stride in bytes
	VXORPD X13, X13, X13           // zero for the skip compare
	CMPQ   count+56(FP), $0
	JLE    done

blk24:
	CMPQ    CX, $24
	JL      blk16
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	MOVQ    coef+16(FP), SI
	MOVQ    R10, DX
	MOVQ    count+56(FP), BX

c24:
	AXPYCOEF(n24)
	VMULPD (DX), Y12, Y6
	VMULPD 32(DX), Y12, Y7
	VMULPD 64(DX), Y12, Y8
	VMULPD 96(DX), Y12, Y9
	VMULPD 128(DX), Y12, Y10
	VMULPD 160(DX), Y12, Y11
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y1, Y1
	VADDPD Y8, Y2, Y2
	VADDPD Y9, Y3, Y3
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5

n24:
	AXPYNEXT(c24)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	ADDQ    $192, DI
	ADDQ    $192, R10
	SUBQ    $24, CX
	JMP     blk24

blk16:
	CMPQ    CX, $16
	JL      blk8
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    coef+16(FP), SI
	MOVQ    R10, DX
	MOVQ    count+56(FP), BX

c16:
	AXPYCOEF(n16)
	VMULPD (DX), Y12, Y4
	VMULPD 32(DX), Y12, Y5
	VMULPD 64(DX), Y12, Y6
	VMULPD 96(DX), Y12, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

n16:
	AXPYNEXT(c16)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R10
	SUBQ    $16, CX
	JMP     blk16

blk8:
	CMPQ    CX, $8
	JL      blk4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ    coef+16(FP), SI
	MOVQ    R10, DX
	MOVQ    count+56(FP), BX

c8:
	AXPYCOEF(n8)
	VMULPD (DX), Y12, Y4
	VMULPD 32(DX), Y12, Y5
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1

n8:
	AXPYNEXT(c8)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, R10
	SUBQ    $8, CX

blk4:
	CMPQ    CX, $4
	JL      blk1
	VMOVUPD (DI), Y0
	MOVQ    coef+16(FP), SI
	MOVQ    R10, DX
	MOVQ    count+56(FP), BX

c4:
	AXPYCOEF(n4)
	VMULPD (DX), Y12, Y4
	VADDPD Y4, Y0, Y0

n4:
	AXPYNEXT(c4)
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R10
	SUBQ    $4, CX

blk1:
	TESTQ  CX, CX
	JZ     done
	VMOVSD (DI), X0
	MOVQ   coef+16(FP), SI
	MOVQ   R10, DX
	MOVQ   count+56(FP), BX

c1:
	AXPYCOEF(n1)
	VMULSD (DX), X12, X4
	VADDSD X4, X0, X0

n1:
	AXPYNEXT(c1)
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, R10
	DECQ   CX
	JMP    blk1

done:
	VZEROUPPER
	RET

// GEMMTSTEP folds one k position into the four row accumulators: broadcast
// a[r][p+q] for each activation row r, multiply by the transposed weight
// column t (= b[j..j+3][p+q]), add.
#define GEMMTSTEP(off, t) \
	VBROADCASTSD off(SI), Y8;          \
	VBROADCASTSD off(SI)(R10*1), Y9;   \
	VBROADCASTSD off(R11), Y10;        \
	VBROADCASTSD off(R11)(R10*1), Y11; \
	VMULPD       t, Y8, Y8;            \
	VMULPD       t, Y9, Y9;            \
	VMULPD       t, Y10, Y10;          \
	VMULPD       t, Y11, Y11;          \
	VADDPD       Y8, Y0, Y0;           \
	VADDPD       Y9, Y1, Y1;           \
	VADDPD       Y10, Y2, Y2;          \
	VADDPD       Y11, Y3, Y3

// func f64GemmT(dst, a, b, bias *float64, m, n, k, ldd int)
//
// dst[i*ldd+j] = dot(a[i*k:], b[j*k:]) (+ bias[j]); m, n, k positive
// multiples of 4. One tile is 4 activation rows x 4 weight rows: Y0..Y3
// hold the four rows' accumulators, lane l of each being output column
// j+l. Per k-block of 4 the weight tile is transposed in registers so that
// Y4..Y7 hold b[j..j+3][p], [p+1], [p+2], [p+3].
TEXT ·f64GemmT(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R13              // activation row-group base
	MOVQ m+32(FP), R12             // rows remaining
	MOVQ k+48(FP), R10
	SHLQ $3, R10                   // a/b row stride in bytes
	MOVQ ldd+56(FP), R8
	SHLQ $3, R8                    // dst row stride in bytes

rowgroup:
	MOVQ b+16(FP), BX              // weight tile base
	MOVQ bias+24(FP), AX           // 0 when there is no bias
	MOVQ n+40(FP), R9              // columns remaining

tile:
	MOVQ   R13, SI
	LEAQ   (SI)(R10*2), R11
	MOVQ   BX, DX
	LEAQ   (DX)(R10*2), R14
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   k+48(FP), CX
	SHRQ   $2, CX

kblock:
	VMOVUPD    (DX), Y4
	VMOVUPD    (DX)(R10*1), Y5
	VMOVUPD    (R14), Y6
	VMOVUPD    (R14)(R10*1), Y7
	VUNPCKLPD  Y5, Y4, Y8          // b0p0 b1p0 b0p2 b1p2
	VUNPCKHPD  Y5, Y4, Y9          // b0p1 b1p1 b0p3 b1p3
	VUNPCKLPD  Y7, Y6, Y10         // b2p0 b3p0 b2p2 b3p2
	VUNPCKHPD  Y7, Y6, Y11         // b2p1 b3p1 b2p3 b3p3
	VPERM2F128 $0x20, Y10, Y8, Y4  // b0p0 b1p0 b2p0 b3p0
	VPERM2F128 $0x20, Y11, Y9, Y5  // ...p1
	VPERM2F128 $0x31, Y10, Y8, Y6  // ...p2
	VPERM2F128 $0x31, Y11, Y9, Y7  // ...p3
	GEMMTSTEP(0, Y4)
	GEMMTSTEP(8, Y5)
	GEMMTSTEP(16, Y6)
	GEMMTSTEP(24, Y7)
	ADDQ       $32, SI
	ADDQ       $32, R11
	ADDQ       $32, DX
	ADDQ       $32, R14
	DECQ       CX
	JNZ        kblock

	TESTQ   AX, AX
	JZ      store
	VMOVUPD (AX), Y4               // bias lands after the finished dot
	VADDPD  Y4, Y0, Y0
	VADDPD  Y4, Y1, Y1
	VADDPD  Y4, Y2, Y2
	VADDPD  Y4, Y3, Y3
	ADDQ    $32, AX

store:
	LEAQ    (DI)(R8*2), CX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R8*1)
	VMOVUPD Y2, (CX)
	VMOVUPD Y3, (CX)(R8*1)
	ADDQ    $32, DI
	LEAQ    (BX)(R10*4), BX
	SUBQ    $4, R9
	JNZ     tile

	// Next four activation rows: dst steps back over the n columns just
	// written and down four rows.
	LEAQ (R13)(R10*4), R13
	MOVQ n+40(FP), CX
	SHLQ $3, CX
	SUBQ CX, DI
	LEAQ (DI)(R8*4), DI
	SUBQ $4, R12
	JNZ  rowgroup
	VZEROUPPER
	RET

// func f64ScaleSquares(v *float64, n int, s float64, acc *[4]float64)
//
// v *= s, and the squares of the products into the four lane sums: Y2
// holds acc across the blocks of four, then goes back to memory so the
// tail can run on lane 0 alone (a scalar VEX op would clear Y2's upper
// half).
TEXT ·f64ScaleSquares(SB), NOSPLIT, $0-32
	MOVQ         v+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD s+16(FP), Y1
	MOVQ         acc+24(FP), SI
	VMOVUPD      (SI), Y2

sq4:
	CMPQ    CX, $4
	JL      sqtail
	VMULPD  (DI), Y1, Y0
	VMOVUPD Y0, (DI)
	VMULPD  Y0, Y0, Y0
	VADDPD  Y0, Y2, Y2
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     sq4

sqtail:
	VMOVUPD Y2, (SI)
	VMOVSD  (SI), X2

sq1:
	TESTQ  CX, CX
	JZ     sqdone
	VMULSD (DI), X1, X0
	VMOVSD X0, (DI)
	VMULSD X0, X0, X0
	VADDSD X0, X2, X2
	ADDQ   $8, DI
	DECQ   CX
	JMP    sq1

sqdone:
	VMOVSD X2, (SI)
	VZEROUPPER
	RET

// func f64Div(v *float64, n int, d float64)
TEXT ·f64Div(SB), NOSPLIT, $0-24
	MOVQ         v+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD d+16(FP), Y1

div4:
	CMPQ    CX, $4
	JL      div1
	VMOVUPD (DI), Y0
	VDIVPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     div4

div1:
	TESTQ  CX, CX
	JZ     divdone
	VMOVSD (DI), X0
	VDIVSD X1, X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JMP    div1

divdone:
	VZEROUPPER
	RET

// func f64MomentumStep(p, v, grad *float64, n int, momentum, lr float64)
//
// v = momentum*v - lr*grad; p += v — two products, one subtract, one add, in
// the Go loop's order — and grad = +0 once it is read.
TEXT ·f64MomentumStep(SB), NOSPLIT, $0-48
	MOVQ         p+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         grad+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD momentum+32(FP), Y4
	VBROADCASTSD lr+40(FP), Y5
	VXORPD       Y6, Y6, Y6

mom4:
	CMPQ    CX, $4
	JL      mom1
	VMULPD  (SI), Y4, Y0
	VMULPD  (DX), Y5, Y1
	VMOVUPD Y6, (DX)
	VSUBPD  Y1, Y0, Y0
	VMOVUPD Y0, (SI)
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     mom4

mom1:
	TESTQ  CX, CX
	JZ     momdone
	VMULSD (SI), X4, X0
	VMULSD (DX), X5, X1
	VMOVSD X6, (DX)
	VSUBSD X1, X0, X0
	VMOVSD X0, (SI)
	VADDSD (DI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	ADDQ   $8, DX
	DECQ   CX
	JMP    mom1

momdone:
	VZEROUPPER
	RET
