#include "textflag.h"

// func envelopeBounds(q *[EnvelopeWidth]float32, eps float64, rows, slack []float32, out []float64)
//
// The query's 32 floats stay in X8–X15 (X15 is free in an ABI0 function:
// Go code re-zeroes it after the call). Per row, X0 accumulates the four
// lanes: the first group's squares, then each later group's added in order,
// every square rounded before its add (MULPS then ADDPS, no FMA). The
// reduction swaps pairs (SHUFPS $0xB1: s1 s0 s3 s2), adds to get s0+s1 in
// lane 0 and s2+s3 in lane 2, moves lane 2 down (MOVHLPS) and adds them:
// (s0+s1)+(s2+s3). Rows are not 16-byte aligned, so every load is MOVUPS.
//
// The tail is rowLB's: a sum whose float32 exponent is all ones (+Inf or
// NaN) gives 0; otherwise CVTSS2SD, SQRTSD, MULSD by 1 − 2⁻²⁰ (rowShrink,
// 0x3FEFFFFE00000000 in X6), SUBSD the query's slack (X7), SUBSD the row's,
// and MAXSD against +0 (X5), which keeps the bound only when it is > 0: for
// a −0 or NaN bound it gives +0.
TEXT ·envelopeBounds(SB), NOSPLIT, $0-88
	MOVQ   q+0(FP), AX
	MOVSD  eps+8(FP), X7
	MOVQ   rows_base+16(FP), SI
	MOVQ   slack_base+40(FP), BX
	MOVQ   out_base+64(FP), DI
	MOVQ   out_len+72(FP), CX
	MOVUPS 0(AX), X8
	MOVUPS 16(AX), X9
	MOVUPS 32(AX), X10
	MOVUPS 48(AX), X11
	MOVUPS 64(AX), X12
	MOVUPS 80(AX), X13
	MOVUPS 96(AX), X14
	MOVUPS 112(AX), X15
	MOVQ   $0x3FEFFFFE00000000, DX
	MOVQ   DX, X6
	XORPS  X5, X5
	TESTQ  CX, CX
	JZ     done

row:
	MOVUPS 0(SI), X1
	MOVAPS X8, X0
	SUBPS  X1, X0
	MULPS  X0, X0

	MOVUPS 16(SI), X2
	MOVAPS X9, X1
	SUBPS  X2, X1
	MULPS  X1, X1
	ADDPS  X1, X0

	MOVUPS 32(SI), X2
	MOVAPS X10, X1
	SUBPS  X2, X1
	MULPS  X1, X1
	ADDPS  X1, X0

	MOVUPS 48(SI), X2
	MOVAPS X11, X1
	SUBPS  X2, X1
	MULPS  X1, X1
	ADDPS  X1, X0

	MOVUPS 64(SI), X2
	MOVAPS X12, X1
	SUBPS  X2, X1
	MULPS  X1, X1
	ADDPS  X1, X0

	MOVUPS 80(SI), X2
	MOVAPS X13, X1
	SUBPS  X2, X1
	MULPS  X1, X1
	ADDPS  X1, X0

	MOVUPS 96(SI), X2
	MOVAPS X14, X1
	SUBPS  X2, X1
	MULPS  X1, X1
	ADDPS  X1, X0

	MOVUPS 112(SI), X2
	MOVAPS X15, X1
	SUBPS  X2, X1
	MULPS  X1, X1
	ADDPS  X1, X0

	MOVAPS  X0, X1
	SHUFPS  $0xB1, X1, X1
	ADDPS   X1, X0
	MOVHLPS X0, X1
	ADDSS   X1, X0

	MOVL     X0, DX
	ANDL     $0x7F800000, DX
	CMPL     DX, $0x7F800000
	JEQ      nonfinite
	CVTSS2SD X0, X1
	SQRTSD   X1, X1
	MULSD    X6, X1
	SUBSD    X7, X1
	CVTSS2SD (BX), X2
	SUBSD    X2, X1
	MAXSD    X5, X1
	MOVSD    X1, (DI)

next:
	ADDQ $128, SI
	ADDQ $4, BX
	ADDQ $8, DI
	DECQ CX
	JNZ  row

done:
	RET

nonfinite:
	MOVQ $0, (DI)
	JMP  next

// func momentLanes(x Series, l int, d float64, lanes []laneState)
//
// Per chunk (x advances l points a chunk, lanes 96 bytes), over its first
// l&^3 points: X0 = (d, d+1) and X1 = (d+2, d+3) are the lanes' positions,
// stepped by (4, 4) in X2; X3–X4 add the points, X5–X6 their products with
// the position and X7–X8 those products times the position again, each
// product rounded before its add (MULPD then ADDPD, no FMA). The stores
// write Σx, Σdx and Σd²x, two lanes a register, in laneState's order.
TEXT ·momentLanes(SB), NOSPLIT, $0-64
	MOVQ     x_base+0(FP), SI
	MOVQ     l+24(FP), R8
	MOVSD    d+32(FP), X12
	MOVQ     lanes_base+40(FP), DI
	MOVQ     lanes_len+48(FP), R9
	MOVQ     $0x3FF0000000000000, AX // 1
	MOVQ     AX, X11
	ADDSD    X12, X11
	UNPCKLPD X11, X12                // X12 = (d, d+1)
	MOVQ     $0x4000000000000000, AX // 2
	MOVQ     AX, X11
	UNPCKLPD X11, X11
	MOVAPS   X12, X13
	ADDPD    X11, X13                // X13 = (d+2, d+3)
	MOVQ     $0x4010000000000000, AX // 4
	MOVQ     AX, X2
	UNPCKLPD X2, X2
	MOVQ     R8, R10
	SHRQ     $2, R10                 // iterations a chunk
	SHLQ     $3, R8                  // bytes a chunk
	TESTQ    R9, R9
	JZ       mdone

mchunk:
	MOVAPS X12, X0
	MOVAPS X13, X1
	XORPS  X3, X3
	XORPS  X4, X4
	XORPS  X5, X5
	XORPS  X6, X6
	XORPS  X7, X7
	XORPS  X8, X8
	MOVQ   SI, AX
	MOVQ   R10, CX
	TESTQ  CX, CX
	JZ     mstore

mloop:
	MOVUPD 0(AX), X9
	MOVUPD 16(AX), X10
	ADDPD  X9, X3
	ADDPD  X10, X4
	MULPD  X0, X9
	MULPD  X1, X10
	ADDPD  X9, X5
	ADDPD  X10, X6
	MULPD  X0, X9
	MULPD  X1, X10
	ADDPD  X9, X7
	ADDPD  X10, X8
	ADDPD  X2, X0
	ADDPD  X2, X1
	ADDQ   $32, AX
	DECQ   CX
	JNZ    mloop

mstore:
	MOVUPD X3, 0(DI)
	MOVUPD X4, 16(DI)
	MOVUPD X5, 32(DI)
	MOVUPD X6, 48(DI)
	MOVUPD X7, 64(DI)
	MOVUPD X8, 80(DI)
	ADDQ   R8, SI
	ADDQ   $96, DI
	DECQ   R9
	JNZ    mchunk

mdone:
	RET

// func residualLanes(x Series, l int, lanes []laneState)
//
// Per chunk, over its first l&^3 points: X0–X1 are the lanes' fits f,
// X2–X3 their steps g and X4 the steps' common step. Each point subtracts f,
// squares (rounded) and adds into X6–X7, then f += g and g += the step. The
// stores write back f and the four Σ(x − f)² in laneState's order.
TEXT ·residualLanes(SB), NOSPLIT, $0-56
	MOVQ  x_base+0(FP), SI
	MOVQ  l+24(FP), R8
	MOVQ  lanes_base+32(FP), DI
	MOVQ  lanes_len+40(FP), R9
	MOVQ  R8, R10
	SHRQ  $2, R10
	SHLQ  $3, R8
	TESTQ R9, R9
	JZ    rdone

rchunk:
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVUPD 64(DI), X4
	XORPS  X6, X6
	XORPS  X7, X7
	MOVQ   SI, AX
	MOVQ   R10, CX
	TESTQ  CX, CX
	JZ     rstore

rloop:
	MOVUPD 0(AX), X8
	MOVUPD 16(AX), X9
	SUBPD  X0, X8
	SUBPD  X1, X9
	MULPD  X8, X8
	MULPD  X9, X9
	ADDPD  X8, X6
	ADDPD  X9, X7
	ADDPD  X2, X0
	ADDPD  X3, X1
	ADDPD  X4, X2
	ADDPD  X4, X3
	ADDQ   $32, AX
	DECQ   CX
	JNZ    rloop

rstore:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X6, 64(DI)
	MOVUPD X7, 80(DI)
	ADDQ   R8, SI
	ADDQ   $96, DI
	DECQ   R9
	JNZ    rchunk

rdone:
	RET
