#include "textflag.h"

// func envelopeSums(q *[EnvelopeWidth]float32, rows, sums []float32)
//
// The query's 32 floats stay in X8–X15 (X15 is free in an ABI0 function:
// Go code re-zeroes it after the call). Per row, X0 accumulates the four
// lanes: the first group's squares, then each later group's added in order,
// every square rounded before its add (MULPS then ADDPS, no FMA). The
// reduction swaps pairs (SHUFPS $0xB1: s1 s0 s3 s2), adds to get s0+s1 in
// lane 0 and s2+s3 in lane 2, moves lane 2 down (MOVHLPS) and adds them:
// (s0+s1)+(s2+s3). Rows are not 16-byte aligned, so every load is MOVUPS.
TEXT ·envelopeSums(SB), NOSPLIT, $0-56
	MOVQ   q+0(FP), AX
	MOVQ   rows_base+8(FP), SI
	MOVQ   sums_base+32(FP), DI
	MOVQ   sums_len+40(FP), CX
	MOVUPS 0(AX), X8
	MOVUPS 16(AX), X9
	MOVUPS 32(AX), X10
	MOVUPS 48(AX), X11
	MOVUPS 64(AX), X12
	MOVUPS 80(AX), X13
	MOVUPS 96(AX), X14
	MOVUPS 112(AX), X15
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
	MOVSS   X0, (DI)

	ADDQ $128, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  row

done:
	RET
