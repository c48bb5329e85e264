#include "textflag.h"

// func subScaledKernel(dst, src []float64, f float64)
//
// dst[j] -= f*src[j] for j < len(src), eight elements a step in four
// SSE2 register pairs, then one at a time. MULPD rounds the product and
// SUBPD the difference, exactly as the scalar loop does; there is no
// fused multiply-add in SSE2.
TEXT ·subScaledKernel(SB), NOSPLIT, $0-56
	MOVQ  dst_base+0(FP), DI
	MOVQ  src_base+24(FP), SI
	MOVQ  src_len+32(FP), CX
	MOVSD f+48(FP), X0
	UNPCKLPD X0, X0 // X0 = {f, f}
	CMPQ  CX, $8
	JLT   tail

loop8:
	MOVUPD (SI), X1
	MOVUPD 16(SI), X2
	MOVUPD 32(SI), X3
	MOVUPD 48(SI), X4
	MULPD  X0, X1
	MULPD  X0, X2
	MULPD  X0, X3
	MULPD  X0, X4
	MOVUPD (DI), X5
	MOVUPD 16(DI), X6
	MOVUPD 32(DI), X7
	MOVUPD 48(DI), X8
	SUBPD  X1, X5
	SUBPD  X2, X6
	SUBPD  X3, X7
	SUBPD  X4, X8
	MOVUPD X5, (DI)
	MOVUPD X6, 16(DI)
	MOVUPD X7, 32(DI)
	MOVUPD X8, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $8, CX
	CMPQ   CX, $8
	JGE    loop8

tail:
	TESTQ CX, CX
	JZ    done

loop1:
	MOVSD (SI), X1
	MULSD X0, X1
	MOVSD (DI), X5
	SUBSD X1, X5
	MOVSD X5, (DI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   loop1

done:
	RET
