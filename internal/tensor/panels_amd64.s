//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemvPanels(out, p, x []float32)
//
// Lane l of accumulator Yk is row 8k+l of the pass: for j = 0…cols−1 it
// adds the rounded product W[row][j]·x[j] (VMULPS, then VADDPS), the same
// two roundings per term, in the same order, as MatVec's scalar loop.
TEXT ·gemvPanels(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ p_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), BX
	SHRQ $3, CX                // panels left
	MOVQ BX, R8
	SHLQ $5, R8                // bytes per panel: cols·8·4
	LEAQ (R8)(R8*2), R9        // three panels

quad:
	CMPQ CX, $4
	JLT  single
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ BX, R12

quadcol:
	VBROADCASTSS (R11), Y4
	VMULPS (R10), Y4, Y5
	VADDPS Y5, Y0, Y0
	VMULPS (R10)(R8*1), Y4, Y6
	VADDPS Y6, Y1, Y1
	VMULPS (R10)(R8*2), Y4, Y7
	VADDPS Y7, Y2, Y2
	VMULPS (R10)(R9*1), Y4, Y8
	VADDPS Y8, Y3, Y3
	ADDQ $32, R10
	ADDQ $4, R11
	DECQ R12
	JNZ  quadcol
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	LEAQ (SI)(R8*4), SI
	SUBQ $4, CX
	JMP  quad

single:
	TESTQ CX, CX
	JZ    done
	VXORPS Y0, Y0, Y0
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ BX, R12

singlecol:
	VBROADCASTSS (R11), Y4
	VMULPS (R10), Y4, Y5
	VADDPS Y5, Y0, Y0
	ADDQ $32, R10
	ADDQ $4, R11
	DECQ R12
	JNZ  singlecol
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ R8, SI
	DECQ CX
	JMP  single

done:
	VZEROUPPER
	RET
