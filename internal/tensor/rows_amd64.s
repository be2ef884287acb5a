//go:build amd64 && !purego

#include "textflag.h"

// One row of a column block in axpyRowsAVX: Y8 holds the broadcast weight,
// the row's 8-column group at off(R11) is multiplied by it into tmp, and
// the product is added to the column group's accumulator acc.
#define AXPY8(off, tmp, acc) \
	VMULPS off(R11), Y8, tmp; \
	VADDPS tmp, acc, acc

// func axpyRowsAVX(out, w, span []float32)
//
// Lane l of accumulator Yk is column 8k+l of the block: for x = 0…len(w)−1
// it adds the rounded product w[x]·span[x·len(out)+col] (VMULPS, then
// VADDPS), the same two roundings per term, in the same order, as
// axpyRowsGo. Blocks of 64 columns (eight accumulators) run first, then at
// most one block each of 32, 16 and 8 columns; every block streams all the
// rows.
TEXT ·axpyRowsAVX(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX     // columns left
	MOVQ w_base+24(FP), SI
	MOVQ w_len+32(FP), BX      // rows
	MOVQ span_base+48(FP), DX  // row 0 of the current column block
	MOVQ CX, R8
	SHLQ $2, R8                // row stride in bytes

block64:
	CMPQ CX, $64
	JLT  block32
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ BX, R12

rows64:
	VBROADCASTSS (R10), Y8
	AXPY8(0, Y9, Y0)
	AXPY8(32, Y10, Y1)
	AXPY8(64, Y11, Y2)
	AXPY8(96, Y12, Y3)
	AXPY8(128, Y13, Y4)
	AXPY8(160, Y14, Y5)
	AXPY8(192, Y15, Y6)
	AXPY8(224, Y9, Y7)
	ADDQ $4, R10
	ADDQ R8, R11
	DECQ R12
	JNZ  rows64
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $64, CX
	JMP  block64

block32:
	CMPQ CX, $32
	JLT  block16
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ BX, R12

rows32:
	VBROADCASTSS (R10), Y8
	AXPY8(0, Y9, Y0)
	AXPY8(32, Y10, Y1)
	AXPY8(64, Y11, Y2)
	AXPY8(96, Y12, Y3)
	ADDQ $4, R10
	ADDQ R8, R11
	DECQ R12
	JNZ  rows32
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, CX

block16:
	CMPQ CX, $16
	JLT  block8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ BX, R12

rows16:
	VBROADCASTSS (R10), Y8
	AXPY8(0, Y9, Y0)
	AXPY8(32, Y10, Y1)
	ADDQ $4, R10
	ADDQ R8, R11
	DECQ R12
	JNZ  rows16
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $16, CX

block8:
	TESTQ CX, CX
	JZ    axpydone
	VMOVUPS (DI), Y0
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ BX, R12

rows8:
	VBROADCASTSS (R10), Y8
	AXPY8(0, Y9, Y0)
	ADDQ $4, R10
	ADDQ R8, R11
	DECQ R12
	JNZ  rows8
	VMOVUPS Y0, (DI)

axpydone:
	VZEROUPPER
	RET

// Four columns of eight rows into acc: r01…r67 hold columns c…c+3 of rows
// 0–3 in their low 128-bit lanes and of rows 4–7 in their high lanes (r01
// rows 0 and 4, r23 rows 1 and 5, r45 rows 2 and 6, r67 rows 3 and 7). Two
// VUNPCKLPS/VUNPCKHPS pairs and four VSHUFPS turn them into one vector per
// column, added to acc in ascending c. t0 and t1 are scratch.
#define COLS4(r01, r23, r45, r67, t0, t1, acc) \
	VUNPCKLPS r23, r01, t0; \
	VUNPCKHPS r23, r01, r01; \
	VUNPCKLPS r67, r45, r23; \
	VUNPCKHPS r67, r45, r45; \
	VSHUFPS   $0x44, r23, t0, t1; \
	VADDPS    t1, acc, acc; \
	VSHUFPS   $0xEE, r23, t0, t1; \
	VADDPS    t1, acc, acc; \
	VSHUFPS   $0x44, r45, r01, t1; \
	VADDPS    t1, acc, acc; \
	VSHUFPS   $0xEE, r45, r01, t1; \
	VADDPS    t1, acc, acc

// Loads columns off…off+3 of the eight rows at base into y01…y67, in
// COLS4's layout (x01…x67 name the same registers' low halves), and
// multiplies them by q's same four columns, broadcast to both lanes in Y14.
#define LOAD4(base, off, x01, y01, x23, y23, x45, y45, x67, y67) \
	VMOVUPS     off(base), x01; \
	VINSERTF128 $1, off(base)(R8*4), y01, y01; \
	VMOVUPS     off(base)(R8*1), x23; \
	VINSERTF128 $1, off(base)(R10*1), y23, y23; \
	VMOVUPS     off(base)(R8*2), x45; \
	VINSERTF128 $1, off(base)(R9*2), y45, y45; \
	VMOVUPS     off(base)(R9*1), x67; \
	VINSERTF128 $1, off(base)(AX*1), y67, y67; \
	VMULPS      Y14, y01, y01; \
	VMULPS      Y14, y23, y23; \
	VMULPS      Y14, y45, y45; \
	VMULPS      Y14, y67, y67

// func dotRowsAVX(out, q, span []float32)
//
// Lane l of Y15 is row 8g+l of group g. Per block of eight columns of q,
// the group's rows are loaded four columns at a time, rows 0–3 in the low
// 128-bit lanes and rows 4–7 in the high ones (VMOVUPS, VINSERTF128),
// multiplied by q's four columns (VMULPS), transposed within each lane
// into one vector per column and added to Y15 in ascending column order
// (VADDPS). Each lane thus adds the same rounded products, in the same
// order, as dotRowsGo; the shuffles move bits without changing them.
TEXT ·dotRowsAVX(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ q_base+24(FP), SI
	MOVQ q_len+32(FP), BX
	MOVQ span_base+48(FP), DX  // row 0 of the current group
	MOVQ BX, R8
	SHLQ $2, R8                // row stride in bytes
	LEAQ (R8)(R8*2), R9        // 3 rows
	LEAQ (R8)(R8*4), R10       // 5 rows
	LEAQ (R9)(R8*4), AX        // 7 rows
	LEAQ (SI)(R8*1), BX        // end of q
	SHRQ $3, CX                // groups of eight rows

group:
	VXORPS Y15, Y15, Y15
	MOVQ   SI, R11             // column block of q
	MOVQ   DX, R12             // column block of row 0

block:
	VBROADCASTF128 (R11), Y14
	LOAD4(R12, 0, X0, Y0, X1, Y1, X2, Y2, X3, Y3)
	COLS4(Y0, Y1, Y2, Y3, Y8, Y9, Y15)
	VBROADCASTF128 16(R11), Y14
	LOAD4(R12, 16, X4, Y4, X5, Y5, X6, Y6, X7, Y7)
	COLS4(Y4, Y5, Y6, Y7, Y10, Y11, Y15)
	ADDQ $32, R11
	ADDQ $32, R12
	CMPQ R11, BX
	JLT  block
	VMOVUPS Y15, (DI)
	ADDQ    $32, DI
	LEAQ    (DX)(R8*8), DX
	DECQ    CX
	JNZ     group
	VZEROUPPER
	RET
