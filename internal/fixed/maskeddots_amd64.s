//go:build amd64 && !purego

#include "textflag.h"

// ROW loads into reg the data pointer of list entry off/8 of the pass,
// row idx[x+off/8] (AX = &idx[x]). An index outside rows, or a row shorter
// than q, jumps to bad. R12 is scratch.
#define ROW(off, reg) \
	MOVQ off(AX), reg; \
	CMPQ reg, rows_len+56(FP); \
	JCC  bad; \
	LEAQ (reg)(reg*2), reg; \
	MOVQ 8(BX)(reg*8), R12; \
	CMPQ R12, q_len+32(FP); \
	JLT  bad; \
	MOVQ (BX)(reg*8), reg

// BLOCK adds one row's 16-element block at byte offset R12 to its int32
// lanes: VPAND with the mask (Y15), VPMADDWD against the query block (Y6),
// VPADDD into acc. Lane l holds the pair sum of elements 2l and 2l+1.
#define BLOCK(row, acc) \
	VPAND    (row)(R12*1), Y15, Y7; \
	VPMADDWD Y7, Y6, Y7; \
	VPADDD   Y7, acc, acc

// FOLD widens the int32 lanes of rows a and b (xa is a's low half) into
// int64 partials: VPHADDD leaves sums of four products, which fit int32 by
// the flush bound, and both 128-bit halves are sign-extended and added
// into dst, whose four int64 lanes hold two partials of row a, then two of
// row b.
#define FOLD(a, xa, b, dst) \
	VPHADDD      b, a, a; \
	VPMOVSXDQ    xa, Y7; \
	VPADDQ       Y7, dst, dst; \
	VEXTRACTI128 $1, a, X7; \
	VPMOVSXDQ    X7, Y7; \
	VPADDQ       Y7, dst, dst

// func maskedDotsAVX2(out []int64, q Vector, rows []Vector, idx []int, mask int16, flush int) bool
//
// out[x] = Σ_{j<len(q)&^15} q[j]·(rows[idx[x]][j] & mask), four list
// entries per pass; a last pass with one to three entries repeats its
// first row in the empty slots and stores only its own results. The int32
// lanes are folded into int64 every flush blocks and after the last one.
// It needs len(q) >= 16 and flush >= 1, and returns false, with out
// partly written, at the first entry whose index is outside rows or whose
// row is shorter than q.
TEXT ·maskedDotsAVX2(SB), NOSPLIT, $0-113
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ q_base+24(FP), SI
	MOVQ q_len+32(FP), DX
	ANDQ $~15, DX
	SHLQ $1, DX                // bytes in whole 16-element blocks
	MOVQ rows_base+48(FP), BX
	MOVQ idx_base+72(FP), AX
	MOVWLZX mask+96(FP), R12
	VMOVD   R12, X15
	VPBROADCASTW X15, Y15

pass:
	TESTQ CX, CX
	JZ    done
	ROW(0, R8)
	MOVQ R8, R9
	MOVQ R8, R10
	MOVQ R8, R11
	CMPQ CX, $2
	JLT  rowsready
	ROW(8, R9)
	CMPQ CX, $3
	JLT  rowsready
	ROW(16, R10)
	CMPQ CX, $4
	JLT  rowsready
	ROW(24, R11)

rowsready:
	VPXOR Y4, Y4, Y4           // rows 0 and 1, int64
	VPXOR Y5, Y5, Y5           // rows 2 and 3, int64
	XORQ  R12, R12

chunk:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ  flush+104(FP), R13

block:
	VMOVDQU (SI)(R12*1), Y6
	BLOCK(R8, Y0)
	BLOCK(R9, Y1)
	BLOCK(R10, Y2)
	BLOCK(R11, Y3)
	ADDQ $32, R12
	CMPQ R12, DX
	JEQ  fold
	DECQ R13
	JNZ  block

fold:
	FOLD(Y0, X0, Y1, Y4)
	FOLD(Y2, X2, Y3, Y5)
	CMPQ R12, DX
	JNE  chunk

	// Y4 = [r0 r0 r1 r1], Y5 = [r2 r2 r3 r3] → Y6 = [r0 r1 r2 r3].
	VPUNPCKLQDQ Y5, Y4, Y6
	VPUNPCKHQDQ Y5, Y4, Y7
	VPADDQ      Y7, Y6, Y6
	VPERMQ      $0xD8, Y6, Y6
	CMPQ        CX, $4
	JLT         partial
	VMOVDQU     Y6, (DI)
	ADDQ        $32, DI
	ADDQ        $32, AX
	SUBQ        $4, CX
	JMP         pass

partial:
	VMOVQ X6, (DI)
	CMPQ  CX, $2
	JLT   done
	VPEXTRQ $1, X6, 8(DI)
	CMPQ  CX, $3
	JLT   done
	VEXTRACTI128 $1, Y6, X6
	VMOVQ X6, 16(DI)

done:
	VZEROUPPER
	MOVB $1, ret+112(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ret+112(FP)
	RET
