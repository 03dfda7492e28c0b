#include "textflag.h"

// The AVX2 row-accumulation tile. Lanes are output columns: one YMM
// register holds c[j:j+8], and each product is a VMULPS followed by a
// VADDPS — never a fused multiply-add, whose single rounding would
// change the bits — so every c[j] takes exactly the adds of the scalar
// loop in kernels.go, in the same order. Multipliers go four at a time
// with c held in a register across the four adds, then one at a time.
// The 1–7 columns past the last full vector take the same adds in one
// more vector, loaded and stored through the lane mask in Y9
// (VMASKMOVPS neither reads nor writes a masked-out lane).

// tailMask<>+32-4r holds r all-ones lanes followed by zeros.
DATA tailMask<>+0(SB)/4, $0xffffffff
DATA tailMask<>+4(SB)/4, $0xffffffff
DATA tailMask<>+8(SB)/4, $0xffffffff
DATA tailMask<>+12(SB)/4, $0xffffffff
DATA tailMask<>+16(SB)/4, $0xffffffff
DATA tailMask<>+20(SB)/4, $0xffffffff
DATA tailMask<>+24(SB)/4, $0xffffffff
DATA tailMask<>+28(SB)/4, $0xffffffff
DATA tailMask<>+32(SB)/4, $0
DATA tailMask<>+36(SB)/4, $0
DATA tailMask<>+40(SB)/4, $0
DATA tailMask<>+44(SB)/4, $0
DATA tailMask<>+48(SB)/4, $0
DATA tailMask<>+52(SB)/4, $0
DATA tailMask<>+56(SB)/4, $0
DATA tailMask<>+60(SB)/4, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// TAIL_MASK loads the mask of the len(c)%8 tail columns into Y9.
// Clobbers AX and R11.
#define TAIL_MASK \
	MOVQ CX, AX \
	ANDQ $7, AX \
	SHLQ $2, AX \
	LEAQ tailMask<>+32(SB), R11 \
	SUBQ AX, R11 \
	VMOVDQU (R11), Y9

// func axpyListAVX2(c, b, av []float32, off []int)
TEXT ·axpyListAVX2(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	MOVQ av_base+48(FP), R8
	MOVQ av_len+56(FP), R9
	MOVQ off_base+72(FP), R10
	TAIL_MASK

list4:
	CMPQ R9, $4
	JLT  list1
	MOVQ (R10), AX
	LEAQ (SI)(AX*4), R11
	MOVQ 8(R10), AX
	LEAQ (SI)(AX*4), R12
	MOVQ 16(R10), AX
	LEAQ (SI)(AX*4), R13
	MOVQ 24(R10), AX
	LEAQ (SI)(AX*4), BX
	VBROADCASTSS (R8), Y0
	VBROADCASTSS 4(R8), Y1
	VBROADCASTSS 8(R8), Y2
	VBROADCASTSS 12(R8), Y3
	CALL quadRows<>(SB)
	ADDQ $16, R8
	ADDQ $32, R10
	SUBQ $4, R9
	JMP  list4

list1:
	TESTQ R9, R9
	JEQ   listDone
	MOVQ  (R10), AX
	LEAQ  (SI)(AX*4), R11
	VBROADCASTSS (R8), Y0
	CALL  oneRow<>(SB)
	ADDQ  $4, R8
	ADDQ  $8, R10
	DECQ  R9
	JMP   list1

listDone:
	VZEROUPPER
	RET

// func axpyStrideAVX2(c, a, b []float32, bs int)
TEXT ·axpyStrideAVX2(SB), NOSPLIT, $0-80
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ a_base+24(FP), R8
	MOVQ a_len+32(FP), R9
	MOVQ b_base+48(FP), SI
	MOVQ bs+72(FP), R10
	SHLQ $2, R10 // row stride in bytes
	TAIL_MASK

stride4:
	CMPQ R9, $4
	JLT  stride1
	MOVQ SI, R11
	LEAQ (SI)(R10*1), R12
	LEAQ (SI)(R10*2), R13
	LEAQ (R12)(R10*2), BX
	VBROADCASTSS (R8), Y0
	VBROADCASTSS 4(R8), Y1
	VBROADCASTSS 8(R8), Y2
	VBROADCASTSS 12(R8), Y3
	CALL quadRows<>(SB)
	LEAQ (SI)(R10*4), SI
	ADDQ $16, R8
	SUBQ $4, R9
	JMP  stride4

stride1:
	TESTQ R9, R9
	JEQ   strideDone
	MOVQ  SI, R11
	VBROADCASTSS (R8), Y0
	CALL  oneRow<>(SB)
	ADDQ  R10, SI
	ADDQ  $4, R8
	DECQ  R9
	JMP   stride1

strideDone:
	VZEROUPPER
	RET

// quadRows adds Y0·R11[j] + Y1·R12[j] + Y2·R13[j] + Y3·BX[j], one
// product at a time in that order, into c[j] = DI[j] for j < CX, the
// tail columns through the mask in Y9. Clobbers AX, DX and Y4–Y8.
TEXT quadRows<>(SB), NOSPLIT|NOFRAME, $0-0
	MOVQ CX, AX
	ANDQ $-8, AX // columns covered by full vectors
	XORQ DX, DX
	CMPQ DX, AX
	JGE  quadTail

quadVec:
	VMOVUPS (DI)(DX*4), Y4
	VMULPS  (R11)(DX*4), Y0, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R12)(DX*4), Y1, Y6
	VADDPS  Y6, Y4, Y4
	VMULPS  (R13)(DX*4), Y2, Y7
	VADDPS  Y7, Y4, Y4
	VMULPS  (BX)(DX*4), Y3, Y8
	VADDPS  Y8, Y4, Y4
	VMOVUPS Y4, (DI)(DX*4)
	ADDQ    $8, DX
	CMPQ    DX, AX
	JLT     quadVec

quadTail:
	CMPQ DX, CX
	JGE  quadDone
	VMASKMOVPS (DI)(DX*4), Y9, Y4
	VMASKMOVPS (R11)(DX*4), Y9, Y5
	VMULPS     Y5, Y0, Y5
	VADDPS     Y5, Y4, Y4
	VMASKMOVPS (R12)(DX*4), Y9, Y6
	VMULPS     Y6, Y1, Y6
	VADDPS     Y6, Y4, Y4
	VMASKMOVPS (R13)(DX*4), Y9, Y7
	VMULPS     Y7, Y2, Y7
	VADDPS     Y7, Y4, Y4
	VMASKMOVPS (BX)(DX*4), Y9, Y8
	VMULPS     Y8, Y3, Y8
	VADDPS     Y8, Y4, Y4
	VMASKMOVPS Y4, Y9, (DI)(DX*4)

quadDone:
	RET

// oneRow adds Y0·R11[j] into c[j] = DI[j] for j < CX, the tail columns
// through the mask in Y9. Clobbers AX, DX, Y4 and Y5. The product is
// the add's first source, as in axpy1: where it and c[j] are both NaN,
// the product's is the one returned.
TEXT oneRow<>(SB), NOSPLIT|NOFRAME, $0-0
	MOVQ CX, AX
	ANDQ $-8, AX
	XORQ DX, DX
	CMPQ DX, AX
	JGE  oneTail

oneVec:
	VMULPS  (R11)(DX*4), Y0, Y5
	VADDPS  (DI)(DX*4), Y5, Y4
	VMOVUPS Y4, (DI)(DX*4)
	ADDQ    $8, DX
	CMPQ    DX, AX
	JLT     oneVec

oneTail:
	CMPQ DX, CX
	JGE  oneDone
	VMASKMOVPS (DI)(DX*4), Y9, Y4
	VMASKMOVPS (R11)(DX*4), Y9, Y5
	VMULPS     Y5, Y0, Y5
	VADDPS     Y4, Y5, Y4
	VMASKMOVPS Y4, Y9, (DI)(DX*4)

oneDone:
	RET

// func outerAVX2(c, x, d []float32, a float32)
//
// AddOuterScaled's rows: row i of c takes a·((x[i]·d[j]) + 0) at every
// column j, each step rounded on its own — the multiplier first in each
// multiply (Y0 = x[i], then Y1 = a) and the product first in each add,
// as oneRow orders them — and a row whose x[i] is ±0 is skipped.
TEXT ·outerAVX2(SB), NOSPLIT, $0-76
	MOVQ c_base+0(FP), DI
	MOVQ x_base+24(FP), R8
	MOVQ x_len+32(FP), R9
	MOVQ d_len+56(FP), CX
	TAIL_MASK
	MOVQ d_base+48(FP), R11
	VBROADCASTSS a+72(FP), Y1
	VXORPS Y2, Y2, Y2
	MOVQ CX, R10
	SHLQ $2, R10 // row stride in bytes

outerRow:
	TESTQ R9, R9
	JEQ   outerDone
	MOVL  (R8), AX
	ANDL  $0x7fffffff, AX
	JEQ   outerNext
	VBROADCASTSS (R8), Y0
	MOVQ  CX, AX
	ANDQ  $-8, AX
	XORQ  DX, DX
	CMPQ  DX, AX
	JGE   outerTail

outerCols:
	VMULPS  (R11)(DX*4), Y0, Y5
	VADDPS  Y2, Y5, Y5
	VMULPS  Y5, Y1, Y5
	VADDPS  (DI)(DX*4), Y5, Y4
	VMOVUPS Y4, (DI)(DX*4)
	ADDQ    $8, DX
	CMPQ    DX, AX
	JLT     outerCols

outerTail:
	CMPQ DX, CX
	JGE  outerNext
	VMASKMOVPS (DI)(DX*4), Y9, Y4
	VMASKMOVPS (R11)(DX*4), Y9, Y5
	VMULPS     Y5, Y0, Y5
	VADDPS     Y2, Y5, Y5
	VMULPS     Y5, Y1, Y5
	VADDPS     Y4, Y5, Y4
	VMASKMOVPS Y4, Y9, (DI)(DX*4)

outerNext:
	ADDQ R10, DI
	ADDQ $4, R8
	DECQ R9
	JMP  outerRow

outerDone:
	VZEROUPPER
	RET

// The compaction steps of CompactKeys. A step takes eight entries of
// src: it clears their sign bits (VPAND), compares the keys with lo-1
// and with hi (VPCMPGTD, signed: keys and bounds lie below 1<<31, and
// lo-1 is -1 for lo = 0), takes both masks as bytes (VMOVMSKPS), moves
// the kept lanes of the values and of the indices to the front through
// compactPerm (VPERMD), stores all eight lanes of each at the write
// cursor and advances it by the kept count (POPCNT). Where neither the
// tie budget nor the stop can run out, and the indices count up from
// base, the steps take no checks; elsewhere a step the budget or the
// stop would run out in is not taken, and the function returns in front
// of it.

// lanes<> holds 0, 1, …, 7; signMask<> and eight<> are broadcast.
DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
DATA lanes<>+16(SB)/4, $4
DATA lanes<>+20(SB)/4, $5
DATA lanes<>+24(SB)/4, $6
DATA lanes<>+28(SB)/4, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $32
DATA signMask<>+0(SB)/4, $0x7fffffff
GLOBL signMask<>(SB), RODATA|NOPTR, $4
DATA eight<>+0(SB)/4, $8
GLOBL eight<>(SB), RODATA|NOPTR, $4

// Registers: SI src, DX srcIdx, DI idx, R8 val, CX compactPerm, R9
// read, R10 kept, R11 above, R12 tie budget, R13 entries left before the
// stop; Y0 the sign mask, Y1 lo-1, Y2 hi, Y3 the step's indices, Y4
// eight in every lane.

// COMPACT_MASKS loads the step at src[R9] into Y5 and leaves its kept
// lanes' mask in AX, their count in R14 and the count above hi in BX.
#define COMPACT_MASKS \
	VMOVDQU   (SI)(R9*4), Y5 \
	VPAND     Y0, Y5, Y6 \
	VPCMPGTD  Y1, Y6, Y7 \
	VPCMPGTD  Y2, Y6, Y8 \
	VMOVMSKPS Y7, AX \
	VMOVMSKPS Y8, BX \
	POPCNTL   AX, R14 \
	POPCNTL   BX, BX

// COMPACT_CHECK returns in front of a step whose ties exceed the budget
// or whose kept entries pass the stop, and takes its ties off the
// budget otherwise.
#define COMPACT_CHECK \
	SUBQ BX, R14 \
	CMPQ R14, R12 \
	JGT  compactDone \
	SUBQ R14, R12 \
	ADDQ BX, R14 \
	CMPQ R14, R13 \
	JGT  compactDone

// COMPACT_STORE stores the step's kept values and indices at the write
// cursor and advances the cursors.
#define COMPACT_STORE \
	VPMOVZXBD (CX)(AX*8), Y9 \
	VPERMD    Y5, Y9, Y5 \
	VPERMD    Y3, Y9, Y10 \
	VMOVDQU   Y5, (R8)(R10*4) \
	VMOVDQU   Y10, (DI)(R10*4) \
	ADDQ      R14, R10 \
	ADDQ      BX, R11 \
	ADDQ      $8, R9

// func compactAVX2(idx []uint32, val []float32, src []float32, srcIdx []uint32, base, lo, hi uint32, ties, stop int) (read, n, above int)
TEXT ·compactAVX2(SB), NOSPLIT, $0-152
	MOVQ idx_base+0(FP), DI
	MOVQ val_base+24(FP), R8
	MOVQ src_base+48(FP), SI
	MOVQ srcIdx_base+72(FP), DX
	MOVQ ties+112(FP), R12
	MOVQ stop+120(FP), R13
	LEAQ ·compactPerm(SB), CX
	VPBROADCASTD signMask<>(SB), Y0
	MOVL lo+100(FP), AX
	DECL AX
	MOVL AX, X1
	VPBROADCASTD X1, Y1
	MOVL hi+104(FP), AX
	MOVL AX, X2
	VPBROADCASTD X2, Y2
	MOVL base+96(FP), AX
	MOVL AX, X3
	VPBROADCASTD X3, Y3
	VPADDD       lanes<>(SB), Y3, Y3
	VPBROADCASTD eight<>(SB), Y4
	XORQ R9, R9
	XORQ R10, R10
	XORQ R11, R11
	MOVQ src_len+56(FP), AX
	TESTQ DX, DX
	JNE   fromIdx
	CMPQ  R12, AX
	JLT   fromBase
	CMPQ  R13, AX
	JLT   fromBase

	// Neither limit can bind: R12 is the end of the whole steps.
	MOVQ AX, R12
	ANDQ $-8, R12
	JMP  freeTest

free:
	COMPACT_MASKS
	COMPACT_STORE
	VPADDD Y4, Y3, Y3

freeTest:
	CMPQ R9, R12
	JLT  free
	JMP  compactDone

// Indices base+i: Y3 counts up a step at a time.
fromBase:
	LEAQ 8(R9), AX
	CMPQ AX, src_len+56(FP)
	JGT  compactDone
	TESTQ R13, R13
	JEQ   compactDone
	COMPACT_MASKS
	COMPACT_CHECK
	COMPACT_STORE
	SUBQ   R14, R13
	VPADDD Y4, Y3, Y3
	JMP    fromBase

// Indices srcIdx[i].
fromIdx:
	LEAQ 8(R9), AX
	CMPQ AX, src_len+56(FP)
	JGT  compactDone
	TESTQ R13, R13
	JEQ   compactDone
	VMOVDQU (DX)(R9*4), Y3
	COMPACT_MASKS
	COMPACT_CHECK
	COMPACT_STORE
	SUBQ R14, R13
	JMP  fromIdx

compactDone:
	MOVQ R9, read+128(FP)
	MOVQ R10, n+136(FP)
	MOVQ R11, above+144(FP)
	VZEROUPPER
	RET

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

// func outersAVX2(c, av []float32, dp []*float32, a float32)
//
// AddOutersScaled's row: c takes a·((av[t]·d_t[j]) + 0) at every column
// j for t = 0, 1, … in order, d_t being the n floats at dp[t], each step
// rounded on its own and ordered as outerAVX2 orders it. c stays in
// registers across the terms: four vectors at a time, then one, then the
// tail columns through the mask in Y9. Every av[t] is non-zero.
TEXT ·outersAVX2(SB), NOSPLIT, $0-76
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ av_base+24(FP), R8
	MOVQ av_len+32(FP), R9
	MOVQ dp_base+48(FP), R10
	TAIL_MASK
	VBROADCASTSS a+72(FP), Y1
	VXORPS Y2, Y2, Y2
	XORQ DX, DX
	TESTQ R9, R9
	JEQ   outersDone
	MOVQ CX, BX
	ANDQ $-32, BX // columns covered by groups of four vectors

outers32:
	CMPQ    DX, BX
	JGE     outers8Start
	VMOVUPS (DI)(DX*4), Y3
	VMOVUPS 32(DI)(DX*4), Y4
	VMOVUPS 64(DI)(DX*4), Y5
	VMOVUPS 96(DI)(DX*4), Y6
	MOVQ    R8, SI
	MOVQ    R10, R12
	MOVQ    R9, R13

outers32Term:
	VBROADCASTSS (SI), Y0
	MOVQ         (R12), R11
	VMULPS       (R11)(DX*4), Y0, Y7
	VMULPS       32(R11)(DX*4), Y0, Y8
	VMULPS       64(R11)(DX*4), Y0, Y10
	VMULPS       96(R11)(DX*4), Y0, Y11
	VADDPS       Y2, Y7, Y7
	VADDPS       Y2, Y8, Y8
	VADDPS       Y2, Y10, Y10
	VADDPS       Y2, Y11, Y11
	VMULPS       Y7, Y1, Y7
	VMULPS       Y8, Y1, Y8
	VMULPS       Y10, Y1, Y10
	VMULPS       Y11, Y1, Y11
	VADDPS       Y3, Y7, Y3
	VADDPS       Y4, Y8, Y4
	VADDPS       Y5, Y10, Y5
	VADDPS       Y6, Y11, Y6
	ADDQ         $4, SI
	ADDQ         $8, R12
	DECQ         R13
	JNZ          outers32Term
	VMOVUPS      Y3, (DI)(DX*4)
	VMOVUPS      Y4, 32(DI)(DX*4)
	VMOVUPS      Y5, 64(DI)(DX*4)
	VMOVUPS      Y6, 96(DI)(DX*4)
	ADDQ         $32, DX
	JMP          outers32

outers8Start:
	MOVQ CX, BX
	ANDQ $-8, BX // columns covered by full vectors

outers8:
	CMPQ    DX, BX
	JGE     outersTail
	VMOVUPS (DI)(DX*4), Y3
	MOVQ    R8, SI
	MOVQ    R10, R12
	MOVQ    R9, R13

outers8Term:
	VBROADCASTSS (SI), Y0
	MOVQ         (R12), R11
	VMULPS       (R11)(DX*4), Y0, Y7
	VADDPS       Y2, Y7, Y7
	VMULPS       Y7, Y1, Y7
	VADDPS       Y3, Y7, Y3
	ADDQ         $4, SI
	ADDQ         $8, R12
	DECQ         R13
	JNZ          outers8Term
	VMOVUPS      Y3, (DI)(DX*4)
	ADDQ         $8, DX
	JMP          outers8

outersTail:
	CMPQ       DX, CX
	JGE        outersDone
	VMASKMOVPS (DI)(DX*4), Y9, Y3
	MOVQ       R8, SI
	MOVQ       R10, R12
	MOVQ       R9, R13

outersTailTerm:
	VBROADCASTSS (SI), Y0
	MOVQ         (R12), R11
	VMASKMOVPS   (R11)(DX*4), Y9, Y7
	VMULPS       Y7, Y0, Y7
	VADDPS       Y2, Y7, Y7
	VMULPS       Y7, Y1, Y7
	VADDPS       Y3, Y7, Y3
	ADDQ         $4, SI
	ADDQ         $8, R12
	DECQ         R13
	JNZ          outersTailTerm
	VMASKMOVPS   Y3, Y9, (DI)(DX*4)

outersDone:
	VZEROUPPER
	RET
