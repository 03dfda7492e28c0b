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

// func accumPlaneAVX2(c, g, b []float32, sum float32) float32
//
// AccumPlane's pass. c goes a block of up to 32 columns at a time, held
// in Y0–Y3 for the whole of g, each vector loaded and stored through
// its lane mask (Y11–Y14: lanes past the block's last column are
// neither read nor written). For the block, g goes 32 entries at a
// time, then eight: VCMPPS not-equal against zero (unordered, so a NaN
// counts and ±0 does not) and VMOVMSKPS give the non-zero lanes as
// bits, and the walk takes the set bits lowest first. For each one it
// adds the product g[p]·b[p][j] into every column j of the block —
// VMULPS then VADDPS, the running value first, as quadRows adds — and
// g[p] into the sum in X10. The last 1–7 entries of g are loaded
// through the tail mask (masked-out lanes read as +0 and are skipped).
// Every block walks the same entries; the sum after the first is the
// one returned.
//
// Registers: DI the block of c, R14 the columns of c from it on, SI g,
// R8 len(g), BX b at the block's first column, R9 a row of b in bytes,
// R10 the group's first entry p0, R13 its size, R11 row p0 of b at the
// block, AX the group's non-zero lanes, Y9 zero.
TEXT ·accumPlaneAVX2(SB), NOSPLIT, $0-84
	MOVQ   c_base+0(FP), DI
	MOVQ   c_len+8(FP), R14
	MOVQ   g_base+24(FP), SI
	MOVQ   g_len+32(FP), R8
	MOVQ   b_base+48(FP), BX
	MOVQ   R14, R9
	SHLQ   $2, R9
	VMOVSS sum+72(FP), X10
	VXORPS Y9, Y9, Y9

planeBlock:
	// The block's width w = min(R14, 32) sets the lane masks: lane l
	// of vector v is on when 8v+l < w.
	MOVQ         R14, AX
	CMPQ         AX, $32
	JLE          planeMasks
	MOVQ         $32, AX

planeMasks:
	VMOVD        AX, X4
	VPBROADCASTD X4, Y4
	VMOVDQU      lanes<>(SB), Y5
	VPBROADCASTD eight<>(SB), Y6
	VPCMPGTD     Y5, Y4, Y11
	VPADDD       Y6, Y5, Y5
	VPCMPGTD     Y5, Y4, Y12
	VPADDD       Y6, Y5, Y5
	VPCMPGTD     Y5, Y4, Y13
	VPADDD       Y6, Y5, Y5
	VPCMPGTD     Y5, Y4, Y14
	VMASKMOVPS   (DI), Y11, Y0
	VMASKMOVPS   32(DI), Y12, Y1
	VMASKMOVPS   64(DI), Y13, Y2
	VMASKMOVPS   96(DI), Y14, Y3
	XORQ         R10, R10
	MOVQ         BX, R11

planeGroup:
	MOVQ      R8, AX
	SUBQ      R10, AX // entries of g left
	JLE       planeStore
	MOVQ      $8, R13
	CMPQ      AX, $32
	JLT       planeEight
	MOVQ      $32, R13
	VCMPPS    $4, (SI)(R10*4), Y9, Y15
	VMOVMSKPS Y15, AX
	VCMPPS    $4, 32(SI)(R10*4), Y9, Y15
	VMOVMSKPS Y15, DX
	SHLL      $8, DX
	ORL       DX, AX
	VCMPPS    $4, 64(SI)(R10*4), Y9, Y15
	VMOVMSKPS Y15, DX
	SHLL      $16, DX
	ORL       DX, AX
	VCMPPS    $4, 96(SI)(R10*4), Y9, Y15
	VMOVMSKPS Y15, DX
	SHLL      $24, DX
	ORL       DX, AX
	JMP       planeLanes

planeEight:
	CMPQ      AX, $8
	JLT       planePartial
	VCMPPS    $4, (SI)(R10*4), Y9, Y15
	VMOVMSKPS Y15, AX
	JMP       planeLanes

planePartial:
	SHLQ       $2, AX
	LEAQ       tailMask<>+32(SB), DX
	SUBQ       AX, DX
	VMOVDQU    (DX), Y15
	VMASKMOVPS (SI)(R10*4), Y15, Y15
	VCMPPS     $4, Y15, Y9, Y15
	VMOVMSKPS  Y15, AX

planeLanes:
	TESTL AX, AX
	JEQ   planeNext

planeWalk:
	BSFL         AX, DX
	LEAL         -1(AX), R12
	ANDL         R12, AX
	LEAQ         (R10)(DX*1), R12
	VBROADCASTSS (SI)(R12*4), Y4
	VADDSS       (SI)(R12*4), X10, X10
	IMULQ        R9, DX
	ADDQ         R11, DX
	VMASKMOVPS   (DX), Y11, Y5
	VMULPS       Y5, Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMASKMOVPS   32(DX), Y12, Y6
	VMULPS       Y6, Y4, Y6
	VADDPS       Y6, Y1, Y1
	VMASKMOVPS   64(DX), Y13, Y7
	VMULPS       Y7, Y4, Y7
	VADDPS       Y7, Y2, Y2
	VMASKMOVPS   96(DX), Y14, Y8
	VMULPS       Y8, Y4, Y8
	VADDPS       Y8, Y3, Y3
	TESTL        AX, AX
	JNE          planeWalk

planeNext:
	ADDQ  R13, R10
	MOVQ  R13, R12
	IMULQ R9, R12
	ADDQ  R12, R11
	JMP   planeGroup

planeStore:
	VMASKMOVPS Y0, Y11, (DI)
	VMASKMOVPS Y1, Y12, 32(DI)
	VMASKMOVPS Y2, Y13, 64(DI)
	VMASKMOVPS Y3, Y14, 96(DI)
	CMPQ       R14, c_len+8(FP)
	JNE        planeLater
	VMOVSS     X10, ret+80(FP)

planeLater:
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $32, R14
	JGT  planeBlock
	VZEROUPPER
	RET

// func maxPool2AVX2(out []float32, arg []int32, in []float32, inW, done int)
//
// MaxPool2's windows, eight per step. A step loads 16 floats of each of
// the row pair's two input rows and de-interleaves them (VSHUFPS, then
// VPERMPD to restore the order across the 128-bit halves) into the
// windows' four taps in (ki,kj) order: row 0 even, row 0 odd, row 1
// even, row 1 odd. The running maximum Y4 starts at the first tap and
// its index Y8 at the tap's flat input index; each later tap that
// compares greater (VCMPPS GT_OQ: false on a NaN either side, and on a
// tie) replaces both, by VBLENDVPS on the comparison's lanes.
//
// Registers: DI, R8 and SI the row of out, of arg and of the input row
// pair, R13 the end of out, R9 inW, R10 done, BX the row's first input
// index; Y10 the step's first-tap indices, Y15 0, 2, …, 14, Y14, Y13
// and Y12 the later taps' index offsets 1, inW and inW+1, Y11 16.
TEXT ·maxPool2AVX2(SB), NOSPLIT, $0-88
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), R13
	LEAQ         (DI)(R13*4), R13
	MOVQ         arg_base+24(FP), R8
	MOVQ         in_base+48(FP), SI
	MOVQ         inW+72(FP), R9
	MOVQ         done+80(FP), R10
	VMOVDQU      lanes<>(SB), Y15
	VPADDD       Y15, Y15, Y15
	VPCMPEQD     Y14, Y14, Y14
	VPSRLD       $31, Y14, Y14
	VMOVD        R9, X13
	VPBROADCASTD X13, Y13
	VPADDD       Y14, Y13, Y12
	VPBROADCASTD eight<>(SB), Y11
	VPADDD       Y11, Y11, Y11
	XORQ         BX, BX

poolRow:
	CMPQ         DI, R13
	JGE          poolDone
	VMOVD        BX, X10
	VPBROADCASTD X10, Y10
	VPADDD       Y15, Y10, Y10
	MOVQ         SI, AX
	MOVQ         DI, DX
	MOVQ         R8, R12
	XORQ         CX, CX

poolStep:
	VMOVUPS   (AX), Y0
	VMOVUPS   32(AX), Y1
	VMOVUPS   (AX)(R9*4), Y2
	VMOVUPS   32(AX)(R9*4), Y3
	VSHUFPS   $0x88, Y1, Y0, Y4
	VSHUFPS   $0xDD, Y1, Y0, Y5
	VSHUFPS   $0x88, Y3, Y2, Y6
	VSHUFPS   $0xDD, Y3, Y2, Y7
	VPERMPD   $0xD8, Y4, Y4
	VPERMPD   $0xD8, Y5, Y5
	VPERMPD   $0xD8, Y6, Y6
	VPERMPD   $0xD8, Y7, Y7
	VMOVDQU   Y10, Y8
	VCMPPS    $0x1e, Y4, Y5, Y9
	VBLENDVPS Y9, Y5, Y4, Y4
	VPADDD    Y14, Y10, Y0
	VBLENDVPS Y9, Y0, Y8, Y8
	VCMPPS    $0x1e, Y4, Y6, Y9
	VBLENDVPS Y9, Y6, Y4, Y4
	VPADDD    Y13, Y10, Y0
	VBLENDVPS Y9, Y0, Y8, Y8
	VCMPPS    $0x1e, Y4, Y7, Y9
	VBLENDVPS Y9, Y7, Y4, Y4
	VPADDD    Y12, Y10, Y0
	VBLENDVPS Y9, Y0, Y8, Y8
	VMOVUPS   Y4, (DX)
	VMOVDQU   Y8, (R12)
	VPADDD    Y11, Y10, Y10
	ADDQ      $64, AX
	ADDQ      $32, DX
	ADDQ      $32, R12
	ADDQ      $8, CX
	CMPQ      CX, R10
	JLT       poolStep
	LEAQ      (SI)(R9*8), SI // two input rows on
	LEAQ      (DI)(R9*2), DI // one row of windows on: inW/2 floats
	LEAQ      (R8)(R9*2), R8
	LEAQ      (BX)(R9*2), BX
	JMP       poolRow

poolDone:
	VZEROUPPER
	RET

// func transposeAVX2(dst []float32, ds int, src []float32, rows, cols int)
//
// transposeTo's 8×8 blocks: eight source rows of eight floats are
// loaded, transposed in registers (TRANSPOSE_8X8) and stored as eight
// rows of dst, ds floats apart. The last rows%8 source rows go the same
// way with the missing rows zero, each destination row taking their
// rows%8 floats through a lane mask, so nothing past a destination
// row's rows floats is written. Only data moves.
//
// Registers: SI and DI the block row's first source row and first
// destination column, R8 and R9 the source and destination row strides
// in bytes, R12 and R10 three of each, R11 the block rows left, R13 the
// blocks in a block row, AX and BX the block in src and in dst.

// TRANSPOSE_8X8 transposes the rows in Y0–Y7 into the columns in Y8–Y15:
// rows interleaved pairwise (VUNPCKLPS/VUNPCKHPS), combined four at a
// time (VSHUFPS), and their 128-bit halves swapped into place
// (VPERM2F128). Clobbers Y0–Y7.
#define TRANSPOSE_8X8 \
	VUNPCKLPS  Y1, Y0, Y8 \
	VUNPCKHPS  Y1, Y0, Y9 \
	VUNPCKLPS  Y3, Y2, Y10 \
	VUNPCKHPS  Y3, Y2, Y11 \
	VUNPCKLPS  Y5, Y4, Y12 \
	VUNPCKHPS  Y5, Y4, Y13 \
	VUNPCKLPS  Y7, Y6, Y14 \
	VUNPCKHPS  Y7, Y6, Y15 \
	VSHUFPS    $0x44, Y10, Y8, Y0 \
	VSHUFPS    $0xee, Y10, Y8, Y1 \
	VSHUFPS    $0x44, Y11, Y9, Y2 \
	VSHUFPS    $0xee, Y11, Y9, Y3 \
	VSHUFPS    $0x44, Y14, Y12, Y4 \
	VSHUFPS    $0xee, Y14, Y12, Y5 \
	VSHUFPS    $0x44, Y15, Y13, Y6 \
	VSHUFPS    $0xee, Y15, Y13, Y7 \
	VPERM2F128 $0x20, Y4, Y0, Y8 \
	VPERM2F128 $0x20, Y5, Y1, Y9 \
	VPERM2F128 $0x20, Y6, Y2, Y10 \
	VPERM2F128 $0x20, Y7, Y3, Y11 \
	VPERM2F128 $0x31, Y4, Y0, Y12 \
	VPERM2F128 $0x31, Y5, Y1, Y13 \
	VPERM2F128 $0x31, Y6, Y2, Y14 \
	VPERM2F128 $0x31, Y7, Y3, Y15

TEXT ·transposeAVX2(SB), NOSPLIT, $0-72
	MOVQ  dst_base+0(FP), DI
	MOVQ  src_base+32(FP), SI
	MOVQ  ds+24(FP), R9
	MOVQ  cols+64(FP), R8
	MOVQ  rows+56(FP), R11
	SHRQ  $3, R11
	MOVQ  R8, R13
	SHRQ  $3, R13
	SHLQ  $2, R8
	SHLQ  $2, R9
	LEAQ  (R8)(R8*2), R12
	LEAQ  (R9)(R9*2), R10
	TESTQ R11, R11
	JEQ   trTail

trRow:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ R13, CX

trBlock:
	VMOVUPS (AX), Y0
	VMOVUPS (AX)(R8*1), Y1
	VMOVUPS (AX)(R8*2), Y2
	VMOVUPS (AX)(R12*1), Y3
	LEAQ    (AX)(R8*4), DX
	VMOVUPS (DX), Y4
	VMOVUPS (DX)(R8*1), Y5
	VMOVUPS (DX)(R8*2), Y6
	VMOVUPS (DX)(R12*1), Y7
	TRANSPOSE_8X8
	VMOVUPS Y8, (BX)
	VMOVUPS Y9, (BX)(R9*1)
	VMOVUPS Y10, (BX)(R9*2)
	VMOVUPS Y11, (BX)(R10*1)
	LEAQ    (BX)(R9*4), DX
	VMOVUPS Y12, (DX)
	VMOVUPS Y13, (DX)(R9*1)
	VMOVUPS Y14, (DX)(R9*2)
	VMOVUPS Y15, (DX)(R10*1)
	ADDQ    $32, AX
	LEAQ    (DX)(R9*4), BX
	DECQ    CX
	JNZ     trBlock
	LEAQ    (SI)(R8*8), SI
	ADDQ    $32, DI
	DECQ    R11
	JNZ     trRow

trTail:
	// The last rows%8 source rows, R11 of them: R14 points at their
	// lane mask.
	MOVQ rows+56(FP), R11
	ANDQ $7, R11
	JEQ  trDone
	MOVQ R11, AX
	SHLQ $2, AX
	LEAQ tailMask<>+32(SB), R14
	SUBQ AX, R14
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ R13, CX

trTailBlock:
	VMOVUPS (AX), Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	VXORPS  Y4, Y4, Y4
	VXORPS  Y5, Y5, Y5
	VXORPS  Y6, Y6, Y6
	VXORPS  Y7, Y7, Y7
	LEAQ    (AX)(R8*4), DX
	CMPQ    R11, $2
	JLT     trTailRows
	VMOVUPS (AX)(R8*1), Y1
	CMPQ    R11, $3
	JLT     trTailRows
	VMOVUPS (AX)(R8*2), Y2
	CMPQ    R11, $4
	JLT     trTailRows
	VMOVUPS (AX)(R12*1), Y3
	CMPQ    R11, $5
	JLT     trTailRows
	VMOVUPS (DX), Y4
	CMPQ    R11, $6
	JLT     trTailRows
	VMOVUPS (DX)(R8*1), Y5
	CMPQ    R11, $7
	JLT     trTailRows
	VMOVUPS (DX)(R8*2), Y6

trTailRows:
	TRANSPOSE_8X8
	VMOVDQU    (R14), Y0
	VMASKMOVPS Y8, Y0, (BX)
	VMASKMOVPS Y9, Y0, (BX)(R9*1)
	VMASKMOVPS Y10, Y0, (BX)(R9*2)
	VMASKMOVPS Y11, Y0, (BX)(R10*1)
	LEAQ       (BX)(R9*4), DX
	VMASKMOVPS Y12, Y0, (DX)
	VMASKMOVPS Y13, Y0, (DX)(R9*1)
	VMASKMOVPS Y14, Y0, (DX)(R9*2)
	VMASKMOVPS Y15, Y0, (DX)(R10*1)
	ADDQ       $32, AX
	LEAQ       (DX)(R9*4), BX
	DECQ       CX
	JNZ        trTailBlock

trDone:
	VZEROUPPER
	RET

// func maxPool2GradAVX2(dx, grad []float32, arg []int32, inW, done int)
//
// MaxPool2Grad's windows, eight per step. Each of a window's four taps
// compares its flat input index with the window's argmax (VPCMPEQD);
// the tap takes +0 + the window's gradient where they are equal and
// +0 + +0 elsewhere (VANDPS, then VADDPS onto zero: a -0 gradient
// lands as +0, as it does added to a cleared dx). The taps are then
// interleaved back into input order, row 0's even and odd taps and row
// 1's (VUNPCKLPS/VUNPCKHPS, VPERM2F128), and stored as 16 floats of
// each input row.
//
// Registers as in maxPool2AVX2: DI, R8 and SI the row of grad, of arg
// and of dx's input row pair, R13 the end of grad, R9 inW, R10 done,
// BX the row's first input index; Y10 the step's first-tap indices,
// Y15 0, 2, …, 14, Y14, Y13 and Y12 the later taps' index offsets 1,
// inW and inW+1, Y11 16, Y9 zero.
TEXT ·maxPool2GradAVX2(SB), NOSPLIT, $0-88
	MOVQ         dx_base+0(FP), SI
	MOVQ         grad_base+24(FP), DI
	MOVQ         grad_len+32(FP), R13
	LEAQ         (DI)(R13*4), R13
	MOVQ         arg_base+48(FP), R8
	MOVQ         inW+72(FP), R9
	MOVQ         done+80(FP), R10
	VMOVDQU      lanes<>(SB), Y15
	VPADDD       Y15, Y15, Y15
	VPCMPEQD     Y14, Y14, Y14
	VPSRLD       $31, Y14, Y14
	VMOVD        R9, X13
	VPBROADCASTD X13, Y13
	VPADDD       Y14, Y13, Y12
	VPBROADCASTD eight<>(SB), Y11
	VPADDD       Y11, Y11, Y11
	VXORPS       Y9, Y9, Y9
	XORQ         BX, BX

gradRow:
	CMPQ         DI, R13
	JGE          gradDone
	VMOVD        BX, X10
	VPBROADCASTD X10, Y10
	VPADDD       Y15, Y10, Y10
	MOVQ         SI, AX
	MOVQ         DI, DX
	MOVQ         R8, R12
	XORQ         CX, CX

gradStep:
	VMOVUPS    (DX), Y0
	VMOVDQU    (R12), Y1
	VPCMPEQD   Y10, Y1, Y2
	VPADDD     Y14, Y10, Y3
	VPCMPEQD   Y3, Y1, Y3
	VPADDD     Y13, Y10, Y4
	VPCMPEQD   Y4, Y1, Y4
	VPADDD     Y12, Y10, Y5
	VPCMPEQD   Y5, Y1, Y5
	VANDPS     Y0, Y2, Y2
	VANDPS     Y0, Y3, Y3
	VANDPS     Y0, Y4, Y4
	VANDPS     Y0, Y5, Y5
	VADDPS     Y2, Y9, Y2
	VADDPS     Y3, Y9, Y3
	VADDPS     Y4, Y9, Y4
	VADDPS     Y5, Y9, Y5
	VUNPCKLPS  Y3, Y2, Y6
	VUNPCKHPS  Y3, Y2, Y7
	VPERM2F128 $0x20, Y7, Y6, Y0
	VPERM2F128 $0x31, Y7, Y6, Y1
	VMOVUPS    Y0, (AX)
	VMOVUPS    Y1, 32(AX)
	VUNPCKLPS  Y5, Y4, Y6
	VUNPCKHPS  Y5, Y4, Y7
	VPERM2F128 $0x20, Y7, Y6, Y0
	VPERM2F128 $0x31, Y7, Y6, Y1
	VMOVUPS    Y0, (AX)(R9*4)
	VMOVUPS    Y1, 32(AX)(R9*4)
	VPADDD     Y11, Y10, Y10
	ADDQ       $64, AX
	ADDQ       $32, DX
	ADDQ       $32, R12
	ADDQ       $8, CX
	CMPQ       CX, R10
	JLT        gradStep
	LEAQ       (SI)(R9*8), SI // two input rows on
	LEAQ       (DI)(R9*2), DI // one row of windows on: inW/2 floats
	LEAQ       (R8)(R9*2), R8
	LEAQ       (BX)(R9*2), BX
	JMP        gradRow

gradDone:
	VZEROUPPER
	RET

// func reluAVX2(dst, x, g []float32, below float32)
//
// ReLU's mask, both ways: dst[i] is +0 where x[i] < below and g[i]
// elsewhere. A lane is one element: VCMPPS LT_OQ is an ordered compare,
// false on a NaN, and VANDNPS keeps g where it is false. Forward (g = x,
// below = 0) that is ReLUInto's bit mask lane for lane: -0 and NaNs of
// either sign, payloads included, pass, -Inf becomes +0. For the
// gradient below is the smallest positive denormal, and x < below is
// x <= 0: no float lies between. Four vectors a step, then one, then
// the last 1–7 elements through the tail mask in Y9.
TEXT ·reluAVX2(SB), NOSPLIT, $0-76
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	MOVQ         g_base+48(FP), R8
	TAIL_MASK
	VBROADCASTSS below+72(FP), Y8
	XORQ         DX, DX
	MOVQ         CX, BX
	ANDQ         $-32, BX

relu32:
	CMPQ    DX, BX
	JGE     relu8Start
	VMOVUPS (SI)(DX*4), Y0
	VMOVUPS 32(SI)(DX*4), Y1
	VMOVUPS 64(SI)(DX*4), Y2
	VMOVUPS 96(SI)(DX*4), Y3
	VCMPPS  $0x11, Y8, Y0, Y4
	VCMPPS  $0x11, Y8, Y1, Y5
	VCMPPS  $0x11, Y8, Y2, Y6
	VCMPPS  $0x11, Y8, Y3, Y7
	VANDNPS (R8)(DX*4), Y4, Y4
	VANDNPS 32(R8)(DX*4), Y5, Y5
	VANDNPS 64(R8)(DX*4), Y6, Y6
	VANDNPS 96(R8)(DX*4), Y7, Y7
	VMOVUPS Y4, (DI)(DX*4)
	VMOVUPS Y5, 32(DI)(DX*4)
	VMOVUPS Y6, 64(DI)(DX*4)
	VMOVUPS Y7, 96(DI)(DX*4)
	ADDQ    $32, DX
	JMP     relu32

relu8Start:
	MOVQ CX, BX
	ANDQ $-8, BX

relu8:
	CMPQ    DX, BX
	JGE     reluTail
	VMOVUPS (SI)(DX*4), Y0
	VCMPPS  $0x11, Y8, Y0, Y4
	VANDNPS (R8)(DX*4), Y4, Y4
	VMOVUPS Y4, (DI)(DX*4)
	ADDQ    $8, DX
	JMP     relu8

reluTail:
	CMPQ       DX, CX
	JGE        reluDone
	VMASKMOVPS (SI)(DX*4), Y9, Y0
	VMASKMOVPS (R8)(DX*4), Y9, Y1
	VCMPPS     $0x11, Y8, Y0, Y4
	VANDNPS    Y1, Y4, Y4
	VMASKMOVPS Y4, Y9, (DI)(DX*4)

reluDone:
	VZEROUPPER
	RET

// func accumRowsAVX2(c, a, b []float32, as, np int)
//
// AccumRows on the row tile, multipliers compacted eight a step. A step
// loads multipliers p … p+7 (a[p·as], …): one VMOVUPS when as is 1,
// else eight scalar loads into the lanes (VINSERTPS, then VINSERTF128;
// cheaper than a gather here), and the last 1–7 through a VGATHERDPS at
// lane offsets 0, as, …, 7·as with the tail's lane mask (a masked-out
// lane is not read, and reads as +0). VCMPPS NEQ_UQ against zero marks
// the lanes to keep — a NaN is unordered, so kept, and ±0 is not —
// exactly nonZero's. VMOVMSKPS turns the marks into a byte, compactPerm
// (VPERMD) moves the kept multipliers and their row numbers to the
// front, and all eight lanes of each are stored at the list's write
// cursor on the frame, which moves on by the kept count (POPCNT). After
// four steps, or the last, the list goes through quadRows four at a
// time from the front, and the 0–3 left over move to the front for the
// next steps; the 1–3 left at the end go through oneRow one at a time.
// That is AccumRows's grouping — quads from the front of the non-zero
// list, the remainder singly — so every c[j] takes the same adds with
// the same operand order.
//
// Frame: the multipliers at 0(SP) and their row numbers (int32) at
// 160(SP), 40 of each — the cursor is at most 3 + 24 before a step's
// eight-lane store — and the multipliers left at 320(SP) while the
// quads run.
//
// Registers: DI c, CX len(c), SI b, R8 a at the step's first
// multiplier, R9 as in bytes, R10 the multipliers left (the list's read
// cursor while the quads run), R11 the steps left before the quads, R14
// the list's length; Y9 c's tail mask, Y10 the step's row numbers, Y11
// eight in every lane, Y12 the gather's lane offsets, Y13 zero.
TEXT ·accumRowsAVX2(SB), NOSPLIT, $328-88
	MOVQ         c_base+0(FP), DI
	MOVQ         c_len+8(FP), CX
	MOVQ         a_base+24(FP), R8
	MOVQ         b_base+48(FP), SI
	MOVQ         as+72(FP), R9
	MOVQ         np+80(FP), R10
	TAIL_MASK
	VMOVDQU      lanes<>(SB), Y10
	VPBROADCASTD eight<>(SB), Y11
	VMOVD        R9, X12
	VPBROADCASTD X12, Y12
	VPMULLD      Y10, Y12, Y12
	VXORPS       Y13, Y13, Y13
	SHLQ         $2, R9
	XORQ         R14, R14

accChunk:
	MOVQ $4, R11

accStep:
	CMPQ    R10, $8
	JLT     accPart
	CMPQ    R9, $4
	JNE     accStrided
	VMOVUPS (R8), Y0
	JMP     accCompact

accStrided:
	LEAQ        (R9)(R9*2), DX
	LEAQ        (R8)(R9*4), AX
	VMOVSS      (R8), X0
	VINSERTPS   $0x10, (R8)(R9*1), X0, X0
	VINSERTPS   $0x20, (R8)(R9*2), X0, X0
	VINSERTPS   $0x30, (R8)(DX*1), X0, X0
	VMOVSS      (AX), X1
	VINSERTPS   $0x10, (AX)(R9*1), X1, X1
	VINSERTPS   $0x20, (AX)(R9*2), X1, X1
	VINSERTPS   $0x30, (AX)(DX*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	JMP         accCompact

accPart:
	TESTQ      R10, R10
	JEQ        accQuads
	MOVQ       R10, AX
	SHLQ       $2, AX
	LEAQ       tailMask<>+32(SB), DX
	SUBQ       AX, DX
	VMOVDQU    (DX), Y1
	VXORPS     Y0, Y0, Y0
	VGATHERDPS Y1, (R8)(Y12*4), Y0
	MOVQ       $8, R10

accCompact:
	VCMPPS    $4, Y13, Y0, Y1
	VMOVMSKPS Y1, AX
	LEAQ      ·compactPerm(SB), DX
	VPMOVZXBD (DX)(AX*8), Y2
	VPERMD    Y0, Y2, Y0
	VPERMD    Y10, Y2, Y3
	VMOVUPS   Y0, (SP)(R14*4)
	VMOVDQU   Y3, 160(SP)(R14*4)
	POPCNTL   AX, AX
	ADDQ      AX, R14
	VPADDD    Y11, Y10, Y10
	LEAQ      (R8)(R9*8), R8
	SUBQ      $8, R10
	DECQ      R11
	JNZ       accStep

accQuads:
	MOVQ R10, 320(SP)
	XORQ R10, R10

accQuad:
	LEAQ         4(R10), AX
	CMPQ         AX, R14
	JGT          accCarry
	MOVL         160(SP)(R10*4), AX
	IMULQ        CX, AX
	LEAQ         (SI)(AX*4), R11
	MOVL         164(SP)(R10*4), AX
	IMULQ        CX, AX
	LEAQ         (SI)(AX*4), R12
	MOVL         168(SP)(R10*4), AX
	IMULQ        CX, AX
	LEAQ         (SI)(AX*4), R13
	MOVL         172(SP)(R10*4), AX
	IMULQ        CX, AX
	LEAQ         (SI)(AX*4), BX
	VBROADCASTSS (SP)(R10*4), Y0
	VBROADCASTSS 4(SP)(R10*4), Y1
	VBROADCASTSS 8(SP)(R10*4), Y2
	VBROADCASTSS 12(SP)(R10*4), Y3
	CALL         quadRows<>(SB)
	ADDQ         $4, R10
	JMP          accQuad

accCarry:
	VMOVUPS (SP)(R10*4), X4
	VMOVUPS X4, (SP)
	VMOVDQU 160(SP)(R10*4), X4
	VMOVDQU X4, 160(SP)
	SUBQ    R10, R14
	MOVQ    320(SP), R10
	TESTQ   R10, R10
	JNE     accChunk

accOnes:
	CMPQ         R10, R14
	JGE          accDone
	MOVL         160(SP)(R10*4), AX
	IMULQ        CX, AX
	LEAQ         (SI)(AX*4), R11
	VBROADCASTSS (SP)(R10*4), Y0
	CALL         oneRow<>(SB)
	INCQ         R10
	JMP          accOnes

accDone:
	VZEROUPPER
	RET
