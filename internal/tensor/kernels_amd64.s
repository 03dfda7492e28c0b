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
// through the mask in Y9. Clobbers AX, DX, Y4 and Y5.
TEXT oneRow<>(SB), NOSPLIT|NOFRAME, $0-0
	MOVQ CX, AX
	ANDQ $-8, AX
	XORQ DX, DX
	CMPQ DX, AX
	JGE  oneTail

oneVec:
	VMOVUPS (DI)(DX*4), Y4
	VMULPS  (R11)(DX*4), Y0, Y5
	VADDPS  Y5, Y4, Y4
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
	VADDPS     Y5, Y4, Y4
	VMASKMOVPS Y4, Y9, (DI)(DX*4)

oneDone:
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
