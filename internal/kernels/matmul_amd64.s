//go:build !purego

#include "textflag.h"

// Row tiles of the dense operator over the panels of B: c[r, j] = sum over
// p of a[r, p]*b[p, j] for j < n, one VFMADD231PS per p in increasing p
// order, so every tile rounds every output element identically. a has row
// stride k and c row stride ld (float32, row-major). b is ⌈n/16⌉ panels of
// k rows of 16 floats, each row 64 contiguous bytes and the last panel
// zero-padded, so every load of b is a whole panel row and b is read
// front to back: after the p loop of one panel, DX is at the next. The 16
// columns of a panel live in Y8:Y9; the last n%16 are stored through the
// lane mask in Y12:Y13, so the padding is computed but never written.
//
// Registers: SI, R10, R11, R12 = a rows 0-3 advanced by k (AX counts the
// byte offset up from -4k to 0), DX = b row p of the current panel, DI/R8
// = c rows 0 and 2, R9 = 4ld, R13 = 4k, CX = columns left.

#define LOADB VMOVUPS (DX), Y8; VMOVUPS 32(DX), Y9
#define STU(y, m, dst) VMOVUPS y, dst
#define STM(y, m, dst) VMASKMOVPS y, m, dst

// ROW accumulates broadcast(a[row, p]) * b[p, 0:16] into lo:hi.
#define ROW(row, lo, hi) VBROADCASTSS (row)(AX*1), Y10; VFMADD231PS Y8, Y10, lo; VFMADD231PS Y9, Y10, hi

// PLOOP runs body once per p, stepping b by one 64-byte panel row; skipped
// when k == 0, leaving the zeros.
#define PLOOP(loop, done, body) MOVQ R13, AX; NEGQ AX; JZ done; \
loop: body; ADDQ $64, DX; ADDQ $4, AX; JNZ loop; \
done:

#define ARGS \
	MOVQ a_base+0(FP), SI; MOVQ b_base+24(FP), DX; MOVQ c_base+48(FP), DI; \
	MOVQ k+72(FP), R13; SHLQ $2, R13; MOVQ n+80(FP), CX; MOVQ ld+88(FP), R9; SHLQ $2, R9; \
	MOVQ mask+96(FP), AX; VMOVDQU (AX), Y12; VMOVDQU 32(AX), Y13; ADDQ R13, SI

#define ZERO4 VXORPS Y0, Y0, Y0; VXORPS Y1, Y1, Y1; VXORPS Y2, Y2, Y2; VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; VXORPS Y5, Y5, Y5; VXORPS Y6, Y6, Y6; VXORPS Y7, Y7, Y7
#define BODY4 ROW(SI, Y0, Y1); ROW(R10, Y2, Y3); ROW(R11, Y4, Y5); ROW(R12, Y6, Y7)
#define STORE4(ST) ST(Y0, Y12, (DI)); ST(Y1, Y13, 32(DI)); ST(Y2, Y12, (DI)(R9*1)); ST(Y3, Y13, 32(DI)(R9*1)); \
	ST(Y4, Y12, (R8)); ST(Y5, Y13, 32(R8)); ST(Y6, Y12, (R8)(R9*1)); ST(Y7, Y13, 32(R8)(R9*1))

// func gemm4x16(a, b, c []float32, k, n, ld int, mask *int32)
TEXT ·gemm4x16(SB), NOSPLIT, $0-104
	ARGS
	LEAQ (SI)(R13*1), R10
	LEAQ (R10)(R13*1), R11
	LEAQ (R11)(R13*1), R12
	LEAQ (DI)(R9*2), R8

full4:
	CMPQ CX, $16
	JLT  tail4
	ZERO4
	PLOOP(p4, s4, LOADB; BODY4)
	STORE4(STU)
	ADDQ $64, DI
	ADDQ $64, R8
	SUBQ $16, CX
	JMP  full4

tail4:
	TESTQ CX, CX
	JZ    done4
	ZERO4
	PLOOP(pm4, sm4, LOADB; BODY4)
	STORE4(STM)

done4:
	VZEROUPPER
	RET

// func gemm1x16(a, b, c []float32, k, n, ld int, mask *int32)
TEXT ·gemm1x16(SB), NOSPLIT, $0-104
	ARGS

full1:
	CMPQ CX, $16
	JLT  tail1
	VXORPS Y0, Y0, Y0; VXORPS Y1, Y1, Y1
	PLOOP(p1, s1, LOADB; ROW(SI, Y0, Y1))
	STU(Y0, Y12, (DI)); STU(Y1, Y13, 32(DI))
	ADDQ $64, DI
	SUBQ $16, CX
	JMP  full1

tail1:
	TESTQ CX, CX
	JZ    done1
	VXORPS Y0, Y0, Y0; VXORPS Y1, Y1, Y1
	PLOOP(pm1, sm1, LOADB; ROW(SI, Y0, Y1))
	STM(Y0, Y12, (DI)); STM(Y1, Y13, 32(DI))

done1:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
