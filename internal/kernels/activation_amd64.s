#include "textflag.h"

// GELU, sigmoid and tanh 8 lanes at a time, with the formulas of
// activation.go (range reduction and polynomial through FMA). tab points
// at actTab: each constant repeated over 8 lanes, at these byte offsets.
#define EXPLO 0
#define EXPHI 32
#define GELULO 64
#define LOG2E 96
#define LN2HI 128
#define LN2LO 160
#define P0 192
#define P1 224
#define P2 256
#define P3 288
#define P4 320
#define P5 352
#define ONE 384
#define TWO 416
#define BIAS 448
#define GELUA 480
#define GELUM 512
#define NEG1 544

// EXPM1 sets Y4 = e^Y1 - 1 and Y5 = 2 + Y4, clobbering Y1 and Y3. The clamps
// keep Y1 as the operand MAXPS/MINPS return on NaN; 2^k is (k+127) << 23.
#define EXPM1 \
	VMAXPS Y1, Y13, Y1; VMINPS Y1, Y14, Y1; \
	VMULPS LOG2E(R8), Y1, Y3; VROUNDPS $0, Y3, Y3; \
	VFNMADD231PS LN2HI(R8), Y3, Y1; VFNMADD231PS LN2LO(R8), Y3, Y1; \
	VMOVUPS P0(R8), Y4; VFMADD213PS P1(R8), Y1, Y4; VFMADD213PS P2(R8), Y1, Y4; \
	VFMADD213PS P3(R8), Y1, Y4; VFMADD213PS P4(R8), Y1, Y4; VFMADD213PS P5(R8), Y1, Y4; \
	VMULPS Y1, Y4, Y4; VFMADD213PS Y1, Y1, Y4; \
	VADDPS BIAS(R8), Y3, Y3; VCVTPS2DQ Y3, Y3; VPSLLD $23, Y3, Y3; \
	VSUBPS ONE(R8), Y3, Y5; VFMADD213PS Y5, Y3, Y4; VADDPS TWO(R8), Y4, Y5

// func act8(kind int, x, o []float32, tab *[18][8]float32)
TEXT ·act8(SB), NOSPLIT, $0-64
	MOVQ    kind+0(FP), AX
	MOVQ    x_base+8(FP), SI
	MOVQ    o_base+32(FP), DI
	MOVQ    o_len+40(FP), CX
	MOVQ    tab+56(FP), R8
	VMOVUPS EXPLO(R8), Y13
	VMOVUPS EXPHI(R8), Y14
	VMOVUPS GELULO(R8), Y12
	SHRQ    $3, CX
	JZ      done

loop:
	VMOVUPS (SI), Y0
	CMPQ    AX, $1
	JEQ     sigmoid
	JGT     tanh
	VMAXPS  Y0, Y12, Y0     // gelu: x = max(x, geluLo), z = geluM*(x³·geluA + x)
	VMULPS  Y0, Y0, Y1
	VMULPS  GELUA(R8), Y1, Y1
	VFMADD213PS Y0, Y0, Y1
	VMULPS  GELUM(R8), Y1, Y1
	EXPM1
	VDIVPS  Y5, Y0, Y0
	JMP     store

sigmoid:
	VMULPS  NEG1(R8), Y0, Y1
	EXPM1
	VMOVUPS ONE(R8), Y0
	VDIVPS  Y5, Y0, Y0
	JMP     store

tanh:
	VADDPS  Y0, Y0, Y1
	EXPM1
	VDIVPS  Y5, Y4, Y0

store:
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET
