#include "textflag.h"

// LANES declares a read-only table of four copies of one float64 bit
// pattern, the operand of a 4-lane instruction.
#define LANES(name, bits) \
	DATA name+0(SB)/8, bits; \
	DATA name+8(SB)/8, bits; \
	DATA name+16(SB)/8, bits; \
	DATA name+24(SB)/8, bits; \
	GLOBL name(SB), RODATA|NOPTR, $32

// The constants of math.log2 and archLog (math/log10.go, log_amd64.s),
// bit for bit: the largest finite float, the mantissa mask (also the
// largest subnormal), 2^52 (the subnormal scale, and the bias of the
// exponent-to-float conversion), 1022 and 52 (the Frexp exponent
// offsets), 0.5 (the Frexp fraction's exponent), 1, 2, √2/2, L1–L7,
// Ln2Hi, Ln2Lo, 1/Ln2, archLog's NaN for negative input, −Inf and the
// |x| mask.
LANES(glMaxFinite<>, $0x7fefffffffffffff)
LANES(glMant<>, $0x000fffffffffffff)
LANES(glTwo52<>, $0x4330000000000000)
LANES(gl1022<>, $0x408ff00000000000)
LANES(gl52<>, $0x404a000000000000)
LANES(glHalf<>, $0x3fe0000000000000)
LANES(glOne<>, $0x3ff0000000000000)
LANES(glTwo<>, $0x4000000000000000)
LANES(glHSqrt2<>, $0x3fe6a09e667f3bcd)
LANES(glL1<>, $0x3fe5555555555593)
LANES(glL2<>, $0x3fd999999997fa04)
LANES(glL3<>, $0x3fd2492494229359)
LANES(glL4<>, $0x3fcc71c51d8e78af)
LANES(glL5<>, $0x3fc7466496cb03de)
LANES(glL6<>, $0x3fc39a09d078c69f)
LANES(glL7<>, $0x3fc2f112df3e5244)
LANES(glLn2Hi<>, $0x3fe62e42fee00000)
LANES(glLn2Lo<>, $0x3dea39ef35793c76)
LANES(glInvLn2<>, $0x3ff71547652b82fe)
LANES(glNaN<>, $0x7ff8000000000001)
LANES(glNegInf<>, $0xfff0000000000000)
LANES(glAbs<>, $0x7fffffffffffffff)

// Four all-ones words then four zeros: the 4-lane load at word 4−r is
// the mask of the first r lanes.
DATA glTail<>+0(SB)/8, $-1
DATA glTail<>+8(SB)/8, $-1
DATA glTail<>+16(SB)/8, $-1
DATA glTail<>+24(SB)/8, $-1
DATA glTail<>+32(SB)/8, $0
DATA glTail<>+40(SB)/8, $0
DATA glTail<>+48(SB)/8, $0
DATA glTail<>+56(SB)/8, $0
GLOBL glTail<>(SB), RODATA|NOPTR, $64

// LOG2X4 sets Y6 = math.Log2(Y0) in each of the four lanes, bit for bit,
// keeping Y0; Y15 must hold +0, and Y1..Y9 are clobbered. Each lane runs
// math.log2 and archLog with the same IEEE operations in the same order:
//  1. Y1 marks the lanes archLog computes: x finite and > 0 (as an int64,
//     0 < x ≤ the largest finite bits).
//  2. Frexp: a subnormal x is scaled by 2^52 (exact); the biased exponent
//     e becomes the float e − 1022, less 52 for a scaled lane, and the
//     mantissa under 0.5's exponent is frac ∈ [0.5, 1).
//  3. Y2 marks the exact powers of two (frac == 0.5), whose answer is the
//     float exp − 1.
//  4. archLog(frac): k = 0, f1 = frac; where f1 < √2/2, k = 0 − 1 and
//     f1·2; f = f1 − 1, s = f/(2+f), the L1–L7 polynomial in s², s⁴, and
//     k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f).
//  5. The other lanes take archLog's special results: −Inf for ±0, its
//     NaN for any negative (−Inf and negative NaNs included), x itself
//     for +Inf and positive NaNs; their exp is 0.
//  6. ln·(1/Ln2) + exp, then the powers of two blended in.
#define LOG2X4 \
	VPCMPGTQ  Y15, Y0, Y1; \
	VPCMPGTQ  glMaxFinite<>(SB), Y0, Y2; \
	VPANDN    Y1, Y2, Y1; \
	VPCMPGTQ  glMant<>(SB), Y0, Y2; \
	VMULPD    glTwo52<>(SB), Y0, Y3; \
	VBLENDVPD Y2, Y0, Y3, Y3; \
	VPSRLQ    $52, Y3, Y4; \
	VPOR      glTwo52<>(SB), Y4, Y4; \
	VSUBPD    glTwo52<>(SB), Y4, Y4; \
	VSUBPD    gl1022<>(SB), Y4, Y4; \
	VANDNPD   gl52<>(SB), Y2, Y2; \
	VSUBPD    Y2, Y4, Y4; \
	VANDPD    glMant<>(SB), Y3, Y3; \
	VORPD     glHalf<>(SB), Y3, Y3; \
	VCMPPD    $0, glHalf<>(SB), Y3, Y2; \
	VANDPD    Y1, Y2, Y2; \
	VCMPPD    $0x11, glHSqrt2<>(SB), Y3, Y5; \
	VANDPD    glOne<>(SB), Y5, Y5; \
	VSUBPD    Y5, Y15, Y6; \
	VADDPD    glOne<>(SB), Y5, Y5; \
	VMULPD    Y5, Y3, Y3; \
	VSUBPD    glOne<>(SB), Y3, Y3; \
	VADDPD    glTwo<>(SB), Y3, Y5; \
	VDIVPD    Y5, Y3, Y5; \
	VMULPD    Y5, Y5, Y7; \
	VMULPD    Y7, Y7, Y8; \
	VMULPD    glL7<>(SB), Y8, Y9; \
	VADDPD    glL5<>(SB), Y9, Y9; \
	VMULPD    Y8, Y9, Y9; \
	VADDPD    glL3<>(SB), Y9, Y9; \
	VMULPD    Y8, Y9, Y9; \
	VADDPD    glL1<>(SB), Y9, Y9; \
	VMULPD    Y9, Y7, Y7; \
	VMULPD    glL6<>(SB), Y8, Y9; \
	VADDPD    glL4<>(SB), Y9, Y9; \
	VMULPD    Y8, Y9, Y9; \
	VADDPD    glL2<>(SB), Y9, Y9; \
	VMULPD    Y9, Y8, Y8; \
	VADDPD    Y8, Y7, Y7; \
	VMULPD    glHalf<>(SB), Y3, Y8; \
	VMULPD    Y3, Y8, Y8; \
	VADDPD    Y8, Y7, Y7; \
	VMULPD    Y7, Y5, Y7; \
	VMULPD    glLn2Lo<>(SB), Y6, Y9; \
	VADDPD    Y9, Y7, Y7; \
	VSUBPD    Y7, Y8, Y8; \
	VSUBPD    Y3, Y8, Y8; \
	VMULPD    glLn2Hi<>(SB), Y6, Y6; \
	VSUBPD    Y8, Y6, Y6; \
	VPCMPGTQ  Y0, Y15, Y3; \
	VBLENDVPD Y3, glNaN<>(SB), Y0, Y5; \
	VANDPD    glAbs<>(SB), Y0, Y3; \
	VPCMPEQQ  Y15, Y3, Y3; \
	VBLENDVPD Y3, glNegInf<>(SB), Y5, Y5; \
	VBLENDVPD Y1, Y6, Y5, Y6; \
	VANDPD    Y1, Y4, Y5; \
	VMULPD    glInvLn2<>(SB), Y6, Y6; \
	VADDPD    Y5, Y6, Y6; \
	VSUBPD    glOne<>(SB), Y4, Y4; \
	VBLENDVPD Y2, Y4, Y6, Y6

// func gainLossRowAVX2(den, sd, sr, sl, gain, loss []float64)
//
// Four cells per step. Registers: SI den, CX its length n, R8..R10 the
// sd, sr and sl rows, R13 their state stride n·8 and DX their byte length
// X·n·8, R11 gain, R12 loss, BX the cell index c, AX the state's byte
// offset (c·8 + x·n·8); Y10 the cells' lane mask, Y12 their den and Y11
// den > 0, Y14 and Y13 the gain and loss sums, Y15 zero.
TEXT ·gainLossRowAVX2(SB), NOSPLIT, $0-144
	MOVQ   den_base+0(FP), SI
	MOVQ   den_len+8(FP), CX
	MOVQ   sd_base+24(FP), R8
	MOVQ   sd_len+32(FP), DX
	SHLQ   $3, DX
	MOVQ   sr_base+48(FP), R9
	MOVQ   sl_base+72(FP), R10
	MOVQ   gain_base+96(FP), R11
	MOVQ   loss_base+120(FP), R12
	MOVQ   CX, R13
	SHLQ   $3, R13
	VXORPD Y15, Y15, Y15
	XORQ   BX, BX

cells:
	// The mask of the cells left, at most four.
	MOVQ    CX, AX
	SUBQ    BX, AX
	JLE     done
	MOVQ    $4, DI
	CMPQ    AX, DI
	CMOVQGT DI, AX
	NEGQ    AX
	LEAQ    glTail<>+32(SB), DI
	VMOVDQU (DI)(AX*8), Y10

	// agg = sumD/den where den > 0, else +0; the sums start from +0.
	VMASKMOVPD (SI)(BX*8), Y10, Y12
	VCMPPD     $0x1e, Y15, Y12, Y11
	VXORPD     Y14, Y14, Y14
	VXORPD     Y13, Y13, Y13
	MOVQ       BX, AX
	SHLQ       $3, AX
	LEAQ       (AX)(DX*1), DI
	CMPQ       AX, DI
	JGE        store

state:
	// measures.GainLoss on four cells: where !(agg ≤ 0) gain = agg·l −
	// sumRL and loss = sumRL − l·sumRho, l = log2(agg); elsewhere
	// 0 − sumRL and +0. Then the sums gain the state's terms.
	VMASKMOVPD (R8)(AX*1), Y10, Y0
	VDIVPD     Y12, Y0, Y0
	VANDPD     Y11, Y0, Y0
	LOG2X4
	VCMPPD     $0x16, Y15, Y0, Y1
	VMASKMOVPD (R10)(AX*1), Y10, Y7
	VMASKMOVPD (R9)(AX*1), Y10, Y8
	VMULPD     Y6, Y0, Y2
	VSUBPD     Y7, Y2, Y2
	VMULPD     Y8, Y6, Y3
	VSUBPD     Y3, Y7, Y3
	VSUBPD     Y7, Y15, Y4
	VBLENDVPD  Y1, Y2, Y4, Y2
	VANDPD     Y1, Y3, Y3
	VADDPD     Y2, Y14, Y14
	VADDPD     Y3, Y13, Y13
	ADDQ       R13, AX
	CMPQ       AX, DI
	JLT        state

store:
	VMASKMOVPD Y14, Y10, (R11)(BX*8)
	VMASKMOVPD Y13, Y10, (R12)(BX*8)
	ADDQ       $4, BX
	JMP        cells

done:
	VZEROUPPER
	RET

// func log2x4AVX2(x *[4]float64)
TEXT ·log2x4AVX2(SB), NOSPLIT, $0-8
	MOVQ    x+0(FP), AX
	VXORPD  Y15, Y15, Y15
	VMOVUPD (AX), Y0
	LOG2X4
	VMOVUPD Y6, (AX)
	VZEROUPPER
	RET
