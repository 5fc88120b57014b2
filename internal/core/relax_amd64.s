#include "textflag.h"

// The constants of improveThr, four lanes each as float64 bits: the |x|
// mask, 1.0 and measures.ImproveEps (1e-12).
DATA relaxAbs<>+0(SB)/8, $0x7fffffffffffffff
DATA relaxAbs<>+8(SB)/8, $0x7fffffffffffffff
DATA relaxAbs<>+16(SB)/8, $0x7fffffffffffffff
DATA relaxAbs<>+24(SB)/8, $0x7fffffffffffffff
GLOBL relaxAbs<>(SB), RODATA|NOPTR, $32
DATA relaxOne<>+0(SB)/8, $0x3ff0000000000000
DATA relaxOne<>+8(SB)/8, $0x3ff0000000000000
DATA relaxOne<>+16(SB)/8, $0x3ff0000000000000
DATA relaxOne<>+24(SB)/8, $0x3ff0000000000000
GLOBL relaxOne<>(SB), RODATA|NOPTR, $32
DATA relaxEps<>+0(SB)/8, $0x3d719799812dea11
DATA relaxEps<>+8(SB)/8, $0x3d719799812dea11
DATA relaxEps<>+16(SB)/8, $0x3d719799812dea11
DATA relaxEps<>+24(SB)/8, $0x3d719799812dea11
GLOBL relaxEps<>(SB), RODATA|NOPTR, $32

// Four all-ones words then four zeros: the 4-lane load at word 4−r is
// the mask of the first r lanes.
DATA relaxTail<>+0(SB)/8, $-1
DATA relaxTail<>+8(SB)/8, $-1
DATA relaxTail<>+16(SB)/8, $-1
DATA relaxTail<>+24(SB)/8, $-1
DATA relaxTail<>+32(SB)/8, $0
DATA relaxTail<>+40(SB)/8, $0
DATA relaxTail<>+48(SB)/8, $0
DATA relaxTail<>+56(SB)/8, $0
GLOBL relaxTail<>(SB), RODATA|NOPTR, $64

// The no-cut cut values of four one-lane cells (i+m+0..3, as offsets)
// and their step, as int32 lanes.
DATA relaxIota<>+0(SB)/4, $0
DATA relaxIota<>+4(SB)/4, $1
DATA relaxIota<>+8(SB)/4, $2
DATA relaxIota<>+12(SB)/4, $3
GLOBL relaxIota<>(SB), RODATA|NOPTR, $16
DATA relaxFour<>+0(SB)/4, $4
DATA relaxFour<>+4(SB)/4, $4
DATA relaxFour<>+8(SB)/4, $4
DATA relaxFour<>+12(SB)/4, $4
GLOBL relaxFour<>(SB), RODATA|NOPTR, $16

// THR sets t = improveThr(v) = v + float64(eps·(1+|v|)), Y13..Y15 holding
// the |x| mask, 1.0 and eps.
#define THR(v, t) \
	VANDPD Y13, v, t; \
	VADDPD Y14, t, t; \
	VMULPD Y15, t, t; \
	VADDPD v, t, t

// NARROW sets x32 to the 64-bit lane mask y64 narrowed to 32-bit lanes
// (x64 is y64's low half).
#define NARROW(y64, x64, x32) \
	VEXTRACTF128 $1, y64, x32; \
	VSHUFPS      $0x88, x32, x64, x32

// UPDATE stores, where the 64-bit lane mask m (its low half mx) is set,
// P = v, TH = improveThr(v) and C = cut (X7) for the four lanes at byte
// offset o8 of P and TH (o4 of C) from lane BX.
#define UPDATE(o8, o4, v, m, mx) \
	VMOVUPD   o8(R9)(BX*8), Y5; \
	VBLENDVPD m, v, Y5, Y5; \
	VMOVUPD   Y5, o8(R9)(BX*8); \
	THR(v, Y4); \
	VMOVUPD   o8(R10)(BX*8), Y5; \
	VBLENDVPD m, Y4, Y5, Y5; \
	VMOVUPD   Y5, o8(R10)(BX*8); \
	NARROW(m, mx, X5); \
	VMOVDQU   o4(R11)(BX*4), X6; \
	VBLENDVPS X5, X7, X6, X6; \
	VMOVDQU   X6, o4(R11)(BX*4)

// func relaxRowAVX2(p, q, g, l, tri, th []float64, c []int32, kids []float64, childOffs []int, i int)
//
// The frame holds the lane tables ptab (0(SP)) and qtab (128(SP)), 16
// words each: p and q zero-padded, or for K = 1 the one lane four
// times, so the 4-lane load at a strip offset o < K is the p (q) of
// lanes o..o+3. The temporal phase reuses ptab as the L table and
// 248(SP) as the cut counter.
TEXT ·relaxRowAVX2(SB), NOSPLIT, $256-224
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), DI
	MOVQ q_base+24(FP), R8
	CMPQ DI, $1
	JNE  copypq
	VBROADCASTSD (SI), Y0
	VMOVUPD      Y0, (SP)
	VBROADCASTSD (R8), Y0
	VMOVUPD      Y0, 128(SP)
	JMP          tabled

copypq:
	// Four words at a time, the lanes past K masked to zero.
	XORQ BX, BX

copypqloop:
	MOVQ       DI, AX
	SUBQ       BX, AX
	MOVQ       $4, R9
	CMPQ       AX, R9
	CMOVQGT    R9, AX
	XORQ       R9, R9
	CMPQ       AX, R9
	CMOVQLT    R9, AX
	NEGQ       AX
	LEAQ       relaxTail<>+32(SB), R9
	VMOVDQU    (R9)(AX*8), Y1
	VMASKMOVPD (SI)(BX*8), Y1, Y0
	VMOVUPD    Y0, (SP)(BX*8)
	VMASKMOVPD (R8)(BX*8), Y1, Y0
	VMOVUPD    Y0, 128(SP)(BX*8)
	ADDQ       $4, BX
	CMPQ       BX, $16
	JLT        copypqloop

tabled:
	VMOVUPD      relaxAbs<>(SB), Y13
	VMOVUPD      relaxOne<>(SB), Y14
	VMOVUPD      relaxEps<>(SB), Y15
	MOVL         $-1, AX // CutSpatial
	VMOVD        AX, X7
	VPBROADCASTD X7, X7

	// Phases 1 and 2, four lanes per step. Registers: DI K, BX the lane
	// index m, DX the strip offset o = m mod K (0 for K = 1), CX the strip
	// s, SI..R8 the child offsets, R9 the child cursor, R10 P, R11 TH,
	// R12 C, R13 kids; Y8 and Y9 the lanes' g and l, X10 their no-cut C,
	// Y11 the lane mask and X12 it narrowed.
	MOVQ childOffs_base+192(FP), SI
	MOVQ childOffs_len+200(FP), R8
	LEAQ (SI)(R8*8), R8
	MOVQ tri_base+96(FP), R10
	MOVQ th_base+120(FP), R11
	MOVQ c_base+144(FP), R12
	MOVQ kids_base+168(FP), R13
	XORQ BX, BX
	XORQ DX, DX
	XORQ CX, CX
	CMPQ DI, $1
	JNE  strip
	MOVQ         i+216(FP), AX
	VMOVD        AX, X10
	VPBROADCASTD X10, X10
	VPADDD       relaxIota<>(SB), X10, X10

one:
	// K = 1: four cells m..m+3, g and l read straight.
	MOVQ th_len+128(FP), AX
	SUBQ BX, AX
	JLE  cuts
	MOVQ $4, R9
	CMPQ AX, R9
	CMOVQGT R9, AX
	NEGQ AX
	LEAQ relaxTail<>+32(SB), R9
	VMOVDQU    (R9)(AX*8), Y11
	MOVQ       g_base+48(FP), R9
	VMASKMOVPD (R9)(BX*8), Y11, Y8
	MOVQ       l_base+72(FP), R9
	VMASKMOVPD (R9)(BX*8), Y11, Y9
	JMP        core

strip:
	// K > 1: at a strip's first offset, broadcast its g, l and cut j = i+s.
	TESTQ DX, DX
	JNZ   lanes
	CMPQ  CX, g_len+56(FP)
	JEQ   cuts
	MOVQ         g_base+48(FP), AX
	VBROADCASTSD (AX)(CX*8), Y8
	MOVQ         l_base+72(FP), AX
	VBROADCASTSD (AX)(CX*8), Y9
	MOVQ         i+216(FP), AX
	ADDQ         CX, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, X10

lanes:
	// The mask of the strip's lanes left, K − o, at most four.
	MOVQ DI, AX
	SUBQ DX, AX
	MOVQ $4, R9
	CMPQ AX, R9
	CMOVQGT R9, AX
	NEGQ AX
	LEAQ relaxTail<>+32(SB), R9
	VMOVDQU (R9)(AX*8), Y11

core:
	// P = p·g − q·l, rounded after each multiply; TH = improveThr(P).
	NARROW(Y11, X11, X12)
	VMULPD  (SP)(DX*8), Y8, Y0
	VMULPD  128(SP)(DX*8), Y9, Y1
	VSUBPD  Y1, Y0, Y0
	THR(Y0, Y2)
	VMOVDQA X10, X6
	CMPQ    SI, R8
	JEQ     store

	// Spatial: the children's strips summed in order from +0, then
	// P, TH, C = sum, improveThr(sum), CutSpatial where sum > TH.
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R9

kid:
	MOVQ       (R9), AX
	IMULQ      DI, AX
	ADDQ       BX, AX
	VMASKMOVPD (R13)(AX*8), Y11, Y4
	VADDPD     Y4, Y3, Y3
	ADDQ       $8, R9
	CMPQ       R9, R8
	JNE        kid
	VCMPPD     $0x1e, Y2, Y3, Y5
	VBLENDVPD  Y5, Y3, Y0, Y0
	THR(Y3, Y4)
	VBLENDVPD  Y5, Y4, Y2, Y2
	NARROW(Y5, X5, X4)
	VBLENDVPS  X4, X7, X6, X6

store:
	VMASKMOVPD Y0, Y11, (R10)(BX*8)
	VMASKMOVPD Y2, Y11, (R11)(BX*8)
	VPMASKMOVD X6, X12, (R12)(BX*4)
	ADDQ       $4, BX
	CMPQ       DI, $1
	JNE        advance
	VPADDD     relaxFour<>(SB), X10, X10
	JMP        one

advance:
	// Next offset of the strip, or the next strip's first lane.
	ADDQ $4, DX
	CMPQ DX, DI
	JLT  strip
	SUBQ DX, BX
	ADDQ DI, BX
	XORQ DX, DX
	INCQ CX
	JMP  strip

cuts:
	// Phase 3: for each cut, v = L + R over the cells (i, j>cut) of P, TH
	// and C; where v > TH (ordered: a NaN never improves) store P = v,
	// TH = improveThr(v) and C = cut. Eight lanes per step, one branch on
	// both halves' masks. Registers: DI K, R8 R (row cut+1), R9 P, R10
	// TH, R11 C (the strips after L), CX their length, BX the lane index
	// m, DX the phase m mod K, R12 the phase step 8 mod K (one conditional
	// subtraction keeps the phase below K), SI the L table, whose
	// unaligned 4-lane loads at the phase and phase+4 are the L values of
	// lanes m..m+7. When K is a multiple of 8 a load never wraps and the
	// table is L itself; otherwise it is built on the frame per cut,
	// lx[t] = L[t mod K] for t < K+7 (at most 22 words, for K = 15). X7
	// is the cut broadcast; 248(SP) counts the cuts.
	MOVQ th_len+128(FP), CX
	SUBQ DI, CX
	JLE  done
	MOVQ tri_base+96(FP), R9
	LEAQ (R9)(DI*8), R9
	MOVQ th_base+120(FP), R10
	LEAQ (R10)(DI*8), R10
	MOVQ c_base+144(FP), R11
	LEAQ (R11)(DI*4), R11
	MOVQ th_len+128(FP), AX
	MOVQ tri_base+96(FP), R8
	LEAQ (R8)(AX*8), R8
	MOVQ i+216(FP), AX
	MOVL AX, 248(SP)
	MOVQ $8, AX
	XORQ DX, DX
	DIVQ DI
	MOVQ DX, R12

cut:
	MOVQ  DI, AX
	SHLQ  $3, AX
	MOVQ  R9, SI
	SUBQ  AX, SI
	TESTQ $7, DI
	JZ    stepped
	CMPQ  DI, $2
	JGT   wrap
	JEQ   two
	VBROADCASTSD (SI), Y0
	JMP          four

two:
	VBROADCASTF128 (SI), Y0

four:
	VMOVUPD Y0, (SP)
	VMOVUPD Y0, 32(SP)
	MOVQ    SP, SI
	JMP     stepped

wrap:
	// K ≥ 3: lx = L four words at a time (reading at most K+3 ≤ 2K words
	// from L, which a strip of P follows), then lx[t] = lx[t−K] for
	// t = K..K+6.
	XORQ BX, BX

fill:
	VMOVUPD (SI)(BX*8), Y0
	VMOVUPD Y0, (SP)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, DI
	JLT     fill
	MOVQ    DI, BX
	XORQ    DX, DX

refill:
	MOVQ (SP)(DX*8), AX
	MOVQ AX, (SP)(BX*8)
	INCQ BX
	INCQ DX
	CMPQ DX, $7
	JLT  refill
	MOVQ SP, SI

stepped:
	MOVL         248(SP), AX
	VMOVD        AX, X7
	VPBROADCASTD X7, X7
	XORQ         BX, BX
	XORQ         DX, DX
	LEAQ         -8(CX), R13
	CMPQ         BX, R13
	JGT          four_left

loop:
	VMOVUPD (SI)(DX*8), Y0
	VADDPD  (R8)(BX*8), Y0, Y0
	VCMPPD  $0x1e, (R10)(BX*8), Y0, Y2
	VMOVUPD 32(SI)(DX*8), Y1
	VADDPD  32(R8)(BX*8), Y1, Y1
	VCMPPD  $0x1e, 32(R10)(BX*8), Y1, Y3
	VORPD   Y2, Y3, Y4
	VPTEST  Y4, Y4
	JNZ     update

next:
	ADDQ    R12, DX
	MOVQ    DX, AX
	SUBQ    DI, AX
	CMOVQCC AX, DX
	ADDQ    $8, BX
	CMPQ    BX, R13
	JLE     loop
	JMP     four_left

update:
	UPDATE(0, 0, Y0, Y2, X2)
	UPDATE(32, 16, Y1, Y3, X3)
	JMP next

four_left:
	// Four more lanes when at least four are left; the phase then only
	// feeds the tail's load, which the table still covers.
	MOVQ      CX, AX
	SUBQ      BX, AX
	CMPQ      AX, $4
	JLT       tail
	VMOVUPD   (SI)(DX*8), Y0
	VADDPD    (R8)(BX*8), Y0, Y0
	VCMPPD    $0x1e, (R10)(BX*8), Y0, Y2
	VMOVMSKPD Y2, AX
	TESTL     AX, AX
	JZ        four_done
	UPDATE(0, 0, Y0, Y2, X2)

four_done:
	ADDQ $4, DX
	ADDQ $4, BX

tail:
	// The last len mod 4 lanes: masked loads and stores.
	MOVQ CX, AX
	SUBQ BX, AX
	JZ   nextcut
	MOVQ $4, R13
	SUBQ AX, R13
	LEAQ relaxTail<>(SB), AX
	VMOVDQU    (AX)(R13*8), Y11
	VMOVUPD    (SI)(DX*8), Y0
	VMASKMOVPD (R8)(BX*8), Y11, Y1
	VADDPD     Y1, Y0, Y0
	VMASKMOVPD (R10)(BX*8), Y11, Y1
	VCMPPD     $0x1e, Y1, Y0, Y2
	VANDPD     Y11, Y2, Y2
	VMOVMSKPD  Y2, AX
	TESTL      AX, AX
	JZ         nextcut
	THR(Y0, Y4)
	VMASKMOVPD Y0, Y2, (R9)(BX*8)
	VMASKMOVPD Y4, Y2, (R10)(BX*8)
	NARROW(Y2, X2, X5)
	VPMASKMOVD X7, X5, (R11)(BX*4)

nextcut:
	// The next cut's right parts start where this cut's end; P, TH and C
	// lose one strip.
	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(DI*8), R9
	LEAQ (R10)(DI*8), R10
	LEAQ (R11)(DI*4), R11
	INCL 248(SP)
	SUBQ DI, CX
	JG   cut

done:
	VZEROUPPER
	RET

// func avx2Supported() bool
TEXT ·avx2Supported(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no

	// Leaf 1: ECX bit 27 (OSXSAVE) and bit 28 (AVX).
	MOVL  $1, AX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   no

	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no

	// Leaf 7 subleaf 0: EBX bit 5 (AVX2).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)

no:
	RET
