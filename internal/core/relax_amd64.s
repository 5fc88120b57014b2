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

// The opmask of the first r lanes, for r = 0..8.
DATA relaxMask<>+0(SB)/1, $0x00
DATA relaxMask<>+1(SB)/1, $0x01
DATA relaxMask<>+2(SB)/1, $0x03
DATA relaxMask<>+3(SB)/1, $0x07
DATA relaxMask<>+4(SB)/1, $0x0f
DATA relaxMask<>+5(SB)/1, $0x1f
DATA relaxMask<>+6(SB)/1, $0x3f
DATA relaxMask<>+7(SB)/1, $0x7f
DATA relaxMask<>+8(SB)/1, $0xff
GLOBL relaxMask<>(SB), RODATA|NOPTR, $16

// The lane numbers 0..7 as int64 lanes.
DATA relaxLanes<>+0(SB)/8, $0
DATA relaxLanes<>+8(SB)/8, $1
DATA relaxLanes<>+16(SB)/8, $2
DATA relaxLanes<>+24(SB)/8, $3
DATA relaxLanes<>+32(SB)/8, $4
DATA relaxLanes<>+40(SB)/8, $5
DATA relaxLanes<>+48(SB)/8, $6
DATA relaxLanes<>+56(SB)/8, $7
GLOBL relaxLanes<>(SB), RODATA|NOPTR, $64

// THRZ is THR on eight lanes, Z13..Z15 holding the |x| mask, 1.0 and eps.
#define THRZ(v, t) \
	VPANDQ Z13, v, t; \
	VADDPD Z14, t, t; \
	VMULPD Z15, t, t; \
	VADDPD v, t, t

// UPDATEZ stores, in the lanes of opmask k, P = v, TH = improveThr(v)
// (into scratch t) and C = cut (Y7) for the eight lanes at byte offset
// o8 of P and TH (o4 of C) from lane BX.
#define UPDATEZ(o8, o4, v, t, k) \
	VMOVUPD   v, k, o8(R9)(BX*8); \
	THRZ(v, t); \
	VMOVUPD   t, k, o8(R10)(BX*8); \
	VMOVDQU32 Y7, k, o4(R11)(BX*4)

// SCAN16 offers v = L + R to the sixteen lanes from BX, la and lb the L
// values of the first and second eight: Z0 and Z1 are v, K1 and K2 the
// lanes where v > TH, and ZF is clear when any lane improves.
#define SCAN16(la, lb) \
	VADDPD   (R8)(BX*8), la, Z0; \
	VCMPPD   $0x1e, (R10)(BX*8), Z0, K1; \
	VADDPD   64(R8)(BX*8), lb, Z1; \
	VCMPPD   $0x1e, 64(R10)(BX*8), Z1, K2; \
	KORTESTB K1, K2

// func relaxRowAVX512(p, q, g, l, tri, th []float64, c []int32, kids []float64, childOffs []int, i int)
//
// relaxRowAVX2's algorithm on eight lanes per ZMM step, opmasks in
// place of masked moves and blends. The frame holds the lane tables
// ptab (0(SP)) and qtab (128(SP)), p and q zero-padded to 16 words, and
// at 256(SP) the int32 strip offsets t/K of lanes t = 0..7; the
// temporal phase reuses 0..239(SP) as the L wrap table and 288(SP) as
// the cut counter. K3 holds the first min(K, 8) lanes and K4 the first
// K − 8 (none for K ≤ 8): the lanes of a strip's two eights.
TEXT ·relaxRowAVX512(SB), NOSPLIT, $296-224
	MOVQ    p_base+0(FP), SI
	MOVQ    p_len+8(FP), DI
	MOVQ    q_base+24(FP), R8
	LEAQ    relaxMask<>(SB), R9
	MOVQ    $8, R10
	MOVQ    DI, AX
	CMPQ    AX, R10
	CMOVQGT R10, AX
	KMOVB   (R9)(AX*1), K3
	MOVQ    DI, AX
	SUBQ    R10, AX
	XORQ    R10, R10
	CMPQ    AX, R10
	CMOVQLT R10, AX
	KMOVB   (R9)(AX*1), K4
	VMOVUPD.Z    (SI), K3, Z0
	VMOVUPD      Z0, (SP)
	VMOVUPD.Z    64(SI), K4, Z0
	VMOVUPD      Z0, 64(SP)
	VMOVUPD.Z    (R8), K3, Z0
	VMOVUPD      Z0, 128(SP)
	VMOVUPD.Z    64(R8), K4, Z0
	VMOVUPD      Z0, 192(SP)
	VBROADCASTSD relaxAbs<>(SB), Z13
	VBROADCASTSD relaxOne<>(SB), Z14
	VBROADCASTSD relaxEps<>(SB), Z15

	// Phases 1 and 2, eight lanes per step. Registers: DI K, BX the lane
	// index m, SI..R8 the child offsets, R9 the child cursor, R10 P, R11
	// TH, R12 C, R13 kids; Z8 and Z9 the lanes' g and l, Z11 and Z12 their
	// p and q, Y6 their no-cut C and K1 the step's lanes: all eight when
	// K is a multiple of 8, fewer only in a partial strip and at the end
	// of a row with K < 8, so no load or store reaches past the row.
	// When 8 mod K = 0 (K = 1, 2, 4 or 8) a step is 8/K whole strips: CX
	// is log2 K, Z7 and Z5 are t/K and t mod K, and DX is −1. Otherwise a
	// strip takes one or two steps: CX is the strip s, DX the offset of
	// its eight lanes.
	MOVQ childOffs_base+192(FP), SI
	MOVQ childOffs_len+200(FP), R8
	LEAQ (SI)(R8*8), R8
	MOVQ tri_base+96(FP), R10
	MOVQ th_base+120(FP), R11
	MOVQ c_base+144(FP), R12
	MOVQ kids_base+168(FP), R13
	XORQ BX, BX
	XORQ CX, CX
	CMPQ DI, $8
	JGT  strip
	LEAQ -1(DI), AX
	TESTQ DI, AX
	JNZ  strip
	BSFQ      DI, CX
	VMOVQ     CX, X0
	VMOVDQU64 relaxLanes<>(SB), Z6
	VPSRLQ    X0, Z6, Z7
	VPSLLQ    X0, Z7, Z5
	VPSUBQ    Z5, Z6, Z5
	VPMOVQD   Z7, Y0
	VMOVDQU   Y0, 256(SP)
	VPERMPD   (SP), Z5, Z11
	VPERMPD   128(SP), Z5, Z12
	MOVQ      $-1, DX

tiled:
	// Lanes m..m+7 (fewer at the row's end) of strips s = m/K onward.
	MOVQ      th_len+128(FP), AX
	SUBQ      BX, AX
	JLE       cuts
	MOVQ      $8, R9
	CMPQ      AX, R9
	CMOVQGT   R9, AX
	LEAQ      relaxMask<>(SB), R9
	KMOVB     (R9)(AX*1), K1
	SHRQ      CX, AX
	KMOVB     (R9)(AX*1), K2
	MOVQ      BX, AX
	SHRQ      CX, AX
	MOVQ      g_base+48(FP), R9
	VMOVUPD.Z (R9)(AX*8), K2, Z8
	VPERMPD   Z8, Z7, Z8
	MOVQ      l_base+72(FP), R9
	VMOVUPD.Z (R9)(AX*8), K2, Z9
	VPERMPD   Z9, Z7, Z9
	ADDQ         i+216(FP), AX
	VMOVD        AX, X6
	VPBROADCASTD X6, Y6
	VPADDD       256(SP), Y6, Y6
	JMP          core

strip:
	// K ∤ 8: broadcast strip s's g, l and cut j = i+s to all lanes.
	CMPQ         CX, g_len+56(FP)
	JEQ          cuts
	MOVQ         g_base+48(FP), AX
	VBROADCASTSD (AX)(CX*8), Z8
	MOVQ         l_base+72(FP), AX
	VBROADCASTSD (AX)(CX*8), Z9
	MOVQ         i+216(FP), AX
	ADDQ         CX, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10
	XORQ         DX, DX
	KMOVB        K3, K1

half:
	VMOVUPD   (SP)(DX*8), Z11
	VMOVUPD   128(SP)(DX*8), Z12
	VMOVDQA32 Y10, Y6

core:
	// P = p·g − q·l, rounded after each multiply; TH = improveThr(P).
	VMULPD Z11, Z8, Z0
	VMULPD Z12, Z9, Z1
	VSUBPD Z1, Z0, Z0
	THRZ(Z0, Z2)
	CMPQ   SI, R8
	JEQ    store

	// Spatial: the children's strips summed in order from +0, then
	// P, TH, C = sum, improveThr(sum), CutSpatial where sum > TH.
	VPXORQ Z3, Z3, Z3
	MOVQ   SI, R9

kid:
	MOVQ      (R9), AX
	IMULQ     DI, AX
	ADDQ      BX, AX
	VMOVUPD.Z (R13)(AX*8), K1, Z4
	VADDPD    Z4, Z3, Z3
	ADDQ      $8, R9
	CMPQ      R9, R8
	JNE       kid
	VCMPPD    $0x1e, Z2, Z3, K1, K2
	VMOVAPD   Z3, K2, Z0
	THRZ(Z3, Z4)
	VMOVAPD   Z4, K2, Z2
	VMOVDQU32 relaxTail<>(SB), K2, Y6 // CutSpatial: −1, all bits set

store:
	VMOVUPD   Z0, K1, (R10)(BX*8)
	VMOVUPD   Z2, K1, (R11)(BX*8)
	VMOVDQU32 Y6, K1, (R12)(BX*4)
	ADDQ      $8, BX
	TESTQ     DX, DX
	JS        tiled

	// The strip's second eight lanes, or the next strip.
	ADDQ  $8, DX
	CMPQ  DX, DI
	JGE   nextstrip
	KMOVB K4, K1
	JMP   half

nextstrip:
	INCQ  CX
	MOVQ  CX, BX
	IMULQ DI, BX
	JMP   strip

cuts:
	// Phase 3: for each cut, v = L + R over the cells (i, j>cut) of P, TH
	// and C; where v > TH (ordered: a NaN never improves) store P = v,
	// TH = improveThr(v) and C = cut. Sixteen lanes per step, one branch
	// on both eights' masks, then at most one eight and a masked tail.
	// Registers: DI K, R8 R (row cut+1), R9 P, R10 TH, R11 C (the strips
	// after L), CX their length, BX the lane index m, R13 the last m of a
	// full step, Y7 the cut broadcast; Z8 and Z9 hold the L values of
	// lanes m..m+7 and m+8..m+15. For K = 16 they are L's two halves and
	// when 8 mod K = 0 both are L tiled by Z5, for every step. Otherwise
	// they are loaded per step from the wrap table lx[t] = L[t mod K],
	// t < K+15 (at most 30 words, for K = 15), at the phase DX = m mod K
	// and DX+8; R12 is the phase step 16 mod K (one conditional
	// subtraction keeps the phase below K).
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
	MOVL AX, 288(SP)
	MOVQ $16, AX
	XORQ DX, DX
	DIVQ DI
	MOVQ DX, R12

cut:
	MOVL         288(SP), AX
	VMOVD        AX, X7
	VPBROADCASTD X7, Y7
	MOVQ         DI, AX
	SHLQ         $3, AX
	MOVQ         R9, SI
	SUBQ         AX, SI
	CMPQ         DI, $16
	JEQ          halves
	CMPQ         DI, $8
	JGT          wrap
	LEAQ         -1(DI), AX
	TESTQ        DI, AX
	JNZ          wrap
	VMOVUPD.Z    (SI), K3, Z8
	VPERMPD      Z8, Z5, Z8
	VMOVAPD      Z8, Z9
	JMP          scan

halves:
	VMOVUPD (SI), Z8
	VMOVUPD 64(SI), Z9

scan:
	XORQ BX, BX
	LEAQ -16(CX), R13
	CMPQ BX, R13
	JGT  rest

loop:
	SCAN16(Z8, Z9)
	JNZ update

next:
	ADDQ $16, BX
	CMPQ BX, R13
	JLE  loop
	JMP  rest

update:
	UPDATEZ(0, 0, Z0, Z4, K1)
	UPDATEZ(64, 32, Z1, Z4, K2)
	JMP next

wrap:
	// lx = L (K words, zero-padded to 16), then lx[t] = lx[t−K] for
	// t = K..K+14.
	VMOVUPD.Z (SI), K3, Z0
	VMOVUPD   Z0, (SP)
	VMOVUPD.Z 64(SI), K4, Z0
	VMOVUPD   Z0, 64(SP)
	MOVQ      DI, BX
	XORQ      DX, DX

refill:
	MOVQ (SP)(DX*8), AX
	MOVQ AX, (SP)(BX*8)
	INCQ BX
	INCQ DX
	CMPQ DX, $15
	JLT  refill
	XORQ BX, BX
	XORQ DX, DX
	LEAQ -16(CX), R13
	CMPQ BX, R13
	JGT  wraprest

wraploop:
	VMOVUPD (SP)(DX*8), Z8
	VMOVUPD 64(SP)(DX*8), Z9
	SCAN16(Z8, Z9)
	JNZ     wrapupdate

wrapnext:
	ADDQ    R12, DX
	MOVQ    DX, AX
	SUBQ    DI, AX
	CMOVQCC AX, DX
	ADDQ    $16, BX
	CMPQ    BX, R13
	JLE     wraploop

wraprest:
	VMOVUPD (SP)(DX*8), Z8
	VMOVUPD 64(SP)(DX*8), Z9
	JMP     rest

wrapupdate:
	UPDATEZ(0, 0, Z0, Z4, K1)
	UPDATEZ(64, 32, Z1, Z4, K2)
	JMP wrapnext

rest:
	// Fewer than sixteen lanes left: eight more with Z8 when there are
	// eight (Z9 then holds the next lanes' L), then the last len mod 8
	// under an opmask.
	MOVQ     CX, AX
	SUBQ     BX, AX
	CMPQ     AX, $8
	JLT      tail
	VADDPD   (R8)(BX*8), Z8, Z0
	VCMPPD   $0x1e, (R10)(BX*8), Z0, K1
	KORTESTB K1, K1
	JZ       eight
	UPDATEZ(0, 0, Z0, Z4, K1)

eight:
	VMOVAPD Z9, Z8
	ADDQ    $8, BX
	SUBQ    $8, AX

tail:
	TESTQ     AX, AX
	JZ        nextcut
	LEAQ      relaxMask<>(SB), R13
	KMOVB     (R13)(AX*1), K5
	VMOVUPD.Z (R8)(BX*8), K5, Z0
	VADDPD    Z0, Z8, Z0
	VMOVUPD.Z (R10)(BX*8), K5, Z1
	VCMPPD    $0x1e, Z1, Z0, K5, K1
	KORTESTB  K1, K1
	JZ        nextcut
	UPDATEZ(0, 0, Z0, Z4, K1)

nextcut:
	// The next cut's right parts start where this cut's end; P, TH and C
	// lose one strip.
	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(DI*8), R9
	LEAQ (R10)(DI*8), R10
	LEAQ (R11)(DI*4), R11
	INCL 288(SP)
	SUBQ DI, CX
	JG   cut

done:
	VZEROUPPER
	RET

// func cpuKernel() kernelLevel
TEXT ·cpuKernel(SB), NOSPLIT, $0-8
	MOVQ $0, ret+0(FP) // kernelGo
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
	MOVL   AX, R8
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no

	// Leaf 7 subleaf 0: EBX bit 5 (AVX2).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVQ $1, ret+0(FP) // kernelAVX2

	// AVX-512: EBX bits 16 (F), 17 (DQ) and 31 (VL), and XCR0 bits 5–7:
	// the OS saves the opmask registers and all of ZMM0–31.
	ANDL $0x80030000, BX
	CMPL BX, $0x80030000
	JNE  no
	ANDL $0xe0, R8
	CMPL R8, $0xe0
	JNE  no
	MOVQ $2, ret+0(FP) // kernelAVX512

no:
	RET
