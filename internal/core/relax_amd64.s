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

// func relaxRowAVX2(L, R, P, TH []float64, C []int32, cut int32)
//
// Registers: DI K, R8 R, R9 P, R10 TH, R11 C, CX len(P), BX the lane
// index m, DX the phase m mod K, R12 the phase step per 4 lanes (4 mod K
// for K < 4, else 4: one conditional subtraction keeps the phase below
// K), SI the phase table, whose unaligned 4-lane load at the phase is
// the L value of lanes m..m+3. When K is a multiple of 4 a load never
// wraps and the table is L itself; otherwise it is lx on the frame,
// lx[t] = L[t mod K] for t < K+3 (at most 18 words, for K = 15).
TEXT ·relaxRowAVX2(SB), NOSPLIT, $144-124
	MOVQ L_base+0(FP), SI
	MOVQ L_len+8(FP), DI
	MOVQ R_base+24(FP), R8
	MOVQ P_base+48(FP), R9
	MOVQ P_len+56(FP), CX
	MOVQ TH_base+72(FP), R10
	MOVQ C_base+96(FP), R11

	MOVQ $4, R12
	MOVQ DI, AX
	ANDQ $3, AX
	JZ   stepped
	CMPQ DI, $2
	JGT  wrap

	// K = 1 or 2: every 4 lanes start at phase 0.
	XORQ R12, R12
	CMPQ DI, $1
	JNE  two
	VBROADCASTSD (SI), Y0
	JMP  four

two:
	VBROADCASTF128 (SI), Y0

four:
	VMOVUPD Y0, (SP)
	MOVQ    SP, SI
	JMP     stepped

wrap:
	XORQ BX, BX
	XORQ DX, DX
	LEAQ 3(DI), R13

fill:
	MOVQ (SI)(DX*8), AX
	MOVQ AX, (SP)(BX*8)
	INCQ DX
	CMPQ DX, DI
	JNE  nowrap
	XORQ DX, DX

nowrap:
	INCQ BX
	CMPQ BX, R13
	JLT  fill
	MOVQ SP, SI
	CMPQ DI, $3
	JNE  stepped
	MOVQ $1, R12

stepped:
	XORQ BX, BX
	XORQ DX, DX
	LEAQ -4(CX), R13
	CMPQ BX, R13
	JGT  tail

loop:
	// v = L + R; mask = v > TH (ordered: a NaN never improves).
	VMOVUPD   (SI)(DX*8), Y0
	VADDPD    (R8)(BX*8), Y0, Y0
	VCMPPD    $0x1e, (R10)(BX*8), Y0, Y2
	VMOVMSKPD Y2, AX
	TESTL     AX, AX
	JNZ       update

next:
	ADDQ    R12, DX
	MOVQ    DX, AX
	SUBQ    DI, AX
	CMOVQCC AX, DX
	ADDQ    $4, BX
	CMPQ    BX, R13
	JLE     loop
	JMP     tail

update:
	// P = mask ? v : P
	VMOVUPD   (R9)(BX*8), Y3
	VBLENDVPD Y2, Y0, Y3, Y3
	VMOVUPD   Y3, (R9)(BX*8)

	// TH = mask ? v + float64(eps·(1+|v|)) : TH
	VANDPD    relaxAbs<>(SB), Y0, Y4
	VADDPD    relaxOne<>(SB), Y4, Y4
	VMULPD    relaxEps<>(SB), Y4, Y4
	VADDPD    Y0, Y4, Y4
	VMOVUPD   (R10)(BX*8), Y1
	VBLENDVPD Y2, Y4, Y1, Y1
	VMOVUPD   Y1, (R10)(BX*8)

	// C = mask ? cut : C, with the mask narrowed to 32-bit lanes.
	VEXTRACTF128 $1, Y2, X5
	VSHUFPS      $0x88, X5, X2, X5
	MOVL         cut+120(FP), AX
	VMOVD        AX, X7
	VPBROADCASTD X7, X7
	VMOVDQU      (R11)(BX*4), X6
	VBLENDVPS    X5, X7, X6, X6
	VMOVDQU      X6, (R11)(BX*4)
	JMP          next

tail:
	// The last len(P) mod 4 lanes: masked loads and stores.
	MOVQ CX, AX
	SUBQ BX, AX
	JZ   done
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
	JZ         done

	VANDPD       relaxAbs<>(SB), Y0, Y4
	VADDPD       relaxOne<>(SB), Y4, Y4
	VMULPD       relaxEps<>(SB), Y4, Y4
	VADDPD       Y0, Y4, Y4
	VMASKMOVPD   Y0, Y2, (R9)(BX*8)
	VMASKMOVPD   Y4, Y2, (R10)(BX*8)
	VEXTRACTF128 $1, Y2, X5
	VSHUFPS      $0x88, X5, X2, X5
	MOVL         cut+120(FP), AX
	VMOVD        AX, X7
	VPBROADCASTD X7, X7
	VPMASKMOVD   X7, X5, (R11)(BX*4)

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
