#include "textflag.h"

// VEX encodings only, down to the moves from general registers: a single
// legacy-SSE instruction (MOVQ AX, X12 where VMOVD was meant) among the
// VPBROADCASTDs makes every call pay the SSE/AVX state transition, and the
// x=7 kernel as a whole ran ten times slower.

// pruned is the kernel's abandoned-cell sentinel, math.MinInt32/2.
#define pruned $-0x40000000

DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
DATA lanes<>+16(SB)/4, $4
DATA lanes<>+20(SB)/4, $5
DATA lanes<>+24(SB)/4, $6
DATA lanes<>+28(SB)/4, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $32

// func antidiagonalAVX2(c, p1, p2 *int32, ai, bj *byte, width int, k *[4]int32) int32
//
// The Go loop of antidiagonal, eight cells a step. For the cell at c[k]:
// up is p1[k], left p1[k+1], diag p2[k]; k holds prune, match, mismatch and
// gap. Lanes in [width, vw), vw being width rounded up to 8, are computed
// from whatever lies there and stored as pruned.
TEXT ·antidiagonalAVX2(SB), NOSPLIT, $0-60
	MOVQ c+0(FP), DI
	MOVQ p1+8(FP), SI
	MOVQ p2+16(FP), DX
	MOVQ ai+24(FP), R8
	MOVQ bj+32(FP), R9
	MOVQ width+40(FP), CX

	MOVQ         k+48(FP), AX
	VPBROADCASTD 0(AX), Y8         // prune
	VPBROADCASTD 4(AX), Y9         // match
	VPBROADCASTD 8(AX), Y10        // mismatch
	VPBROADCASTD 12(AX), Y11       // gap
	MOVL         pruned, AX
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12          // pruned
	VMOVD        CX, X13
	VPBROADCASTD X13, Y13          // width
	VMOVDQU      lanes<>(SB), Y14  // k of each lane
	MOVL         $8, AX
	VMOVD        AX, X7
	VPBROADCASTD X7, Y7
	VMOVDQA      Y12, Y15          // running max
	XORQ         BX, BX            // k of lane 0

loop:
	VPMOVZXBD (R8)(BX*1), Y0
	VPMOVZXBD (R9)(BX*1), Y1
	VPCMPEQD  Y0, Y1, Y0
	VPBLENDVB Y0, Y9, Y10, Y0      // sub = ai == bj ? match : mismatch
	VPADDD    (DX)(BX*4), Y0, Y0   // diag + sub
	VMOVDQU   (SI)(BX*4), Y1       // up
	VPMAXSD   4(SI)(BX*4), Y1, Y1  // max(up, left)
	VPADDD    Y11, Y1, Y1          // + gap
	VPMAXSD   Y0, Y1, Y0           // v
	VPCMPGTD  Y0, Y8, Y1           // v < prune
	VPCMPGTD  Y14, Y13, Y2         // k < width
	VPANDN    Y2, Y1, Y1           // keep = k < width && !(v < prune)
	VPBLENDVB Y1, Y0, Y12, Y0      // keep ? v : pruned
	VMOVDQU   Y0, (DI)(BX*4)
	VPMAXSD   Y0, Y15, Y15
	VPADDD    Y7, Y14, Y14
	ADDQ      $8, BX
	CMPQ      BX, CX
	JLT       loop

	VEXTRACTI128 $1, Y15, X0
	VPMAXSD      X0, X15, X0
	VPSHUFD      $0x4E, X0, X1
	VPMAXSD      X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPMAXSD      X1, X0, X0
	VMOVD        X0, AX
	VZEROUPPER
	MOVL         AX, ret+56(FP)
	RET

// func cpuHasAVX2() bool
//
// AVX2 is usable when the CPU has it (leaf 7 EBX bit 5) and AVX (leaf 1 ECX
// bit 28), and the OS saves the YMM state: OSXSAVE (leaf 1 ECX bit 27) and
// XCR0 bits 1 and 2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX
	JCC   no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
