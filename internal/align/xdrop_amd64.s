#include "go_asm.h"
#include "textflag.h"

// VEX encodings only, down to the moves from general registers: a single
// legacy-SSE instruction (MOVQ AX, X12 where VMOVD was meant) among the
// VPBROADCASTDs makes every call pay the SSE/AVX state transition, and the
// x=7 kernel as a whole ran ten times slower.

// pruned is the kernel's abandoned-cell sentinel, math.MinInt32/2.
#define pruned $const_pruned

// nocarry in BX says no row is carried in registers: no window start is
// within 1 of it.
#define nocarry $-0x4000000000000000

DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
DATA lanes<>+16(SB)/4, $4
DATA lanes<>+20(SB)/4, $5
DATA lanes<>+24(SB)/4, $6
DATA lanes<>+28(SB)/4, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $32

// VPERMD indices that move a row one lane up (lane k takes lane k-1) and one
// lane down (lane k takes lane k+1). Lane 0 of the first and lane 7 of the
// second are overwritten with pruned after the permute.
DATA laneup<>+0(SB)/4, $0
DATA laneup<>+4(SB)/4, $0
DATA laneup<>+8(SB)/4, $1
DATA laneup<>+12(SB)/4, $2
DATA laneup<>+16(SB)/4, $3
DATA laneup<>+20(SB)/4, $4
DATA laneup<>+24(SB)/4, $5
DATA laneup<>+28(SB)/4, $6
GLOBL laneup<>(SB), RODATA|NOPTR, $32

DATA lanedown<>+0(SB)/4, $1
DATA lanedown<>+4(SB)/4, $2
DATA lanedown<>+8(SB)/4, $3
DATA lanedown<>+12(SB)/4, $4
DATA lanedown<>+16(SB)/4, $5
DATA lanedown<>+20(SB)/4, $6
DATA lanedown<>+24(SB)/4, $7
DATA lanedown<>+28(SB)/4, $7
GLOBL lanedown<>(SB), RODATA|NOPTR, $32

DATA eights<>+0(SB)/4, $8
DATA eights<>+4(SB)/4, $8
DATA eights<>+8(SB)/4, $8
DATA eights<>+12(SB)/4, $8
DATA eights<>+16(SB)/4, $8
DATA eights<>+20(SB)/4, $8
DATA eights<>+24(SB)/4, $8
DATA eights<>+28(SB)/4, $8
GLOBL eights<>(SB), RODATA|NOPTR, $32

// func steadyAVX2(st *front) (exit int)
//
// The loop of advance (xdrop.go), antidiagonal after antidiagonal, until it
// must go back to Go. Row index i+1 holds cell (i, d-i); for the cell in lane
// k of a window starting at lo, up is p1[lo+k], left p1[lo+k+1], diag
// p2[lo+k], and the cell is stored at cur[lo+k+1]. Lanes at or past the
// window's width are computed from whatever lies there and stored as pruned.
//
// What decides the next window (the shrink, the sentinels, a new best) is
// branched on, cell by cell from the row as stored, and deliberately so: the
// predictor then supplies lo and hi to the next antidiagonal before this one
// has been scored. Computed instead (VMOVMSKPS, BSF, BSR: no branch to miss)
// they put the whole antidiagonal on the path to the next one's addresses,
// and the x=7 kernel lost a third.
//
// General registers, for the whole call:
//	DI st            R8  cur          R11 d
//	SI a             R9  p1           R12 lo1, then lo
//	DX brev+m-d      R10 p2           R13 hi1, then hi
//	BX the window start the carried row was scored at, or nocarry
//	AX, CX, R14 scratch
// Vector registers, for the whole call:
//	Y8 prune  Y9 match  Y10 mismatch  Y11 gap  Y12 pruned  Y14 lane numbers
//	Y15 best  Y6 laneup  Y7 lanedown
//	Y3 the row just scored, Y4 the up and Y5 the left it was scored from
//	(meaningful when BX is not nocarry)
TEXT ·steadyAVX2(SB), NOSPLIT, $0-16
	MOVQ st+0(FP), DI
	MOVQ front_cur(DI), R8
	MOVQ front_p1(DI), R9
	MOVQ front_p2(DI), R10
	MOVQ front_a(DI), SI
	MOVQ front_d(DI), R11
	MOVQ front_brev(DI), DX
	ADDQ front_m(DI), DX
	SUBQ R11, DX
	MOVQ front_lo1(DI), R12
	MOVQ front_hi1(DI), R13
	MOVQ nocarry, BX

	VPBROADCASTD front_best(DI), Y15
	VPBROADCASTD front_x(DI), Y2
	VPSUBD       Y2, Y15, Y8
	VPBROADCASTD front_match(DI), Y9
	VPBROADCASTD front_mismatch(DI), Y10
	VPBROADCASTD front_gap(DI), Y11
	MOVL         pruned, AX
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12
	VMOVDQU      lanes<>(SB), Y14
	VMOVDQU      laneup<>(SB), Y6
	VMOVDQU      lanedown<>(SB), Y7

next:
	CMPQ R11, front_stop(DI)
	JGT  stop

	// lo = max(lo1, d-m), hi = min(hi1+1, n), in CX and AX: R12 and R13 keep
	// lo1 and hi1 until this antidiagonal is known to be scored here.
	MOVQ    R11, CX
	SUBQ    front_m(DI), CX
	CMPQ    CX, R12
	CMOVQLT R12, CX
	LEAQ    1(R13), AX
	MOVQ    front_n(DI), R14
	CMPQ    AX, R14
	CMOVQGT R14, AX
	SUBQ    CX, AX
	JLT     dead                 // lo > hi: the window is empty
	INCQ    AX                   // width

	// With vw the width rounded up to 8, the vectors cover a[lo:lo+vw],
	// brev[m-d+lo:][:vw], p1[lo:lo+vw+1], p2[lo:lo+vw] and cur[lo+1:][:vw].
	// Inside the slices means lo+vw <= n+1 and m-d+lo+vw <= m+1: both say
	// lo+vw-1 is at most something.
	LEAQ 7(AX), R14
	ANDQ $-8, R14
	LEAQ -1(CX)(R14*1), R14
	CMPQ R14, front_n(DI)
	JGT  edge
	CMPQ R14, R11
	JGT  edge

	MOVQ CX, R12                  // lo
	LEAQ -1(CX)(AX*1), R13        // hi
	ADDQ AX, front_cells(DI)      // every cell of the window, before it shrinks

	VMOVD        AX, X13
	VPBROADCASTD X13, Y13         // width

	// One vector is the antidiagonal, the previous one was too, and the
	// window start moved by s = 0 or 1: its neighbours are in registers.
	CMPQ AX, $8
	JGT  rows
	SUBQ BX, CX                   // s
	CMPQ CX, $1
	JHI  rows
	MOVQ R12, BX

	VPMOVZXBD (SI)(R12*1), Y0
	VPMOVZXBD (DX)(R12*1), Y1
	VPCMPEQD  Y0, Y1, Y0
	VPBLENDVB Y0, Y9, Y10, Y0     // sub = ai == bj ? match : mismatch
	VPCMPGTD  Y14, Y13, Y13       // k < width
	TESTQ     CX, CX
	JNE       s1

	// s = 0. left is the carried row; up is it one lane up, with the lower
	// sentinel p1[lo] in lane 0; diag is p2[lo+k], the last up.
	VPADDD  Y4, Y0, Y0            // diag + sub
	VPERMD  Y3, Y6, Y4
	VPBLENDD $0x01, Y12, Y4, Y4   // up
	VMOVDQA Y3, Y5                // left
	JMP     cell

s1:
	// s = 1. up is the carried row; left is it one lane down, and lane 7 is
	// p1[lo+8], which is the upper sentinel if it is inside the window at
	// all; diag is p2[lo+k], the last left.
	VPADDD  Y5, Y0, Y0            // diag + sub
	VPERMD  Y3, Y7, Y5
	VPBLENDD $0x80, Y12, Y5, Y5   // left
	VMOVDQA Y3, Y4                // up

cell:
	VPMAXSD   Y4, Y5, Y1          // max(up, left)
	VPADDD    Y11, Y1, Y1         // + gap
	VPMAXSD   Y0, Y1, Y0          // v
	VPCMPGTD  Y0, Y8, Y1          // v < prune
	VPANDN    Y13, Y1, Y1         // keep = k < width && !(v < prune)
	VPBLENDVB Y1, Y0, Y12, Y3     // keep ? v : pruned
	VMOVDQU   Y3, 4(R8)(R12*4)
	VPCMPGTD  Y15, Y3, Y1         // v > best
	VMOVMSKPS Y1, AX
	TESTL     AX, AX
	JEQ       shrink

	// A new best: the row's maximum, in every lane, and the first lane of
	// the row to hold it.
	VPERM2I128   $0x01, Y3, Y3, Y0
	VPMAXSD      Y0, Y3, Y0
	VPSHUFD      $0x4E, Y0, Y1
	VPMAXSD      Y1, Y0, Y0
	VPSHUFD      $0xB1, Y0, Y1
	VPMAXSD      Y1, Y0, Y15
	VPBROADCASTD front_x(DI), Y2
	VPSUBD       Y2, Y15, Y8      // prune = best - x
	VPCMPEQD     Y15, Y3, Y1
	VMOVMSKPS    Y1, CX
	BSFL         CX, CX
	ADDQ         R12, CX
	VMOVD        X15, AX
	MOVL         AX, front_best(DI)
	MOVQ         CX, front_bestI(DI)
	MOVQ         R11, front_bestD(DI)
	JMP          shrink

rows:
	// Any width, neighbours from the rows. After a single vector Y3, Y4 and
	// Y5 are what the next antidiagonal may carry.
	MOVQ    R12, BX
	MOVQ    nocarry, CX
	CMPQ    AX, $8
	CMOVQGT CX, BX
	VMOVDQA Y12, Y6               // running max, in laneup's register
	MOVQ    R12, R14              // i of lane 0
	ADDQ    R12, AX               // one past the window

vector:
	VPMOVZXBD (SI)(R14*1), Y0
	VPMOVZXBD (DX)(R14*1), Y1
	VPCMPEQD  Y0, Y1, Y0
	VPBLENDVB Y0, Y9, Y10, Y0     // sub
	VPADDD    (R10)(R14*4), Y0, Y0 // diag + sub
	VMOVDQU   (R9)(R14*4), Y4     // up
	VMOVDQU   4(R9)(R14*4), Y5    // left
	VPMAXSD   Y4, Y5, Y1
	VPADDD    Y11, Y1, Y1         // + gap
	VPMAXSD   Y0, Y1, Y0          // v
	VPCMPGTD  Y0, Y8, Y1          // v < prune
	VPCMPGTD  Y14, Y13, Y2        // k < what is left of the width
	VPANDN    Y2, Y1, Y1
	VPBLENDVB Y1, Y0, Y12, Y3
	VMOVDQU   Y3, 4(R8)(R14*4)
	VPMAXSD   Y3, Y6, Y6
	VPSUBD    eights<>(SB), Y13, Y13
	ADDQ      $8, R14
	CMPQ      R14, AX
	JLT       vector
	VEXTRACTI128 $1, Y6, X0
	VPMAXSD      X0, X6, X0
	VMOVDQU      laneup<>(SB), Y6
	VPSHUFD $0x4E, X0, X1
	VPMAXSD X1, X0, X0
	VPSHUFD $0xB1, X0, X1
	VPMAXSD X1, X0, X0
	VMOVD   X0, AX
	CMPL    AX, pruned
	JEQ     dead
	CMPL    AX, front_best(DI)
	JLE     shrink

	// A new best: the first cell in ascending i to reach it.
	MOVQ R12, CX

first:
	CMPL AX, 4(R8)(CX*4)
	JEQ  found
	INCQ CX
	JMP  first

found:
	MOVL         AX, front_best(DI)
	MOVQ         CX, front_bestI(DI)
	MOVQ         R11, front_bestD(DI)
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	VPBROADCASTD front_x(DI), Y2
	VPSUBD       Y2, Y15, Y8      // prune = best - x

shrink:
	// To the surviving cells. After a single vector nothing has said yet
	// that one exists.
	CMPL 4(R8)(R12*4), pruned
	JNE  high
	INCQ R12
	CMPQ R12, R13
	JLE  shrink
	JMP  dead

high:
	CMPL 4(R8)(R13*4), pruned
	JNE  sentinels
	DECQ R13
	JMP  high

sentinels:
	// Look before writing. The next antidiagonal may load this row a vector
	// at a time, and a vector load over a narrower store still in flight is
	// not forwarded: it waits for the store to reach the cache. More often
	// than not the sentinel is there already (the window shrank over a
	// pruned cell, or a lane past the width was stored).
	CMPL (R8)(R12*4), pruned
	JEQ  upper
	MOVL pruned, (R8)(R12*4)

upper:
	CMPL 8(R8)(R13*4), pruned
	JEQ  rotate
	MOVL pruned, 8(R8)(R13*4)

rotate:
	MOVQ R10, CX
	MOVQ R9, R10
	MOVQ R8, R9
	MOVQ CX, R8
	INCQ R11
	DECQ DX
	JMP  next

stop:
	MOVQ $const_exitStop, AX
	JMP  done

edge:
	MOVQ $const_exitEdge, AX
	JMP  done

dead:
	MOVQ $const_exitDead, AX

done:
	MOVQ R11, front_d(DI)
	MOVQ R12, front_lo1(DI)
	MOVQ R13, front_hi1(DI)
	VZEROUPPER
	MOVQ AX, exit+8(FP)
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
