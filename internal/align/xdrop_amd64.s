#include "go_asm.h"
#include "textflag.h"

// VEX encodings only, down to the moves from general registers: a single
// legacy-SSE instruction (MOVQ AX, X12 where VMOVD was meant) among the
// broadcasts makes every call pay the SSE/AVX state transition, and the x=7
// kernel as a whole ran ten times slower.

// pruned is the abandoned-cell sentinel of the narrow rows, math.MinInt16.
#define pruned $const_narrowPruned

// nocarry in BX says no row is carried in registers: no window start is
// within 1 of it.
#define nocarry $-0x4000000000000000

// Sixteen words of math.MaxInt16, then sixteen of math.MinInt16: the 32
// bytes at 2·(-w&15), taken as a lane-wise upper bound, prune the lanes past
// the last vector of a window w cells wide and leave the others be.
DATA tailbound<>+0(SB)/8, $0x7fff7fff7fff7fff
DATA tailbound<>+8(SB)/8, $0x7fff7fff7fff7fff
DATA tailbound<>+16(SB)/8, $0x7fff7fff7fff7fff
DATA tailbound<>+24(SB)/8, $0x7fff7fff7fff7fff
DATA tailbound<>+32(SB)/8, $-0x7fff7fff7fff8000
DATA tailbound<>+40(SB)/8, $-0x7fff7fff7fff8000
DATA tailbound<>+48(SB)/8, $-0x7fff7fff7fff8000
DATA tailbound<>+56(SB)/8, $-0x7fff7fff7fff8000
GLOBL tailbound<>(SB), RODATA|NOPTR, $64

// VPSHUFB indices that swap the two words of every doubleword.
DATA swapwords<>+0(SB)/8, $0x0504070601000302
DATA swapwords<>+8(SB)/8, $0x0d0c0f0e09080b0a
DATA swapwords<>+16(SB)/8, $0x0504070601000302
DATA swapwords<>+24(SB)/8, $0x0d0c0f0e09080b0a
GLOBL swapwords<>(SB), RODATA|NOPTR, $32

// func steadyAVX2(st *front) (exit int)
//
// The loop of advance (xdrop.go), antidiagonal after antidiagonal, until it
// must go back to Go, over the narrow rows: a cell is its score less
// front.base, in int16, and pruned is math.MinInt16. Row index i+1 holds cell
// (i, d-i); for the cell in lane k of a window starting at lo, up is
// p1[lo+k], left p1[lo+k+1], diag p2[lo+k], and the cell is stored at
// cur[lo+k+1]. Lanes at or past the window's width are computed from whatever
// lies there and stored as pruned. Adds saturate, so a cell fed only by
// pruned neighbours lands at most maxAbs above pruned, under the prune
// threshold; best-base stays at or below ceil while an antidiagonal is
// scored, so no live cell saturates, and a new best above ceil rebases.
//
// What decides the next window (the shrink, the sentinels, a new best) is
// branched on, cell by cell from the row as stored, and deliberately so: the
// predictor then supplies lo and hi to the next antidiagonal before this one
// has been scored. Computed instead (VPMOVMSKB, BSF, BSR: no branch to miss)
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
//	Y7 x  Y8 prune  Y9 match-mismatch  Y10 mismatch  Y11 gap  Y12 pruned
//	Y14 math.MaxInt16  Y15 best-base
//	(front.best is written back on the way out)
//	Y3 the row just scored, Y4 the up and Y5 the left it was scored from
//	(meaningful when BX is not nocarry)
//	Y13 the bound of the window's last vector (tailbound)
//
// A cell is stored as min(v, (v < prune) XOR MaxInt16), the compare's mask
// turned into pruned or MaxInt16, and in the last vector min'd with Y13 too;
// the substitution score is mismatch + (ai == bj AND match-mismatch). Each is
// one micro-operation an instruction where VPBLENDVB is three, and the x=7
// rungs ran 3-4% faster for it on a Sapphire Rapids Xeon.
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

	MOVL         front_best(DI), AX
	SUBL         front_base(DI), AX
	VMOVD        AX, X15
	VPBROADCASTW X15, Y15
	VPBROADCASTW front_x(DI), Y7
	VPSUBW       Y7, Y15, Y8      // prune = best - x: x may not fit, the difference does
	VPBROADCASTW front_match(DI), Y9
	VPBROADCASTW front_mismatch(DI), Y10
	VPSUBW       Y10, Y9, Y9
	VPBROADCASTW front_gap(DI), Y11
	MOVL         pruned, AX
	VMOVD        AX, X12
	VPBROADCASTW X12, Y12
	VPCMPEQW     Y14, Y14, Y14
	VPSRLW       $1, Y14, Y14     // 0x7fff

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

	// With vw the width rounded up to 16, the vectors cover a[lo:lo+vw],
	// brev[m-d+lo:][:vw], p1[lo:lo+vw+1], p2[lo:lo+vw] and cur[lo+1:][:vw].
	// Inside the views means lo+vw-1 <= alast and m-d+lo+vw-1 <= m+bpad, and
	// the narrow rows are as long as alast allows.
	LEAQ 15(AX), R14
	ANDQ $-16, R14
	LEAQ -1(CX)(R14*1), R14
	CMPQ R14, front_alast(DI)
	JGT  edge
	SUBQ front_bpad(DI), R14
	CMPQ R14, R11
	JGT  edge

	MOVQ CX, R12                  // lo
	LEAQ -1(CX)(AX*1), R13        // hi
	ADDQ AX, front_cells(DI)      // every cell of the window, before it shrinks

	MOVQ    AX, CX
	NEGQ    CX
	ANDQ    $15, CX
	LEAQ    tailbound<>(SB), R14
	VMOVDQU (R14)(CX*2), Y13      // the bound of the window's last vector

	// One vector is the antidiagonal, the previous one was too, and the
	// window start moved by s = 0 or 1: its neighbours are in registers.
	CMPQ AX, $16
	JGT  rows
	MOVQ R12, CX
	SUBQ BX, CX                   // s
	CMPQ CX, $1
	JHI  rows
	MOVQ R12, BX

	VPMOVZXBW (SI)(R12*1), Y0
	VPMOVZXBW (DX)(R12*1), Y1
	VPCMPEQW  Y0, Y1, Y0
	VPAND     Y9, Y0, Y0
	VPADDW    Y10, Y0, Y0         // sub = ai == bj ? match : mismatch
	TESTQ     CX, CX
	JNE       s1

	// s = 0. left is the carried row; up is it one lane up, with the lower
	// sentinel p1[lo] in lane 0; diag is p2[lo+k], the last up.
	VPADDSW    Y4, Y0, Y0         // diag + sub
	VPERM2I128 $0x02, Y12, Y3, Y1 // pruned, then the row's low half
	VPALIGNR   $14, Y1, Y3, Y4    // up
	VMOVDQA    Y3, Y5             // left
	JMP        cell

s1:
	// s = 1. up is the carried row; left is it one lane down, and lane 15 is
	// p1[lo+16], which is the upper sentinel if it is inside the window at
	// all; diag is p2[lo+k], the last left.
	VPADDSW    Y5, Y0, Y0         // diag + sub
	VPERM2I128 $0x21, Y12, Y3, Y1 // the row's high half, then pruned
	VPALIGNR   $2, Y3, Y1, Y5     // left
	VMOVDQA    Y3, Y4             // up

cell:
	VPMAXSW   Y4, Y5, Y1          // max(up, left)
	VPADDSW   Y11, Y1, Y1         // + gap
	VPMAXSW   Y0, Y1, Y0          // v
	VPCMPGTW  Y0, Y8, Y1          // v < prune
	VPMINSW   Y13, Y0, Y0         // past the window: pruned
	VPXOR     Y14, Y1, Y1         // v < prune ? pruned : MaxInt16
	VPMINSW   Y1, Y0, Y3
	VMOVDQU   Y3, 2(R8)(R12*2)
	VPCMPGTW  Y15, Y3, Y1         // v > best
	VPMOVMSKB Y1, AX
	TESTL     AX, AX
	JEQ       shrink

	// A new best: the row's maximum, in every lane, and the mask of the
	// lanes holding it.
	VPERM2I128 $0x01, Y3, Y3, Y0
	VPMAXSW    Y0, Y3, Y0
	VPSHUFD    $0x4E, Y0, Y1
	VPMAXSW    Y1, Y0, Y0
	VPSHUFD    $0xB1, Y0, Y1
	VPMAXSW    Y1, Y0, Y0
	VPSHUFB    swapwords<>(SB), Y0, Y1
	VPMAXSW    Y1, Y0, Y15
	VPSUBW     Y7, Y15, Y8        // prune = best - x
	VPCMPEQW   Y15, Y3, Y1
	VPMOVMSKB  Y1, AX
	MOVQ       R12, CX
	JMP        found

rows:
	// Any width, neighbours from the rows, the last vector masked by Y13.
	// After a single vector Y3, Y4 and Y5 are what the next antidiagonal may
	// carry.
	MOVQ    R12, BX
	MOVQ    nocarry, CX
	CMPQ    AX, $16
	CMOVQGT CX, BX
	VMOVDQA Y12, Y6               // running max
	MOVQ    R12, R14              // i of lane 0
	ADDQ    R12, AX               // one past the window

vector:
	VPMOVZXBW (SI)(R14*1), Y0
	VPMOVZXBW (DX)(R14*1), Y1
	VPCMPEQW  Y0, Y1, Y0
	VPAND     Y9, Y0, Y0
	VPADDW    Y10, Y0, Y0         // sub
	VPADDSW   (R10)(R14*2), Y0, Y0 // diag + sub
	VMOVDQU   (R9)(R14*2), Y4     // up
	VMOVDQU   2(R9)(R14*2), Y5    // left
	VPMAXSW   Y4, Y5, Y1
	VPADDSW   Y11, Y1, Y1         // + gap
	VPMAXSW   Y0, Y1, Y0          // v
	VPCMPGTW  Y0, Y8, Y1          // v < prune
	VPXOR     Y14, Y1, Y1         // v < prune ? pruned : MaxInt16
	LEAQ      16(R14), CX
	CMPQ      CX, AX
	JGE       last
	VPMINSW   Y1, Y0, Y3
	VMOVDQU   Y3, 2(R8)(R14*2)
	VPMAXSW   Y3, Y6, Y6
	MOVQ      CX, R14
	JMP       vector

last:
	VPMINSW      Y13, Y0, Y0      // past the window: pruned
	VPMINSW      Y1, Y0, Y3
	VMOVDQU      Y3, 2(R8)(R14*2)
	VPMAXSW      Y3, Y6, Y6
	VPCMPGTW     Y15, Y6, Y1      // v > best, in some vector
	VPMOVMSKB    Y1, AX
	TESTL        AX, AX
	JEQ          shrink

	// A new best: the window's maximum in every lane, and the first vector
	// to hold it.
	VPERM2I128 $0x01, Y6, Y6, Y0
	VPMAXSW    Y0, Y6, Y0
	VPSHUFD    $0x4E, Y0, Y1
	VPMAXSW    Y1, Y0, Y0
	VPSHUFD    $0xB1, Y0, Y1
	VPMAXSW    Y1, Y0, Y0
	VPSHUFB    swapwords<>(SB), Y0, Y1
	VPMAXSW    Y1, Y0, Y15
	VPSUBW     Y7, Y15, Y8        // prune = best - x
	MOVQ       R12, CX

first:
	VPCMPEQW  2(R8)(CX*2), Y15, Y1
	VPMOVMSKB Y1, AX
	TESTL     AX, AX
	JNE       found
	ADDQ      $16, CX
	JMP       first

found:
	// The mask of the cells holding best in AX, the first of them in CX.
	BSFL    AX, AX
	SHRL    $1, AX
	ADDQ    AX, CX
	MOVQ    CX, front_bestI(DI)
	MOVQ    R11, front_bestD(DI)
	VMOVD   X15, AX
	MOVWLSX AX, AX
	CMPL    AX, front_ceil(DI)
	JLE     shrink

	// Rebase: best-base down to floor, or by 32767 if that is less (the
	// most one saturating subtraction moves), in front.base, the registers
	// and every cell the next antidiagonal can read, which is d's vectors and
	// d-1 from lo to the end of them. Saturating, so pruned stays pruned.
rebase:
	SUBL         front_floor(DI), AX
	MOVL         $0x7fff, CX
	CMPL         AX, CX
	CMOVLGT      CX, AX
	ADDL         AX, front_base(DI)
	VMOVD        AX, X2
	VPBROADCASTW X2, Y2
	VPSUBW       Y2, Y15, Y15
	VPSUBW       Y2, Y8, Y8
	VPSUBSW      Y2, Y3, Y3
	VPSUBSW      Y2, Y4, Y4
	VPSUBSW      Y2, Y5, Y5
	MOVQ         R12, R14
	MOVWLSX      (R9)(R12*2), CX
	CMPL         CX, pruned
	JEQ          rebasevector
	SUBL         AX, CX
	MOVW         CX, (R9)(R12*2)

rebasevector:
	VMOVDQU 2(R8)(R14*2), Y0
	VPSUBSW Y2, Y0, Y0
	VMOVDQU Y0, 2(R8)(R14*2)
	VMOVDQU 2(R9)(R14*2), Y0
	VPSUBSW Y2, Y0, Y0
	VMOVDQU Y0, 2(R9)(R14*2)
	ADDQ    $16, R14
	CMPQ    R14, R13
	JLE     rebasevector

shrink:
	// To the surviving cells. After a single vector nothing has said yet
	// that one exists.
	CMPW 2(R8)(R12*2), pruned
	JNE  high
	INCQ R12
	CMPQ R12, R13
	JLE  shrink
	JMP  dead

high:
	CMPW 2(R8)(R13*2), pruned
	JNE  sentinels
	DECQ R13
	JMP  high

sentinels:
	// Look before writing. The next antidiagonal may load this row a vector
	// at a time, and a vector load over a narrower store still in flight is
	// not forwarded: it waits for the store to reach the cache. More often
	// than not the sentinel is there already (the window shrank over a
	// pruned cell, or a lane past the width was stored).
	CMPW (R8)(R12*2), pruned
	JEQ  upper
	MOVW pruned, (R8)(R12*2)

upper:
	CMPW 4(R8)(R13*2), pruned
	JEQ  rotate
	MOVW pruned, 4(R8)(R13*2)

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
	VMOVD   X15, CX
	MOVWLSX CX, CX
	ADDL    front_base(DI), CX
	MOVL    CX, front_best(DI)
	MOVQ    R11, front_d(DI)
	MOVQ R12, front_lo1(DI)
	MOVQ R13, front_hi1(DI)
	VZEROUPPER
	MOVQ AX, exit+8(FP)
	RET
