#include "go_asm.h"
#include "textflag.h"

// VEX encodings only, down to the moves from general registers: a single
// legacy-SSE instruction (MOVQ AX, X12 where VMOVD was meant) among the
// broadcasts makes every call pay the SSE/AVX state transition, and the x=7
// kernel as a whole ran ten times slower.

// pruned is the abandoned-cell sentinel of the narrow rows, math.MinInt16.
#define pruned $const_narrowPruned

// Sixteen words of math.MaxInt16, then sixteen of math.MinInt16: the 32
// bytes at 2·(-w&15), taken as a lane-wise upper bound, prune the lanes past
// the last vector of a window w cells wide and leave the others be (for a
// window of one vector, w <= 16, those are the bytes at 32-2·w).
DATA tailbound<>+0(SB)/8, $0x7fff7fff7fff7fff
DATA tailbound<>+8(SB)/8, $0x7fff7fff7fff7fff
DATA tailbound<>+16(SB)/8, $0x7fff7fff7fff7fff
DATA tailbound<>+24(SB)/8, $0x7fff7fff7fff7fff
DATA tailbound<>+32(SB)/8, $-0x7fff7fff7fff8000
DATA tailbound<>+40(SB)/8, $-0x7fff7fff7fff8000
DATA tailbound<>+48(SB)/8, $-0x7fff7fff7fff8000
DATA tailbound<>+56(SB)/8, $-0x7fff7fff7fff8000
GLOBL tailbound<>(SB), RODATA|NOPTR, $64

// rot+1 mod 3, by rot.
DATA rotnext<>+0(SB)/8, $1
DATA rotnext<>+8(SB)/8, $2
DATA rotnext<>+16(SB)/8, $0
GLOBL rotnext<>(SB), RODATA|NOPTR, $24

// VPSHUFB indices that swap the two words of every doubleword.
DATA swapwords<>+0(SB)/8, $0x0504070601000302
DATA swapwords<>+8(SB)/8, $0x0d0c0f0e09080b0a
DATA swapwords<>+16(SB)/8, $0x0504070601000302
DATA swapwords<>+24(SB)/8, $0x0d0c0f0e09080b0a
GLOBL swapwords<>(SB), RODATA|NOPTR, $32

// func frontsAVX2(st *front) (id, exit int)
//
// The loop of advance (xdrop.go), an antidiagonal of each front on the ring
// in turn, until one front must go back to Go, over the narrow rows: a cell
// is its score less front.base, in int16, and pruned is math.MinInt16. Row
// index i+1 holds cell (i, d-i); for the cell in lane k of a window starting
// at lo, up is p1[lo+k], left p1[lo+k+1], diag p2[lo+k], and the cell is
// stored at cur[lo+k+1]. Lanes at or past the window's width are computed
// from whatever lies there and stored as pruned. Adds saturate, so a cell
// fed only by pruned neighbours lands at most maxAbs above pruned, under the
// prune threshold; Go's stop horizon keeps best-base at or below ceil while
// an antidiagonal is scored, so no live cell saturates.
//
// A front's state lives in its struct between its antidiagonals: the
// registers below are loaded from it at the top of each one and stored back
// at the bottom, so the fronts' antidiagonals are independent chains that
// the core overlaps. Nothing about the cells is branched on: best, its first
// cell, lo and hi come from masks (VPMOVMSKB, BSF, BSR) and conditional
// moves. That puts an antidiagonal's scoring on the path to the next one's
// addresses, which a single front pays for in full, but it mispredicts
// nothing, and with fronts interleaved a misprediction would throw away
// every front's work behind it: branched on, as the one-front routine did,
// more fronts ran slower.
//
// General registers, for one antidiagonal of the front in DI:
//	DI the front             R8  cur          R11 d
//	SI a                     R9  p1           R12 lo1, then lo
//	DX brev+m-d              R10 p2           R13 hi1, then hi
//	BX rot
//	AX, CX, R14 scratch
// Vector registers, for the whole call (every front's scores are st's):
//	Y9 match-mismatch  Y10 mismatch  Y11 gap  Y12 pruned  Y14 math.MaxInt16
// and for one antidiagonal:
//	Y15 best-base (front.vbest)  Y8 prune
//	Y3 the row's last vector as stored
//	Y13 the bound of the window's last vector (tailbound)
//
// A cell is stored as min(v, (v < prune) XOR MaxInt16), the compare's mask
// turned into pruned or MaxInt16, and in the last vector min'd with Y13 too;
// the substitution score is mismatch + (ai == bj AND match-mismatch). Each is
// one micro-operation an instruction where VPBLENDVB is three, and the x=7
// rungs ran 3-4% faster for it on a Sapphire Rapids Xeon.
TEXT ·frontsAVX2(SB), NOSPLIT, $0-24
	MOVQ         st+0(FP), DI
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
	MOVQ front_d(DI), R11
	CMPQ R11, front_stop(DI)
	JGT  stop

	// lo = max(lo1, d-m), hi = min(hi1+1, n), in CX and AX: R12 and R13 keep
	// lo1 and hi1 until this antidiagonal is known to be scored here.
	MOVQ    front_lo1(DI), R12
	MOVQ    front_hi1(DI), R13
	MOVQ    R11, CX
	SUBQ    front_m(DI), CX
	CMPQ    CX, R12
	CMOVQLT R12, CX
	LEAQ    1(R13), AX
	MOVQ    front_n(DI), R14
	CMPQ    AX, R14
	CMOVQGT R14, AX
	SUBQ    CX, AX
	JLT     dead                  // lo > hi: the window is empty
	INCQ    AX                    // width

	MOVQ    front_rot(DI), BX
	MOVQ    front_rows(DI)(BX*8), R10
	MOVQ    front_rows+8(DI)(BX*8), R9
	MOVQ    front_rows+16(DI)(BX*8), R8
	MOVQ    front_a(DI), SI
	MOVQ    front_brevm(DI), DX
	SUBQ    R11, DX
	VMOVDQU front_vbest(DI), Y15
	VPSUBW  front_vx(DI), Y15, Y8 // prune = best - x
	CMPQ    AX, $16
	JGT     wide

	// One vector is the window on every antidiagonal of the pipeline's read
	// pairs at x=7. The vector covers a[lo:lo+16],
	// brev[m-d+lo:][:16], p1[lo:lo+17], p2[lo:lo+16] and cur[lo+1:][:16]:
	// inside the views means lo+15 <= alast and m-d+lo+15 <= m+bpad, and the
	// narrow rows are as long as alast allows.
	LEAQ    15(CX), R14
	CMPQ    R14, front_alast(DI)
	JGT     edge
	SUBQ    front_bpad(DI), R14
	CMPQ    R14, R11
	JGT     edge
	MOVQ    CX, R12               // lo
	LEAQ    -1(CX)(AX*1), R13     // hi
	ADDQ    AX, front_cells(DI)   // every cell of the window, before it shrinks
	NEGQ    AX
	LEAQ    tailbound<>+32(SB), R14
	VMOVDQU (R14)(AX*2), Y13      // MaxInt16 in the window's lanes, pruned past them

	VPMOVZXBW (SI)(R12*1), Y0
	VPMOVZXBW (DX)(R12*1), Y1
	VPCMPEQW  Y0, Y1, Y0
	VPAND     Y9, Y0, Y0
	VPADDW    Y10, Y0, Y0         // sub = ai == bj ? match : mismatch
	VPADDSW   (R10)(R12*2), Y0, Y0 // diag + sub
	VMOVDQU   (R9)(R12*2), Y4     // up
	VPMAXSW   2(R9)(R12*2), Y4, Y1 // max(up, left)
	VPADDSW   Y11, Y1, Y1         // + gap
	VPMAXSW   Y0, Y1, Y0          // v
	VPCMPGTW  Y0, Y8, Y1          // v < prune
	VPMINSW   Y13, Y0, Y0         // past the window: pruned
	VPXOR     Y14, Y1, Y1         // v < prune ? pruned : MaxInt16
	VPMINSW   Y1, Y0, Y3
	VMOVDQU   Y3, 2(R8)(R12*2)

	// The row's maximum, in every lane, becomes best if it is more, and its
	// first lane holding it bestI.
	VPERM2I128 $0x01, Y3, Y3, Y0
	VPMAXSW    Y0, Y3, Y0
	VPSHUFD    $0x4E, Y0, Y1
	VPMAXSW    Y1, Y0, Y0
	VPSHUFD    $0xB1, Y0, Y1
	VPMAXSW    Y1, Y0, Y0
	VPSHUFB    swapwords<>(SB), Y0, Y1
	VPMAXSW    Y1, Y0, Y0
	VPCMPGTW   Y15, Y0, Y1        // the row's maximum > best, in every lane
	VPMAXSW    Y0, Y15, Y15
	VMOVDQU    Y15, front_vbest(DI)
	VPCMPEQW   Y0, Y3, Y0
	VPMOVMSKB  Y0, AX
	BSFL       AX, AX
	SHRL       $1, AX
	ADDQ       R12, AX
	VMOVD      X1, CX
	MOVQ       R11, R14
	TESTL      CX, CX
	CMOVQEQ    front_bestI(DI), AX
	CMOVQEQ    front_bestD(DI), R14
	MOVQ       AX, front_bestI(DI)
	MOVQ       R14, front_bestD(DI)

	// The shrink: the live lanes' mask gives lo and hi, and the sentinels
	// are written unseen.
	VPCMPGTW  Y12, Y3, Y1         // live: above pruned
	VPMOVMSKB Y1, AX              // two bits a live lane
	TESTL     AX, AX
	JEQ       dead
	BSFL      AX, CX
	BSRL      AX, AX
	SHRL      $1, CX
	SHRL      $1, AX
	LEAQ      (R12)(AX*1), R13
	ADDQ      CX, R12
	MOVW      pruned, (R8)(R12*2)
	MOVW      pruned, 4(R8)(R13*2)

rotate:
	// Back into the front, and on to the next one.
	MOVQ R12, front_lo1(DI)
	MOVQ R13, front_hi1(DI)
	INCQ R11
	MOVQ R11, front_d(DI)
	LEAQ rotnext<>(SB), CX
	MOVQ (CX)(BX*8), CX
	MOVQ CX, front_rot(DI)
	MOVQ front_next(DI), DI
	JMP  next

wide:
	// Wider: with vw the width rounded up to 16, the vectors cover
	// a[lo:lo+vw], brev[m-d+lo:][:vw], p1[lo:lo+vw+1], p2[lo:lo+vw] and
	// cur[lo+1:][:vw], and the same two conditions keep them inside.
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

	// The window, a vector at a time, the last masked by Y13.
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
	VPMAXSW   2(R9)(R14*2), Y4, Y1 // max(up, left)
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
	VPMINSW   Y13, Y0, Y0         // past the window: pruned
	VPMINSW   Y1, Y0, Y3
	VMOVDQU   Y3, 2(R8)(R14*2)
	VPMAXSW   Y3, Y6, Y6
	VPCMPGTW  Y15, Y6, Y1         // v > best, in some vector
	VPMOVMSKB Y1, AX
	TESTL     AX, AX
	JEQ       shrink

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
	VMOVDQU    Y15, front_vbest(DI)
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
	BSFL AX, AX
	SHRL $1, AX
	ADDQ AX, CX
	MOVQ CX, front_bestI(DI)
	MOVQ R11, front_bestD(DI)

shrink:
	// To the surviving cells, from masks again: lo from the first vector
	// with a live lane, hi from the last; the window has none at all only
	// if no vector has one.
	MOVQ R12, CX

low:
	VMOVDQU   2(R8)(CX*2), Y0
	VPCMPGTW  Y12, Y0, Y1
	VPMOVMSKB Y1, AX
	TESTL     AX, AX
	JNE       lowest
	ADDQ      $16, CX
	CMPQ      CX, R13
	JLE       low
	JMP       dead

lowest:
	BSFL AX, AX
	SHRL $1, AX
	LEAQ (CX)(AX*1), R12
	VPCMPGTW  Y12, Y3, Y1         // the last vector, as stored

high:
	VPMOVMSKB Y1, AX
	TESTL     AX, AX
	JNE       highest
	SUBQ      $16, R14
	VMOVDQU   2(R8)(R14*2), Y0
	VPCMPGTW  Y12, Y0, Y1
	JMP       high

highest:
	BSRL AX, AX
	SHRL $1, AX
	LEAQ (R14)(AX*1), R13
	MOVW pruned, (R8)(R12*2)
	MOVW pruned, 4(R8)(R13*2)
	JMP  rotate

stop:
	MOVQ $const_exitStop, AX
	JMP  done

edge:
	MOVQ $const_exitEdge, AX
	JMP  done

dead:
	MOVQ $const_exitDead, AX

done:
	MOVWLSX front_vbest(DI), CX
	ADDL    front_base(DI), CX
	MOVL    CX, front_best(DI)
	MOVQ    front_id(DI), CX
	MOVQ    CX, id+8(FP)
	MOVQ    AX, exit+16(FP)
	VZEROUPPER
	RET
