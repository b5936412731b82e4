#include "go_asm.h"
#include "textflag.h"

// VEX encodings only, down to the moves from general registers: a single
// legacy-SSE instruction (MOVQ AX, X12 where VMOVD was meant) among the
// broadcasts makes every call pay the SSE/AVX state transition, and the x=7
// kernel as a whole ran ten times slower.

// pruned is the abandoned-cell sentinel of the narrow rows, math.MinInt16.
#define pruned $const_narrowPruned

// VPSHUFB indices that swap the two words of every doubleword.
DATA swapwords<>+0(SB)/8, $0x0504070601000302
DATA swapwords<>+8(SB)/8, $0x0d0c0f0e09080b0a
DATA swapwords<>+16(SB)/8, $0x0504070601000302
DATA swapwords<>+24(SB)/8, $0x0d0c0f0e09080b0a
GLOBL swapwords<>(SB), RODATA|NOPTR, $32

// The band: registers of a front the routine holds.
//
// A band is sixteen lanes anchored at i = front.anchor: lane k of P holds
// cell (anchor+k, d-1-anchor-k) of antidiagonal d-1, and lane k of D cell
// (anchor+k-1, d-1-anchor-k) of d-2, which is what the cell in lane k of d
// takes as its diagonal. Lanes outside a window are pruned. A window is
// held as the two counts the shrink's live mask (two bits a lane) gives:
// LO its TZCNT, twice the lowest lane, and HZ its LZCNT, 30 less twice the
// highest; lane 15 stays outside it, so that D, which has lost d-2's lane
// 15 to the shift that made it, never needs it. Q is the address the
// bases of b that antidiagonal d reads are loaded from (front.qmask), which
// steps by sigma an antidiagonal, and C counts the antidiagonals scored
// since the band was loaded in its bits from 20 up (STEPONE each) and the
// sum of their LO+HZ below (a window of d-1 gives d a window (34-LO-HZ)/2
// cells wide). AV is a's sixteen bases from the anchor (front.amask), which
// stay put until it moves; B is best-base in every lane.
//
// General registers: AX, BX, CX, DX scratch, and
//	front 0: DI the front, R8 LO, R9 HZ, R10 Q, R11 C
//	front 1: SI the front, R12 LO, R13 HZ, R14 Q, R15 C
// Vector registers:
//	front 0: Y0 P, Y1 D, Y2 AV, Y3 B
//	front 1: Y4 P, Y5 D, Y6 AV, Y7 B
//	Y8 match-mismatch  Y9 mismatch  Y10 gap  Y11 pruned  Y12 math.MaxInt16
//	Y15 swapwords  Y13, Y14 scratch

// C's count of one antidiagonal.
#define STEPONE 0x100000

// DOF sets R to the d that C has reached.
#define DOF(F, C, R) \
	MOVQ C, R; \
	SHRQ $20, R; \
	ADDQ front_d(F), R

// RESOLVE settles best's first cell from the row in bslot[1], if a row has
// raised best since the band was anchored where it is: bestD is the row's
// antidiagonal and bestI the anchor plus its first lane holding best.
#define RESOLVE(F, B, NONE) \
	MOVQ      front_bslot+96(F), CX; \
	TESTQ     CX, CX; \
	JEQ       NONE; \
	DOF(F, CX, DX); \
	DECQ      DX; \
	MOVQ      DX, front_bestD(F); \
	VPCMPEQW  front_bslot+64(F), B, Y13; \
	VPMOVMSKB Y13, CX; \
	TZCNTL    CX, CX; \
	SHRL      $1, CX; \
	ADDQ      front_anchor(F), CX; \
	MOVQ      CX, front_bestI(F); \
	MOVQ      $0, front_bslot+96(F); \
NONE:

// ANCHOR puts the band's lane 0 at i = AX, d being DX: it sets the anchor
// and the thresholds the loop compares with, C's limit being where d
// passes stop or lane 0's j, d-anchor, passes m.
#define ANCHOR(F, C) \
	MOVQ    AX, front_anchor(F); \
	MOVQ    front_n(F), CX; \
	SUBQ    AX, CX; \
	MOVQ    CX, front_nA(F); \
	MOVQ    $14, BX; \
	CMPQ    CX, BX; \
	CMOVQLT CX, BX; \
	SHLQ    $1, BX; \
	NEGQ    BX; \
	ADDQ    $32, BX; \
	MOVQ    BX, front_ztop(F); \
	MOVQ    front_m(F), CX; \
	ADDQ    AX, CX; \
	MOVQ    front_stop(F), BX; \
	CMPQ    BX, CX; \
	CMOVQLT BX, CX; \
	SUBQ    DX, CX; \
	SHLQ    $20, CX; \
	MOVQ    C, BX; \
	ANDQ    $-STEPONE, BX; \
	LEAQ    STEPONE(BX)(CX*1), CX; \
	MOVQ    CX, front_climit(F)

// HELD loads a's sixteen bases from i = AX into AV: from min(AX, n-15),
// inside a as n >= 15, the mask moved up by the rest, so that a lane past
// n takes a byte, or zero, no cell it holds is scored with.
#define HELD(F, AV) \
	MOVQ           front_n(F), CX; \
	SUBQ           $15, CX; \
	CMPQ           AX, CX; \
	CMOVQLT        AX, CX; \
	MOVQ           AX, DX; \
	SUBQ           CX, DX; \
	IMULQ          front_sigma(F), CX; \
	ADDQ           front_a(F), CX; \
	ADDQ           front_aoff(F), CX; \
	VBROADCASTI128 (CX), AV; \
	IMULQ          front_sigma(F), DX; \
	ANDL           $0xff, DX; \
	VMOVD          DX, X13; \
	VPBROADCASTW   X13, Y13; \
	VPADDB         front_amask(F), Y13, Y13; \
	VPSHUFB        Y13, AV, AV

// LOAD takes the front in F into registers, anchored at lo1, or leaves by
// one of the four labels with nothing of it changed: d is past stop, d's
// window is empty, the band cannot hold the window where the views allow
// (s's flank is under 16 bases, or sixteen lanes from lo1 run past t),
// or the window is wider than the band's fifteen lanes.
#define LOAD(F, LO, HZ, Q, C, P, D, AV, B, STOP, DEAD, EDGE, WIDE) \
	MOVQ      front_d(F), DX; \
	CMPQ      DX, front_stop(F); \
	JGT       STOP; \
	MOVQ      front_lo1(F), AX; \
	MOVQ      DX, CX; \
	SUBQ      front_m(F), CX; \
	MOVQ      front_hi1(F), BX; \
	INCQ      BX; \
	CMPQ      BX, front_n(F); \
	CMOVQGT   front_n(F), BX; \
	CMPQ      CX, BX; \
	JGT       DEAD; \
	CMPQ      AX, BX; \
	JGT       DEAD; \
	CMPQ      CX, AX; \
	JGT       WIDE; \
	SUBQ      AX, BX; \
	CMPQ      BX, $14; \
	JGT       WIDE; \
	CMPQ      front_n(F), $15; \
	JLT       EDGE; \
	LEAQ      15(AX), CX; \
	SUBQ      front_bpad(F), CX; \
	CMPQ      CX, DX; \
	JGT       EDGE; \
	MOVQ      DX, Q; \
	SUBQ      AX, Q; \
	IMULQ     front_sigma(F), Q; \
	ADDQ      front_b(F), Q; \
	ADDQ      front_qoff(F), Q; \
	XORL      C, C; \
	ANCHOR(F, C); \
	MOVQ      front_hi1(F), HZ; \
	SUBQ      AX, HZ; \
	SHLQ      $1, HZ; \
	NEGQ      HZ; \
	ADDQ      $30, HZ; \
	XORL      LO, LO; \
	MOVQ      front_rot(F), CX; \
	MOVQ      front_rows(F)(CX*8), BX; \
	VMOVDQU   (BX)(AX*2), D; \
	MOVQ      front_rows+8(F)(CX*8), BX; \
	VMOVDQU   2(BX)(AX*2), P; \
	HELD(F, AV); \
	VMOVDQU   front_vbest(F), B; \
	MOVQ      $0, front_bslot+96(F)

// STEP scores antidiagonal d of the front in F, in its band: advance's
// loop body, with nothing stored but the row that raises best (if one
// does: the row is stored either way, where the conditional address puts
// it). Its two compares send it to SLOW when d is past stop or lane 0 would
// read past b[m], and to MOVE when d's window reaches past lane 14 or past
// n; both come back to TOP or SCORE. It leaves by DEADS when no cell of d
// lives.
#define STEP(F, LO, HZ, Q, C, P, D, AV, B, TOP, SCORE, SLOW, MOVE, DEADS) \
TOP: \
	CMPQ           C, front_climit(F); \
	JGE            SLOW; \
	CMPQ           HZ, front_ztop(F); \
	JLT            MOVE; \
SCORE: \
	LEAQ           STEPONE(C)(HZ*1), C; \
	ADDQ           LO, C; \
	MOVQ           LO, AX; \
	NEGQ           AX; \
	VBROADCASTI128 (Q), Y13; \
	VPSHUFB        front_qmask(F), Y13, Y13; \
	VPCMPEQW       AV, Y13, Y13; \
	VPAND      Y8, Y13, Y13; \
	VPADDW     Y9, Y13, Y13; \
	VPADDSW    D, Y13, Y13; \
	VPERM2I128 $0x02, Y11, P, Y14; \
	VPALIGNR   $14, Y14, P, D; \
	VPMAXSW    P, D, Y14; \
	VPADDSW    Y10, Y14, Y14; \
	VPMAXSW    Y13, Y14, Y13; \
	VPSUBW     front_vx(F), B, Y14; \
	VPCMPGTW   Y13, Y14, Y14; \
	VPXOR      Y12, Y14, Y14; \
	VPMINSW    front_bound+32(F)(AX*1), Y13, Y13; \
	VPMINSW    front_bound+62(F)(HZ*1), Y13, Y13; \
	VPMINSW    Y14, Y13, P; \
	VPERM2I128 $0x01, P, P, Y13; \
	VPMAXSW    Y13, P, Y13; \
	VPSHUFD    $0x4E, Y13, Y14; \
	VPMAXSW    Y14, Y13, Y13; \
	VPSHUFD    $0xB1, Y13, Y14; \
	VPMAXSW    Y14, Y13, Y13; \
	VPSHUFB    Y15, Y13, Y14; \
	VPMAXSW    Y14, Y13, Y13; \
	VPCMPGTW   B, Y13, Y14; \
	VPMAXSW    Y13, B, B; \
	VMOVD      X14, CX; \
	ANDL       $64, CX; \
	VMOVDQU    P, front_bslot(F)(CX*1); \
	MOVQ       C, front_bslot+32(F)(CX*1); \
	VPCMPGTW   Y11, P, Y13; \
	VPMOVMSKB  Y13, DX; \
	TESTL      DX, DX; \
	JEQ        DEADS; \
	TZCNTL     DX, LO; \
	LZCNTL     DX, HZ; \
	ADDQ       front_sigma(F), Q

// CLAMP cuts d's window at n: BX is HZ as if d-1's window had ended a lane
// below min(hi1+1, n), and CX twice d's top lane.
#define CLAMP(F, HZ) \
	MOVQ    front_nA(F), DX; \
	SHLQ    $1, DX; \
	NEGQ    DX; \
	ADDQ    $32, DX; \
	MOVQ    HZ, BX; \
	CMPQ    BX, DX; \
	CMOVQLT DX, BX; \
	MOVQ    $32, CX; \
	SUBQ    BX, CX

// SLOWPATH is where STEP's two compares send it. SLOW leaves by STOP when
// d is past stop; otherwise lane 0 reads past b[m], and the anchor moves
// up to lo1 unless d's window is empty (DEAD) or the d-m bound is above
// lo1 (WIDE). MOVE cuts the window at n and goes on to SCORE if it then
// fits the band as anchored, or leaves by DEAD if it is empty; if not, the
// anchor moves up to lo1. A move leaves by WIDE when the window is wider
// than the band and by EDGE when sixteen lanes from lo1 run past t;
// else it settles best's first cell, shifts P and D down, moves Q with the
// anchor, loads a's bases at the new anchor and goes back to TOP.
#define SLOWPATH(F, LO, HZ, Q, C, P, D, AV, B, TOP, SCORE, STOP, DEAD, EDGE, WIDE, SLOW, MOVE, SHIFT, NONE) \
SLOW: \
	DOF(F, C, AX); \
	CMPQ       AX, front_stop(F); \
	JGT        STOP; \
	SUBQ       front_m(F), AX; \
	SUBQ       front_anchor(F), AX; \
	SHLQ       $1, AX; \
	CLAMP(F, HZ); \
	CMPQ       AX, CX; \
	JGT        DEAD; \
	CMPQ       LO, CX; \
	JGT        DEAD; \
	CMPQ       AX, LO; \
	JGT        WIDE; \
	JMP        SHIFT; \
MOVE: \
	CLAMP(F, HZ); \
	CMPQ       LO, CX; \
	JGT        DEAD; \
	CMPQ       CX, $28; \
	JGT        SHIFT; \
	MOVQ       BX, HZ; \
	JMP        SCORE; \
SHIFT: \
	SUBQ       LO, CX; \
	CMPQ       CX, $28; \
	JGT        WIDE; \
	MOVQ       LO, AX; \
	SHRQ       $1, AX; \
	ADDQ       front_anchor(F), AX; \
	CMPQ       front_n(F), $15; \
	JLT        EDGE; \
	LEAQ       15(AX), CX; \
	SUBQ       front_bpad(F), CX; \
	DOF(F, C, DX); \
	CMPQ       CX, DX; \
	JGT        EDGE; \
	RESOLVE(F, B, NONE); \
	LEAQ       (LO)(LO*2), CX; \
	SHLQ       $4, CX; \
	LEAQ       ·bandShifts(SB), DX; \
	ADDQ       DX, CX; \
	VPERM2I128 $0x21, Y11, P, Y13; \
	VPSHUFB    32(CX), Y13, Y13; \
	VPSHUFB    (CX), P, P; \
	VPOR       Y13, P, P; \
	VPOR       64(CX), P, P; \
	VPERM2I128 $0x21, Y11, D, Y13; \
	VPSHUFB    32(CX), Y13, Y13; \
	VPSHUFB    (CX), D, D; \
	VPOR       Y13, D, D; \
	VPOR       64(CX), D, D; \
	MOVQ       LO, AX; \
	SHRQ       $1, AX; \
	MOVQ       AX, CX; \
	IMULQ      front_sigma(F), CX; \
	SUBQ       CX, Q; \
	ADDQ       LO, HZ; \
	XORL       LO, LO; \
	ADDQ       front_anchor(F), AX; \
	HELD(F, AV); \
	DOF(F, C, DX); \
	ANCHOR(F, C); \
	INCQ       front_moves(F); \
	JMP        TOP

// SPILL hands the front in F back to its struct and narrow rows, as the
// memory loop and leave read them: d, the rotation it would have reached,
// lo1, hi1 and the cells, best and its first cell, and the two rows d reads
// with d-1's sentinels. C's count is rounded, as a dead front's sum may be
// below zero; the cells are 34 a count less the sum, halved.
#define SPILL(F, LO, HZ, C, P, D, B, NONE) \
	RESOLVE(F, B, NONE); \
	INCQ    front_spills(F); \
	LEAQ    0x80000(C), CX; \
	SHRQ    $20, CX; \
	MOVQ    front_d(F), AX; \
	ADDQ    CX, AX; \
	IMUL3Q  $(STEPONE+34), CX, DX; \
	SUBQ    C, DX; \
	SHRQ    $1, DX; \
	ADDQ    DX, front_cells(F); \
	ADDQ    CX, front_inBand(F); \
	ADDQ    front_rot(F), CX; \
	MOVL    $0xAAAAAAAB, DX; \
	IMULQ   CX, DX; \
	SHRQ    $33, DX; \
	LEAQ    (DX)(DX*2), DX; \
	SUBQ    DX, CX; \
	MOVQ    CX, front_rot(F); \
	MOVQ    AX, front_d(F); \
	VMOVDQU B, front_vbest(F); \
	MOVQ    front_anchor(F), AX; \
	MOVQ    front_rows(F)(CX*8), DX; \
	VMOVDQU D, (DX)(AX*2); \
	MOVQ    front_rows+8(F)(CX*8), DX; \
	VMOVDQU P, 2(DX)(AX*2); \
	MOVQ    LO, CX; \
	SHRQ    $1, CX; \
	ADDQ    AX, CX; \
	MOVQ    CX, front_lo1(F); \
	MOVW    pruned, (DX)(CX*2); \
	MOVQ    $30, CX; \
	SUBQ    HZ, CX; \
	SHRQ    $1, CX; \
	ADDQ    AX, CX; \
	MOVQ    CX, front_hi1(F); \
	MOVW    pruned, 4(DX)(CX*2)

// func frontsAVX2(st *front) (id, exit int)
//
// The loop of advance (xdrop.go), an antidiagonal of each front on the ring
// in turn, until one front must go back to Go, over int16 cells: a cell is
// its score less front.base, and pruned is math.MinInt16. Adds saturate,
// so a cell fed only by pruned neighbours lands at most maxAbs above
// pruned, under the prune threshold; Go's stop horizon keeps best-base at
// or below ceil while an antidiagonal is scored, so no live cell saturates.
//
// Two loops, one routine. The band loop holds the front and the one after
// it on the ring (or the front alone, if it is alone) in registers, each
// as a band (above), and scores an antidiagonal of each in turn: the row
// below is the previous row shifted a lane, a's bases are already in
// place, and of a front's state only the row that raises best is stored.
// Whichever front must go back to Go, both are spilled to their structs
// and rows first. A window the band cannot hold sends both to the memory
// loop: the fronts' state in their structs, the rows in the narrow rows
// (row index i+1 holds cell i), one front's antidiagonal after another,
// a vector at a time; it hands back to the band loop when a window is ten
// cells or fewer and the next front's last one was too.
// Nothing about the cells is branched on: best, lo and hi come from masks
// (VPMOVMSKB, then TZCNT and LZCNT in the band, BSF and BSR in the memory
// loop) and conditional moves.
//
// A cell is stored as min(v, (v < prune) XOR MaxInt16), the compare's mask
// turned into pruned or MaxInt16, and min'd with the window's bounds; the
// substitution score is mismatch + (ai == bj AND match-mismatch).
TEXT ·frontsAVX2(SB), NOSPLIT, $0-24
	MOVQ         st+0(FP), DI
	VPBROADCASTW front_match(DI), Y8
	VPBROADCASTW front_mismatch(DI), Y9
	VPSUBW       Y9, Y8, Y8
	VPBROADCASTW front_gap(DI), Y10
	MOVL         pruned, AX
	VMOVD        AX, X11
	VPBROADCASTW X11, Y11
	VPCMPEQW     Y12, Y12, Y12
	VPSRLW       $1, Y12, Y12     // 0x7fff
	VMOVDQU      swapwords<>(SB), Y15

band:
	MOVQ front_next(DI), SI
	LOAD(DI, R8, R9, R10, R11, Y0, Y1, Y2, Y3, stop, dead, edge, memory)
	CMPQ SI, DI
	JEQ  lone
	LOAD(SI, R12, R13, R14, R15, Y4, Y5, Y6, Y7, load1stop, load1dead, load1edge, memory)

pair:
	STEP(DI, R8, R9, R10, R11, Y0, Y1, Y2, Y3, top0, score0, slow0, move0, scoreddead0)
	STEP(SI, R12, R13, R14, R15, Y4, Y5, Y6, Y7, top1, score1, slow1, move1, scoreddead1)
	JMP pair

lone:
	STEP(DI, R8, R9, R10, R11, Y0, Y1, Y2, Y3, topl, scorel, slowl, movel, scoreddead0)
	JMP lone

	SLOWPATH(DI, R8, R9, R10, R11, Y0, Y1, Y2, Y3, top0, score0, stop0, dead0, edge0, wide0, slow0, move0, shift0, none0)
	SLOWPATH(SI, R12, R13, R14, R15, Y4, Y5, Y6, Y7, top1, score1, stop1, dead1, edge1, wide1, slow1, move1, shift1, none1)
	SLOWPATH(DI, R8, R9, R10, R11, Y0, Y1, Y2, Y3, topl, scorel, stop0, dead0, edge0, wide0, slowl, movel, shiftl, nonel)

	// A scored antidiagonal with no live cell: C took its window, and d
	// stays where it is, so C gives back the count and the 34 the spill
	// counts a d by.
scoreddead0:
	SUBQ $(STEPONE+34), R11
	JMP  dead0
scoreddead1:
	SUBQ $(STEPONE+34), R15
	JMP  dead1

	// A front in registers leaves. exit+16(FP) takes the reason (-1: to the
	// memory loop), id+8(FP) which of the two it is until done sets it.
stop0:
	MOVQ $const_exitStop, exit+16(FP)
	JMP  out0
dead0:
	MOVQ $const_exitDead, exit+16(FP)
	JMP  out0
edge0:
	MOVQ $const_exitEdge, exit+16(FP)
	JMP  out0
wide0:
	MOVQ $-1, exit+16(FP)
	JMP  out0
stop1:
	MOVQ $const_exitStop, exit+16(FP)
	JMP  out1
dead1:
	MOVQ $const_exitDead, exit+16(FP)
	JMP  out1
edge1:
	MOVQ $const_exitEdge, exit+16(FP)
	JMP  out1
wide1:
	MOVQ $-1, exit+16(FP)

out1:
	MOVQ $1, id+8(FP)
	JMP  out
out0:
	MOVQ $0, id+8(FP)
out:
	SPILL(DI, R8, R9, R11, Y0, Y1, Y3, spilled0)
	CMPQ SI, DI
	JEQ  spilled
	SPILL(SI, R12, R13, R15, Y4, Y5, Y7, spilled1)
spilled:
	CMPQ id+8(FP), $0
	JEQ  spilledwhich
	MOVQ SI, DI
spilledwhich:
	CMPQ exit+16(FP), $0
	JGE  done
	INCQ front_toMemory(DI)

memory:
	VMOVDQU ·descending(SB), Y14
	JMP     memnext

	// The second front could not be loaded: the first, loaded, is as it was.
load1stop:
	MOVQ SI, DI
	JMP  stop
load1dead:
	MOVQ SI, DI
	JMP  dead
load1edge:
	MOVQ SI, DI
	JMP  edge

	// The memory loop. General registers, for one antidiagonal of the
	// front in DI:
	//	DI the front             R8  cur          R11 d
	//	SI the ascending view    R9  p1           R12 lo1, then lo
	//	DX the descending view   R10 p2           R13 hi1, then hi
	//	BX rot                   R14 i
	//	AX, CX, R15 scratch
	// and vector registers, beside the band's constants:
	//	Y7 best-base (front.vbest)  Y5 prune
	//	Y3 the row's last vector as stored
	//	Y13 the bound of the window's last vector
	//	Y14 descending's mask
memnext:
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
	// Lane i's base of a lies at a+sigma·i and of b at (b+sigma·d)-sigma·i:
	// SI+i and DX-i, a's and b's or (sigma < 0) b's and a's.
	MOVQ    R11, R14
	IMULQ   front_sigma(DI), R14
	ADDQ    front_b(DI), R14
	MOVQ    front_a(DI), SI
	MOVQ    R14, DX
	CMPQ    front_sigma(DI), $0
	CMOVQLT R14, SI
	CMOVQLT front_a(DI), DX
	VMOVDQU front_vbest(DI), Y7
	VPSUBW  front_vx(DI), Y7, Y5  // prune = best - x
	// Back to the band loop when this window is ten cells or fewer and the
	// next front's last one was too, and the d-m bound cuts neither.
	CMPQ AX, $10
	JGT  vectors
	CMPQ CX, R12
	JNE  vectors
	MOVQ front_next(DI), R14
	MOVQ front_hi1(R14), R15
	SUBQ front_lo1(R14), R15
	CMPQ R15, $9
	JGT  vectors
	MOVQ front_d(R14), R15
	SUBQ front_m(R14), R15
	CMPQ R15, front_lo1(R14)
	JGT  vectors
	INCQ front_toBand(DI)
	JMP  band

vectors:
	// With vw the width rounded up to 16, the vectors cover bases i and
	// d-i of the two views for i in [lo, lo+vw), p1[lo:lo+vw+1],
	// p2[lo:lo+vw] and cur[lo+1:][:vw], and the same two conditions keep
	// them inside.
	LEAQ 15(AX), R14
	ANDQ $-16, R14
	LEAQ -1(CX)(R14*1), R14
	CMPQ R14, front_n(DI)
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
	VMOVDQU front_bound+64(DI)(CX*2), Y13 // prunes the lanes past the window

	// The window, a vector at a time, the last masked by Y13.
	VMOVDQA Y11, Y6               // running max
	MOVQ    R12, R14              // i of lane 0
	SUBQ    R12, DX               // the descending view's base of lane 0
	ADDQ    R12, AX               // one past the window

	JMP     vector

full:
	VPMINSW Y1, Y0, Y3
	VMOVDQU Y3, -30(R8)(R14*2)    // cur[i+1:], i the vector's lane 0
	VPMAXSW Y3, Y6, Y6

vector:
	VPMOVZXBW      (SI)(R14*1), Y0
	VBROADCASTI128 -15(DX), Y1     // 1-lanes past lane 0's base, as descending has it
	VPSHUFB        Y14, Y1, Y1
	VPCMPEQW       Y0, Y1, Y0
	VPAND          Y8, Y0, Y0
	VPADDW         Y9, Y0, Y0          // sub
	VPADDSW        (R10)(R14*2), Y0, Y0 // diag + sub
	VMOVDQU        (R9)(R14*2), Y4     // up
	VPMAXSW        2(R9)(R14*2), Y4, Y1 // max(up, left)
	VPADDSW        Y10, Y1, Y1         // + gap
	VPMAXSW        Y0, Y1, Y0          // v
	VPCMPGTW       Y0, Y5, Y1          // v < prune
	VPXOR          Y12, Y1, Y1         // v < prune ? pruned : MaxInt16
	ADDQ           $16, R14
	SUBQ           $16, DX
	CMPQ           R14, AX
	JLT            full
	SUBQ           $16, R14

last:
	VPMINSW   Y13, Y0, Y0         // past the window: pruned
	VPMINSW   Y1, Y0, Y3
	VMOVDQU   Y3, 2(R8)(R14*2)
	VPMAXSW   Y3, Y6, Y6
	VPCMPGTW  Y7, Y6, Y1          // v > best, in some vector
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
	VPSHUFB    Y15, Y0, Y1
	VPMAXSW    Y1, Y0, Y7
	VMOVDQU    Y7, front_vbest(DI)
	MOVQ       R12, CX

first:
	VPCMPEQW  2(R8)(CX*2), Y7, Y1
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
	VPCMPGTW  Y11, Y0, Y1
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
	VPCMPGTW  Y11, Y3, Y1         // the last vector, as stored

high:
	VPMOVMSKB Y1, AX
	TESTL     AX, AX
	JNE       highest
	SUBQ      $16, R14
	VMOVDQU   2(R8)(R14*2), Y0
	VPCMPGTW  Y11, Y0, Y1
	JMP       high

highest:
	BSRL AX, AX
	SHRL $1, AX
	LEAQ (R14)(AX*1), R13
	MOVW pruned, (R8)(R12*2)
	MOVW pruned, 4(R8)(R13*2)

rotate:
	// Back into the front, and on to the next one.
	MOVQ R12, front_lo1(DI)
	MOVQ R13, front_hi1(DI)
	INCQ R11
	MOVQ R11, front_d(DI)
	INCQ    BX                   // rot+1 mod 3
	XORL    CX, CX
	CMPQ    BX, $3
	CMOVQEQ CX, BX
	MOVQ    BX, front_rot(DI)
	MOVQ front_next(DI), DI
	JMP  memnext

stop:
	MOVQ $const_exitStop, exit+16(FP)
	JMP  done

edge:
	MOVQ $const_exitEdge, exit+16(FP)
	JMP  done

dead:
	MOVQ $const_exitDead, exit+16(FP)

done:
	MOVWLSX front_vbest(DI), CX
	ADDL    front_base(DI), CX
	MOVL    CX, front_best(DI)
	MOVQ    front_id(DI), CX
	MOVQ    CX, id+8(FP)
	VZEROUPPER
	RET
