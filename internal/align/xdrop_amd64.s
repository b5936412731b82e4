#include "go_asm.h"
#include "textflag.h"

// VEX encodings only, down to the moves from general registers: a single
// legacy-SSE instruction (MOVQ AX, X12 where VMOVD was meant) among the
// broadcasts makes every call pay the SSE/AVX state transition, and the x=7
// kernel as a whole ran ten times slower.

// pruned is the abandoned-cell sentinel of the narrow rows, math.MinInt16.
#define pruned $const_narrowPruned

// The memory loop's: VPSHUFB indices that swap the two words of every
// doubleword, and that zero-extend sixteen bases, loaded from 15 below lane
// 0's base, into the lanes reversed (lanes 0 to 7 from the low half, 8 to
// 15 from the high).
DATA swapwords<>+0(SB)/8, $0x0504070601000302
DATA swapwords<>+8(SB)/8, $0x0d0c0f0e09080b0a
DATA swapwords<>+16(SB)/8, $0x0504070601000302
DATA swapwords<>+24(SB)/8, $0x0d0c0f0e09080b0a
GLOBL swapwords<>(SB), RODATA|NOPTR, $32
DATA widen<>+0(SB)/8, $0x800c800d800e800f
DATA widen<>+8(SB)/8, $0x80088009800a800b
DATA widen<>+16(SB)/8, $0x8004800580068007
DATA widen<>+24(SB)/8, $0x8000800180028003
GLOBL widen<>(SB), RODATA|NOPTR, $32

// The band's hulls (HULLU, HULLS): VPSHUFB indices that fill a half's high
// quadword with its low quadword's top byte and zero the low one, that
// reverse a half, and that reverse it moved up a lane.
DATA crossq<>+0(SB)/8, $0x8080808080808080
DATA crossq<>+8(SB)/8, $0x0707070707070707
DATA crossq<>+16(SB)/8, $0x8080808080808080
DATA crossq<>+24(SB)/8, $0x0707070707070707
GLOBL crossq<>(SB), RODATA|NOPTR, $32
DATA rev<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA rev<>+8(SB)/8, $0x0001020304050607
DATA rev<>+16(SB)/8, $0x08090a0b0c0d0e0f
DATA rev<>+24(SB)/8, $0x0001020304050607
GLOBL rev<>(SB), RODATA|NOPTR, $32
DATA rev1<>+0(SB)/8, $0x0708090a0b0c0d0e
DATA rev1<>+8(SB)/8, $0x8000010203040506
DATA rev1<>+16(SB)/8, $0x0708090a0b0c0d0e
DATA rev1<>+24(SB)/8, $0x8000010203040506
GLOBL rev1<>(SB), RODATA|NOPTR, $32

// Lane k holds k: a VPCMPGTB against it turns a count into the lanes
// below it.
DATA lanes<>+0(SB)/8, $0x0706050403020100
DATA lanes<>+8(SB)/8, $0x0f0e0d0c0b0a0908
GLOBL lanes<>(SB), RODATA|NOPTR, $16

// One half of a vector, at halves+0 the low one and at halves+16 the high.
DATA halves<>+0(SB)/8, $0xffffffffffffffff
DATA halves<>+8(SB)/8, $0xffffffffffffffff
DATA halves<>+16(SB)/8, $0x0000000000000000
DATA halves<>+24(SB)/8, $0x0000000000000000
DATA halves<>+32(SB)/8, $0xffffffffffffffff
DATA halves<>+40(SB)/8, $0xffffffffffffffff
GLOBL halves<>(SB), RODATA|NOPTR, $48

// Words of the narrow rows: pruned, MaxInt16, and the band's pruned.
DATA wpruned<>+0(SB)/8, $0x8000800080008000
DATA wpruned<>+8(SB)/8, $0x8000800080008000
DATA wpruned<>+16(SB)/8, $0x8000800080008000
DATA wpruned<>+24(SB)/8, $0x8000800080008000
GLOBL wpruned<>(SB), RODATA|NOPTR, $32
DATA w7fff<>+0(SB)/8, $0x7fff7fff7fff7fff
DATA w7fff<>+8(SB)/8, $0x7fff7fff7fff7fff
DATA w7fff<>+16(SB)/8, $0x7fff7fff7fff7fff
DATA w7fff<>+24(SB)/8, $0x7fff7fff7fff7fff
GLOBL w7fff<>(SB), RODATA|NOPTR, $32
DATA wm128<>+0(SB)/8, $0xff80ff80ff80ff80
DATA wm128<>+8(SB)/8, $0xff80ff80ff80ff80
DATA wm128<>+16(SB)/8, $0xff80ff80ff80ff80
DATA wm128<>+24(SB)/8, $0xff80ff80ff80ff80
GLOBL wm128<>(SB), RODATA|NOPTR, $32

// The band: the registers of the fronts the routine holds.
//
// A front's band is sixteen int8 lanes in one 128-bit half of each of the
// band's vectors: the front in DI in the low half, the one in SI in the
// high. The band slides along the diagonal: C counts the antidiagonals
// scored since the front was loaded, and the c-th of them (c from 1) is held
// from i = anchor(c) = front.anchor + c/2, so the band moves up a lane on
// every even c (an S step) and stays on every odd one (a U step), the two
// fronts in step. Lane k of P holds cell (anchor(c)+k) of the last scored
// antidiagonal, c, and lane k of D cell (anchor(c-1)+k) of the one before,
// which is the diagonal of lane k of c+1 in either step; a U step takes up
// as P moved up a lane and left as P, an S step up as P and left as P moved
// down a lane. P and D swap registers every step: Y0 and Y1 in a U step, Y1
// and Y0 in an S step. A cell holds its score less front.base less
// front.boff, and pruned is -128; B is best in every lane of the half, held
// at floor8 when the band is loaded or recentred. Lanes outside a window
// are pruned. W is the window that the next antidiagonal is scored over,
// 0x7f in its lanes and 0x80 outside (HULLU, HULLS, WHALF). A front's
// window is also held as the two counts of P's live mask (a bit a lane): LO
// its TZCNT, the lowest lane, and HZ its LZCNT, 15 less the highest; the
// next window is d-1's cells from lo1 to hi1+1, lanes LO to 16-HZ of P's
// frame, which a U step keeps below lane 15 (HZ >= 2) and an S step above
// lane 0 (LO >= 1), or the band is recentred on it first (SLOWPATH). Q is
// the address the next U step loads b's bases from (front.qmask), which
// steps by sigma, and an S step loads a's from Q+front.adelta
// (front.amask); BV and AV hold them. C keeps the count in its bits from 20
// up (STEPONE each) and the sum of the windows' LO+HZ below (a window is
// 17-LO-HZ cells wide).
//
// General registers: AX, BX, CX, DX scratch, and
//	front 0: DI the front, R8 LO, R9 HZ, R10 Q, R11 C
//	front 1: SI the front, R12 LO, R13 HZ, R14 Q, R15 C
// Vector registers:
//	Y0, Y1 P and D, Y2 AV, Y3 B, Y4 W, Y7 front.qmask, Y12 BV
//	Y8 match-mismatch  Y9 mismatch  Y10 gap  Y11 pruned  Y15 zero
//	Y5 the live lanes of the row just scored, Y6, Y13, Y14 scratch
// and in the frame, at fX1 front.x1 and at fAM front.amask.
#define fX1 0
#define fAM 32

// C's count of one antidiagonal.
#define STEPONE 0x100000

// What a count of C adds to the sum of the windows' LO+HZ, less the cells.
#define WIDTHS 17

// DOF sets R to the d that C has reached: the next antidiagonal to score.
#define DOF(F, C, R) \
	MOVQ C, R; \
	SHRQ $20, R; \
	ADDQ front_d(F), R

// HULLU sets W for a U step from the live lanes in Y5 of each half: the
// lanes from the lowest live one (x|-x in each quadword, carried into the
// high one) to one above the highest (the same of the lanes reversed, each
// moved up one). These are the cells with a live left or up and every cell
// between them, which is the window advance scores; the lanes outside it
// would take a diagonal that lives. HULLS is the same window for an S step,
// a lane lower: from one below the lowest live lane to the highest.
#define HULLU \
	VPSUBQ  Y5, Y15, Y6; \
	VPOR    Y5, Y6, Y6; \
	VPSHUFB crossq<>(SB), Y6, Y13; \
	VPOR    Y13, Y6, Y6; \
	VPSHUFB rev<>(SB), Y5, Y13; \
	VPSHUFB rev1<>(SB), Y5, Y14; \
	VPOR    Y14, Y13, Y13; \
	VPSUBQ  Y13, Y15, Y14; \
	VPOR    Y14, Y13, Y13; \
	VPSHUFB crossq<>(SB), Y13, Y14; \
	VPOR    Y14, Y13, Y13; \
	VPSHUFB rev<>(SB), Y13, Y13; \
	VPAND   Y13, Y6, Y6; \
	VPXOR   Y11, Y6, Y4

#define HULLS \
	VPSRLDQ $1, Y5, Y6; \
	VPOR    Y5, Y6, Y6; \
	VPSUBQ  Y6, Y15, Y13; \
	VPOR    Y13, Y6, Y6; \
	VPSHUFB crossq<>(SB), Y6, Y13; \
	VPOR    Y13, Y6, Y6; \
	VPSHUFB rev<>(SB), Y5, Y13; \
	VPSUBQ  Y13, Y15, Y14; \
	VPOR    Y14, Y13, Y13; \
	VPSHUFB crossq<>(SB), Y13, Y14; \
	VPOR    Y14, Y13, Y13; \
	VPSHUFB rev<>(SB), Y13, Y13; \
	VPAND   Y13, Y6, Y6; \
	VPXOR   Y11, Y6, Y4

// WHALF sets the front's half of W from LO and HZ for a step whose frame is
// PH lanes above P's (PH 0 before a U step, 1 before an S step): the lanes
// from LO-PH, and those up to 16-HZ-PH, from the front's two tables.
#define WHALF(F, HI, PH, LO, HZ) \
	MOVQ        LO, AX; \
	NEGQ        AX; \
	VMOVDQU     front_lotab+16+PH(F)(AX*1), X13; \
	VPMINSB     front_hitab+PH(F)(HZ*1), X13, X13; \
	VINSERTI128 $HI, X13, Y4, Y4

// RESOLVE settles best's first cell from the row in bslot[1], if a row has
// raised best since the band was loaded or last recentred: bestD is the
// row's antidiagonal and bestI its anchor plus its first lane holding best,
// which is in every lane of X13.
#define RESOLVE(F, NONE) \
	MOVQ      front_bslot+80(F), CX; \
	TESTQ     CX, CX; \
	JEQ       NONE; \
	DOF(F, CX, DX); \
	DECQ      DX; \
	MOVQ      DX, front_bestD(F); \
	VPCMPEQB  front_bslot+64(F), X13, X13; \
	VPMOVMSKB X13, DX; \
	TZCNTL    DX, DX; \
	SHRQ      $21, CX; \
	ADDQ      CX, DX; \
	ADDQ      front_anchor(F), DX; \
	MOVQ      DX, front_bestI(F); \
	MOVQ      $0, front_bslot+80(F); \
NONE:

// CLIMIT sets the front's limit on C: the count past which the next step
// would score past stop, let best8 pass ceil8 (room8 steps after C's count,
// at which best8 is floor8), read a's bases past n (anchor(c)+15 > n) or
// put lane 0's j past m (d-anchor(c) > m).
#define CLIMIT(F, C) \
	MOVQ    front_stop(F), CX; \
	SUBQ    front_d(F), CX; \
	INCQ    CX; \
	MOVQ    C, BX; \
	SHRQ    $20, BX; \
	ADDQ    front_room8(F), BX; \
	INCQ    BX; \
	CMPQ    BX, CX; \
	CMOVQLT BX, CX; \
	MOVQ    front_n(F), BX; \
	SUBQ    $15, BX; \
	SUBQ    front_anchor(F), BX; \
	SHLQ    $1, BX; \
	INCQ    BX; \
	CMPQ    BX, CX; \
	CMOVQLT BX, CX; \
	MOVQ    front_m(F), BX; \
	SUBQ    front_d(F), BX; \
	INCQ    BX; \
	ADDQ    front_anchor(F), BX; \
	SHLQ    $1, BX; \
	CMPQ    BX, CX; \
	CMOVQLT BX, CX; \
	SHLQ    $20, CX; \
	MOVQ    CX, front_climit(F)

// BASES loads the front's half of AV from a at i = AX and of BV from b at
// j = DX, the first lane's, for a step of phase PH whose band is anchored
// at AX on antidiagonal DX+AX; it sets Q to where the next U step loads b
// from (one j on if this step is an S step) and front.adelta to where an S
// step's a lies from it: a+aoff-(b+qoff)+sigma·(2·front.anchor-front.d),
// the same at every S step until the band is recentred. CX and BX are
// scratch.
#define BASES(F, HI, PH, Q) \
	MOVQ        AX, CX; \
	IMULQ       front_sigma(F), CX; \
	ADDQ        front_a(F), CX; \
	ADDQ        front_aoff(F), CX; \
	VMOVDQU     (CX), X13; \
	VPSHUFB     front_amask(F), X13, X13; \
	VINSERTI128 $HI, X13, Y2, Y2; \
	MOVQ        DX, Q; \
	IMULQ       front_sigma(F), Q; \
	ADDQ        front_b(F), Q; \
	ADDQ        front_qoff(F), Q; \
	VMOVDQU     (Q), X13; \
	VPSHUFB     front_qmask(F), X13, X13; \
	VINSERTI128 $HI, X13, Y12, Y12; \
	MOVQ        front_sigma(F), BX; \
	IMULQ       $PH, BX; \
	ADDQ        BX, Q; \
	MOVQ        front_anchor(F), CX; \
	SHLQ        $1, CX; \
	SUBQ        front_d(F), CX; \
	IMULQ       front_sigma(F), CX; \
	ADDQ        front_a(F), CX; \
	ADDQ        front_aoff(F), CX; \
	SUBQ        front_b(F), CX; \
	SUBQ        front_qoff(F), CX; \
	MOVQ        CX, front_adelta(F)

// NARROW sets X5 to the sixteen narrow cells at SRC, less boff (in every
// word of Y14), as int8: a live cell is in range, and pruned stays pruned.
#define NARROW(SRC) \
	VMOVDQU      SRC, Y13; \
	VPCMPEQW     wpruned<>(SB), Y13, Y6; \
	VPSUBW       Y14, Y13, Y13; \
	VPXOR        w7fff<>(SB), Y6, Y6; \
	VPMINSW      Y6, Y13, Y13; \
	VEXTRACTI128 $1, Y13, X5; \
	VPACKSSWB    X5, X13, X5

// WIDEN is NARROW undone: it sets Y13 to the sixteen int8 cells at SRC
// plus boff (in every word of Y14), and pruned to the narrow rows' pruned.
#define WIDEN(SRC) \
	VPMOVSXBW SRC, Y13; \
	VPCMPEQW  wm128<>(SB), Y13, Y6; \
	VPADDW    Y14, Y13, Y13; \
	VPXOR     w7fff<>(SB), Y6, Y6; \
	VPMINSW   Y6, Y13, Y13

// LOAD takes the front in F into its half of the registers, anchored at
// lo1 for a U step, or leaves by one of the four labels with nothing of it
// changed: d is past stop, d's window is empty, the band cannot hold the
// window where the views allow (sixteen of a's bases from lo1 run past n,
// or sixteen lanes from lo1 run past t), or the window is wider than the
// band's fifteen lanes, the d-m bound cuts it, or the scores do not fit
// int8 cells (room8 < 0). boff puts best at floor8; the lanes of P past
// d-1's window and its sentinel, stale cells of the narrow row, are pruned,
// as a spill reads the window from them.
#define LOAD(F, HI, LO, HZ, Q, C, STOP, DEAD, EDGE, WIDE) \
	MOVQ         front_d(F), DX; \
	CMPQ         DX, front_stop(F); \
	JGT          STOP; \
	MOVQ         front_lo1(F), AX; \
	MOVQ         DX, CX; \
	SUBQ         front_m(F), CX; \
	MOVQ         front_hi1(F), BX; \
	INCQ         BX; \
	CMPQ         BX, front_n(F); \
	CMOVQGT      front_n(F), BX; \
	CMPQ         CX, BX; \
	JGT          DEAD; \
	CMPQ         AX, BX; \
	JGT          DEAD; \
	CMPQ         CX, AX; \
	JGT          WIDE; \
	SUBQ         AX, BX; \
	CMPQ         BX, $14; \
	JGT          WIDE; \
	CMPQ         front_room8(F), $0; \
	JLT          WIDE; \
	LEAQ         15(AX), CX; \
	CMPQ         CX, front_n(F); \
	JGT          EDGE; \
	SUBQ         front_bpad(F), CX; \
	CMPQ         CX, DX; \
	JGT          EDGE; \
	MOVQ         AX, front_anchor(F); \
	SUBQ         AX, DX; \
	BASES(F, HI, 0, Q); \
	MOVQ         front_lo1(F), AX; \
	XORL         C, C; \
	CLIMIT(F, C); \
	MOVQ         front_hi1(F), HZ; \
	SUBQ         AX, HZ; \
	NEGQ         HZ; \
	ADDQ         $15, HZ; \
	XORL         LO, LO; \
	MOVWQSX      front_vbest(F), CX; \
	SUBQ         front_floor8(F), CX; \
	MOVQ         CX, front_boff(F); \
	VMOVD        CX, X14; \
	VPBROADCASTW X14, Y14; \
	MOVQ         front_rot(F), CX; \
	MOVQ         front_rows(F)(CX*8), BX; \
	NARROW((BX)(AX*2)); \
	VINSERTI128  $HI, X5, Y1, Y1; \
	MOVQ         front_rows+8(F)(CX*8), BX; \
	NARROW(2(BX)(AX*2)); \
	MOVQ         front_hi1(F), BX; \
	SUBQ         AX, BX; \
	INCQ         BX; \
	VMOVD        BX, X13; \
	VPBROADCASTB X13, X13; \
	VPCMPGTB     lanes<>(SB), X13, X13; \
	VPXOR        X11, X13, X13; \
	VPMINSB      X13, X5, X5; \
	VINSERTI128  $HI, X5, Y0, Y0; \
	MOVQ         front_floor8(F), CX; \
	VMOVD        CX, X13; \
	VPBROADCASTB X13, X13; \
	VINSERTI128  $HI, X13, Y3, Y3; \
	VINSERTI128  $HI, front_qmask(F), Y7, Y7; \
	VMOVDQU      front_x1(F), X13; \
	VMOVDQU      X13, fX1+(HI*16)(SP); \
	VMOVDQU      front_amask(F), X13; \
	VMOVDQU      X13, fAM+(HI*16)(SP); \
	WHALF(F, HI, 0, LO, HZ); \
	MOVQ         $0, front_bslot+80(F)

// VSTEPU scores the next antidiagonal of both halves of the band, a U
// step, with P in Y0 and D in Y1: advance's loop body over every lane, the
// cells outside W pruned, then those below best-x (Y5 keeps the live lanes).
// It leaves the new P in Y1 (old P is the next D), B as the next step takes
// it, the mask of the halves whose best rose in CX (every bit of a half
// alike), the live lanes' mask in DX and the window of the S step after.
// The new best is the largest lane of each half, from rotations within the
// half: over the window's cells before the prune, which cannot raise best.
// VSTEPS is an S step, with P in Y1 and D in Y0.
#define VSTEPU \
	VPCMPEQB  Y2, Y12, Y13; \
	VPAND     Y8, Y13, Y13; \
	VPADDB    Y9, Y13, Y13; \
	VPADDSB   Y1, Y13, Y13; \
	VPALIGNR  $15, Y11, Y0, Y14; \
	VPMAXSB   Y0, Y14, Y14; \
	VPADDSB   Y10, Y14, Y14; \
	VPMAXSB   Y13, Y14, Y13; \
	VPMINSB   Y4, Y13, Y13; \
	VPSUBB    fX1(SP), Y3, Y14; \
	VPCMPGTB  Y14, Y13, Y5; \
	VPXOR     Y11, Y5, Y14; \
	VPMINSB   Y14, Y13, Y1; \
	HMAXB; \
	HULLS

#define VSTEPS \
	VPCMPEQB  Y2, Y12, Y13; \
	VPAND     Y8, Y13, Y13; \
	VPADDB    Y9, Y13, Y13; \
	VPADDSB   Y0, Y13, Y13; \
	VPALIGNR  $1, Y1, Y11, Y14; \
	VPMAXSB   Y1, Y14, Y14; \
	VPADDSB   Y10, Y14, Y14; \
	VPMAXSB   Y13, Y14, Y13; \
	VPMINSB   Y4, Y13, Y13; \
	VPSUBB    fX1(SP), Y3, Y14; \
	VPCMPGTB  Y14, Y13, Y5; \
	VPXOR     Y11, Y5, Y14; \
	VPMINSB   Y14, Y13, Y0; \
	HMAXB; \
	HULLU

// HMAXB raises B to the largest lane of each half of Y13, and sets CX to
// the mask of the halves it rose in and DX to the live lanes' mask.
#define HMAXB \
	VPALIGNR  $8, Y13, Y13, Y14; \
	VPMAXSB   Y14, Y13, Y14; \
	VPALIGNR  $4, Y14, Y14, Y6; \
	VPMAXSB   Y6, Y14, Y14; \
	VPALIGNR  $2, Y14, Y14, Y6; \
	VPMAXSB   Y6, Y14, Y14; \
	VPALIGNR  $1, Y14, Y14, Y6; \
	VPMAXSB   Y6, Y14, Y14; \
	VPCMPGTB  Y3, Y14, Y6; \
	VPMAXSB   Y14, Y3, Y3; \
	VPMOVMSKB Y6, CX; \
	VPMOVMSKB Y5, DX

// SLOWPATH is where a front's two compares send it, before a step of phase
// PH (0 U, 1 S) whose P is in register P and D in D. SLOW leaves by STOP
// when the step is past stop; otherwise, and from MOVE, the band is
// recentred on the step's window, d-1's cells lo..hi: it leaves by DEAD
// when the d-m bound is above hi, by WIDE when the window is wider than
// fifteen lanes or the bound cuts it, and by EDGE when no anchor A keeps
// it in lanes 0 to 14 with a's sixteen bases inside a (A <= n-15) and b's
// inside the view (d-A-15 >= -bpad). Else it settles best's first cell,
// centres the window at lane 7 as far as those bounds allow, shifts the
// front's half of P and D by the move t (down, or up for t < 0), rebases
// the half (P, D and B less best8-floor8, saturating, so that pruned stays
// pruned), loads the bases at the new anchor, sets the limit and the half
// of W again and goes back to TOP. HI is the half's index.
#define SLOWPATH(F, HI, PH, P, D, LO, HZ, Q, C, TOP, STOP, DEAD, EDGE, WIDE, SLOW, MOVE, NONE) \
SLOW: \
	DOF(F, C, AX); \
	CMPQ         AX, front_stop(F); \
	JGT          STOP; \
MOVE: \
	MOVQ         C, BX; \
	SHRQ         $21, BX; \
	ADDQ         front_anchor(F), BX; \
	LEAQ         (BX)(LO*1), CX; \
	ADDQ         $16, BX; \
	SUBQ         HZ, BX; \
	DOF(F, C, DX); \
	MOVQ         DX, AX; \
	SUBQ         front_m(F), AX; \
	CMPQ         AX, BX; \
	JGT          DEAD; \
	CMPQ         AX, CX; \
	JGT          WIDE; \
	MOVQ         BX, AX; \
	SUBQ         CX, AX; \
	CMPQ         AX, $14; \
	JGT          WIDE; \
	MOVQ         CX, AX; \
	ADDQ         BX, AX; \
	SHRQ         $1, AX; \
	SUBQ         $7, AX; \
	SUBQ         $14, BX; \
	CMPQ         AX, BX; \
	CMOVQLT      BX, AX; \
	MOVQ         DX, BX; \
	SUBQ         front_m(F), BX; \
	CMPQ         AX, BX; \
	CMOVQLT      BX, AX; \
	XORL         BX, BX; \
	CMPQ         AX, BX; \
	CMOVQLT      BX, AX; \
	CMPQ         AX, CX; \
	CMOVQGT      CX, AX; \
	MOVQ         front_n(F), BX; \
	SUBQ         $15, BX; \
	CMPQ         AX, BX; \
	CMOVQGT      BX, AX; \
	LEAQ         -15(DX), BX; \
	ADDQ         front_bpad(F), BX; \
	CMPQ         AX, BX; \
	CMOVQGT      BX, AX; \
	MOVQ         C, BX; \
	SHRQ         $21, BX; \
	ADDQ         front_anchor(F), BX; \
	ADDQ         $16, BX; \
	SUBQ         HZ, BX; \
	SUBQ         $14, BX; \
	CMPQ         AX, BX; \
	JLT          EDGE; \
	MOVQ         DX, BX; \
	SUBQ         front_m(F), BX; \
	CMPQ         AX, BX; \
	JLT          EDGE; \
	TESTQ        AX, AX; \
	JLT          EDGE; \
	MOVQ         AX, Q; \
	VEXTRACTI128 $HI, Y3, X13; \
	RESOLVE(F, NONE); \
	MOVQ         C, BX; \
	ADDQ         $STEPONE, BX; \
	SHRQ         $21, BX; \
	MOVQ         Q, AX; \
	SUBQ         BX, AX; \
	MOVQ         AX, CX; \
	SUBQ         front_anchor(F), CX; \
	MOVQ         AX, front_anchor(F); \
	SUBQ         CX, LO; \
	ADDQ         CX, HZ; \
	ADDQ         $15, CX; \
	SHLQ         $7, CX; \
	LEAQ         ·bandShifts+(HI*64)(SB), BX; \
	ADDQ         BX, CX; \
	VPSHUFB      (CX), P, P; \
	VPOR         32(CX), P, P; \
	VPSHUFB      (CX), D, D; \
	VPOR         32(CX), D, D; \
	VEXTRACTI128 $HI, Y3, X13; \
	VMOVD        X13, CX; \
	MOVBQSX      CX, CX; \
	SUBQ         front_floor8(F), CX; \
	ADDQ         CX, front_boff(F); \
	VMOVD        CX, X13; \
	VPBROADCASTB X13, Y13; \
	VPAND        halves<>+(HI*16)(SB), Y13, Y13; \
	VPSUBSB      Y13, P, P; \
	VPSUBSB      Y13, D, D; \
	VPSUBSB      Y13, Y3, Y3; \
	MOVQ         Q, AX; \
	DOF(F, C, DX); \
	SUBQ         AX, DX; \
	BASES(F, HI, PH, Q); \
	CLIMIT(F, C); \
	WHALF(F, HI, PH, LO, HZ); \
	INCQ         front_moves(F); \
	JMP          TOP

// SPILL hands the front in F back to its struct and narrow rows, as the
// memory loop and leave read them, from its half of B, P (Y0) and D (Y1):
// d, the rotation it would have reached, lo1, hi1 and the cells, best-base
// and best's first cell, and the two rows d reads, widened, with d-1's
// sentinels and one below d-2's band. C's count is rounded, as a dead
// front's sum may be below zero. Q is scratch.
#define SPILL(F, HI, LO, HZ, Q, C, NONE) \
	VEXTRACTI128 $HI, Y3, X13; \
	VMOVD        X13, BX; \
	RESOLVE(F, NONE); \
	INCQ         front_spills(F); \
	LEAQ         0x80000(C), CX; \
	SHRQ         $20, CX; \
	LEAQ         -1(CX), Q; \
	SARQ         $1, Q; \
	ADDQ         front_anchor(F), Q; \
	MOVQ         CX, AX; \
	SHRQ         $1, AX; \
	ADDQ         AX, front_anchor(F); \
	MOVQ         front_d(F), AX; \
	ADDQ         CX, AX; \
	IMUL3Q       $(STEPONE+WIDTHS), CX, DX; \
	SUBQ         C, DX; \
	ADDQ         DX, front_cells(F); \
	ADDQ         CX, front_inBand(F); \
	ADDQ         front_rot(F), CX; \
	MOVL         $0xAAAAAAAB, DX; \
	IMULQ        CX, DX; \
	SHRQ         $33, DX; \
	LEAQ         (DX)(DX*2), DX; \
	SUBQ         DX, CX; \
	MOVQ         CX, front_rot(F); \
	MOVQ         AX, front_d(F); \
	MOVQ         front_boff(F), DX; \
	VMOVD        DX, X14; \
	VPBROADCASTW X14, Y14; \
	MOVBQSX      BX, AX; \
	ADDQ         DX, AX; \
	VMOVD        AX, X13; \
	VPBROADCASTW X13, Y13; \
	VMOVDQU      Y13, front_vbest(F); \
	MOVQ         front_rows(F)(CX*8), DX; \
	VEXTRACTI128 $HI, Y1, X13; \
	WIDEN(X13); \
	VMOVDQU      Y13, 2(DX)(Q*2); \
	XORL         AX, AX; \
	CMPQ         Q, AX; \
	CMOVQGT      Q, AX; \
	MOVW         pruned, (DX)(AX*2); \
	MOVQ         front_anchor(F), AX; \
	MOVQ         front_rows+8(F)(CX*8), DX; \
	VEXTRACTI128 $HI, Y0, X13; \
	WIDEN(X13); \
	VMOVDQU      Y13, 2(DX)(AX*2); \
	MOVQ         LO, CX; \
	ADDQ         AX, CX; \
	MOVQ         CX, front_lo1(F); \
	MOVW         pruned, (DX)(CX*2); \
	MOVQ         $15, CX; \
	SUBQ         HZ, CX; \
	ADDQ         AX, CX; \
	MOVQ         CX, front_hi1(F); \
	MOVW         pruned, 4(DX)(CX*2)

// SWAPPD puts P back in Y0 and D in Y1 after an S step's layout.
#define SWAPPD \
	VMOVDQA Y0, Y13; \
	VMOVDQA Y1, Y0; \
	VMOVDQA Y13, Y1

// func frontsAVX2(st *front) (id, exit int)
//
// The loop of advance (xdrop.go), an antidiagonal of each front on the ring
// in turn, until one front must go back to Go.
//
// Two loops, one routine. The band loop holds the front and the one after
// it on the ring (or the front alone, if it is alone) in registers, two
// fronts' bands in the halves of one set of vectors (above), and scores an
// antidiagonal of both at once: the rows it reads are the last two it made,
// a's and b's bases are loaded a vector at a step, and of a front's state
// only the row that raises best is stored. Its cells are int8, a cell's
// score less front.base and front.boff, and the adds saturate, so a cell
// fed only by pruned neighbours lands at most maxAbs above pruned, under
// the prune threshold; the band's limit keeps best8 at or below ceil8 while
// an antidiagonal is scored, and each recentring rebases the half to
// floor8, so no live cell saturates. Whichever front must go back to Go,
// both are spilled to their structs and rows first. A window the band
// cannot hold, or scores that do not fit its cells, send both to the memory
// loop: the fronts' state in their structs, the rows in the narrow rows
// (int16, a cell being its score less front.base, and pruned
// math.MinInt16; row index i+1 holds cell i), one front's antidiagonal
// after another, sixteen cells a vector; it hands back to the band loop
// when a window is ten cells or fewer and the next front's last one was
// too. Go's stop horizon keeps best-base at or below ceil there. Nothing
// about the cells is branched on: best, lo and hi come from masks
// (VPMOVMSKB, then TZCNT and LZCNT in the band, BSF and BSR in the memory
// loop) and conditional moves.
//
// A cell is stored as min(v, (v < prune) XOR MaxInt), the compare's mask
// turned into pruned or MaxInt; the substitution score is mismatch + (ai ==
// bj AND match-mismatch).
TEXT ·frontsAVX2(SB), NOSPLIT, $64-24
	MOVQ st+0(FP), DI

band:
	MOVL         front_match(DI), AX
	SUBL         front_mismatch(DI), AX
	VMOVD        AX, X8
	VPBROADCASTB X8, Y8
	VPBROADCASTB front_mismatch(DI), Y9
	VPBROADCASTB front_gap(DI), Y10
	MOVL         $0x80, AX
	VMOVD        AX, X11
	VPBROADCASTB X11, Y11
	VPXOR        Y15, Y15, Y15
	MOVQ         front_next(DI), SI
	LOAD(DI, 0, R8, R9, R10, R11, stop, dead, edge, memory)
	CMPQ         SI, DI
	JEQ          loneU
	LOAD(SI, 1, R12, R13, R14, R15, load1stop, load1dead, load1edge, memory)

	// The pair loop: a U step of both fronts, then an S step.
pairU:
	CMPQ R11, front_climit(DI)
	JGE  slow0U
	CMPQ R9, $2
	JLT  move0U
	CMPQ R15, front_climit(SI)
	JGE  slow1U
	CMPQ R13, $2
	JLT  move1U
	LEAQ         STEPONE(R11)(R9*1), R11
	ADDQ         R8, R11
	LEAQ         STEPONE(R15)(R13*1), R15
	ADDQ         R12, R15
	VMOVDQU      (R10), X13
	VINSERTI128  $1, (R14), Y13, Y13
	VPSHUFB      Y7, Y13, Y12
	ADDQ         front_sigma(DI), R10
	ADDQ         front_sigma(SI), R14
	VSTEPU
	MOVL         CX, AX
	ANDL         $64, AX
	VMOVDQU      X1, front_bslot(DI)(AX*1)
	MOVQ         R11, front_bslot+16(DI)(AX*1)
	SHRL         $16, CX
	ANDL         $64, CX
	VEXTRACTI128 $1, Y1, front_bslot(SI)(CX*1)
	MOVQ         R15, front_bslot+16(SI)(CX*1)
	TZCNTW       DX, R8
	LZCNTW       DX, R9
	SHRL         $16, DX
	TZCNTW       DX, R12
	LZCNTW       DX, R13
	CMPQ         R9, $16
	JEQ          pairdead0S
	CMPQ         R13, $16
	JEQ          pairdead1S

pairS:
	CMPQ  R11, front_climit(DI)
	JGE   slow0S
	TESTQ R8, R8
	JEQ   move0S
	CMPQ  R15, front_climit(SI)
	JGE   slow1S
	TESTQ R12, R12
	JEQ   move1S
	LEAQ         STEPONE(R11)(R9*1), R11
	ADDQ         R8, R11
	LEAQ         STEPONE(R15)(R13*1), R15
	ADDQ         R12, R15
	MOVQ         front_adelta(DI), AX
	VMOVDQU      (R10)(AX*1), X13
	MOVQ         front_adelta(SI), BX
	VINSERTI128  $1, (R14)(BX*1), Y13, Y13
	VPSHUFB      fAM(SP), Y13, Y2
	VSTEPS
	MOVL         CX, AX
	ANDL         $64, AX
	VMOVDQU      X0, front_bslot(DI)(AX*1)
	MOVQ         R11, front_bslot+16(DI)(AX*1)
	SHRL         $16, CX
	ANDL         $64, CX
	VEXTRACTI128 $1, Y0, front_bslot(SI)(CX*1)
	MOVQ         R15, front_bslot+16(SI)(CX*1)
	TZCNTW       DX, R8
	LZCNTW       DX, R9
	SHRL         $16, DX
	TZCNTW       DX, R12
	LZCNTW       DX, R13
	CMPQ         R9, $16
	JEQ          pairdead0U
	CMPQ         R13, $16
	JEQ          pairdead1U
	JMP          pairU

	// The lone loop: the front in DI alone, in the low half.
loneU:
	CMPQ R11, front_climit(DI)
	JGE  slowlU
	CMPQ R9, $2
	JLT  movelU
	LEAQ    STEPONE(R11)(R9*1), R11
	ADDQ    R8, R11
	VMOVDQU (R10), X13
	VPSHUFB Y7, Y13, Y12
	ADDQ    front_sigma(DI), R10
	VSTEPU
	ANDL    $64, CX
	VMOVDQU X1, front_bslot(DI)(CX*1)
	MOVQ    R11, front_bslot+16(DI)(CX*1)
	TZCNTW  DX, R8
	LZCNTW  DX, R9
	CMPQ    R9, $16
	JEQ     scoreddead0S

loneS:
	CMPQ  R11, front_climit(DI)
	JGE   slowlS
	TESTQ R8, R8
	JEQ   movelS
	LEAQ    STEPONE(R11)(R9*1), R11
	ADDQ    R8, R11
	MOVQ    front_adelta(DI), AX
	VMOVDQU (R10)(AX*1), X13
	VPSHUFB fAM(SP), Y13, Y2
	VSTEPS
	ANDL    $64, CX
	VMOVDQU X0, front_bslot(DI)(CX*1)
	MOVQ    R11, front_bslot+16(DI)(CX*1)
	TZCNTW  DX, R8
	LZCNTW  DX, R9
	CMPQ    R9, $16
	JEQ     scoreddead0U
	JMP     loneU

	SLOWPATH(DI, 0, 0, Y0, Y1, R8, R9, R10, R11, pairU, stop0, dead0, edge0, wide0, slow0U, move0U, none0U)
	SLOWPATH(SI, 1, 0, Y0, Y1, R12, R13, R14, R15, pairU, stop1, dead1, edge1, wide1, slow1U, move1U, none1U)
	SLOWPATH(DI, 0, 1, Y1, Y0, R8, R9, R10, R11, pairS, stop0S, dead0S, edge0S, wide0S, slow0S, move0S, none0S)
	SLOWPATH(SI, 1, 1, Y1, Y0, R12, R13, R14, R15, pairS, stop1S, dead1S, edge1S, wide1S, slow1S, move1S, none1S)
	SLOWPATH(DI, 0, 0, Y0, Y1, R8, R9, R10, R11, loneU, stop0, dead0, edge0, wide0, slowlU, movelU, nonelU)
	SLOWPATH(DI, 0, 1, Y1, Y0, R8, R9, R10, R11, loneS, stop0S, dead0S, edge0S, wide0S, slowlS, movelS, nonelS)

	// A scored antidiagonal with no live cell: C took its window, and d
	// stays where it is, so C gives back the count and the WIDTHS the spill
	// counts a d by. Where both fronts died in one step, the front in SI
	// spills dead too (its window empty, LO 16 and HZ 16), and reports it
	// the next time it is taken up. The step before an S step left P in Y1.
scoreddead0S:
	SUBQ $(STEPONE+WIDTHS), R11
	JMP  dead0S
scoreddead0U:
	SUBQ $(STEPONE+WIDTHS), R11
	JMP  dead0
pairdead0S:
	SUBQ $(STEPONE+WIDTHS), R11
	CMPQ R13, $16
	JNE  dead0S
	SUBQ $(STEPONE+WIDTHS), R15
	JMP  dead0S
pairdead1S:
	SUBQ $(STEPONE+WIDTHS), R15
	JMP  dead1S
pairdead0U:
	SUBQ $(STEPONE+WIDTHS), R11
	CMPQ R13, $16
	JNE  dead0
	SUBQ $(STEPONE+WIDTHS), R15
	JMP  dead0
pairdead1U:
	SUBQ $(STEPONE+WIDTHS), R15
	JMP  dead1

	// Exits from an S step's layout: P back in Y0 first.
stop0S:
	SWAPPD
	JMP stop0
dead0S:
	SWAPPD
	JMP dead0
edge0S:
	SWAPPD
	JMP edge0
wide0S:
	SWAPPD
	JMP wide0
stop1S:
	SWAPPD
	JMP stop1
dead1S:
	SWAPPD
	JMP dead1
edge1S:
	SWAPPD
	JMP edge1
wide1S:
	SWAPPD
	JMP wide1

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
	// The windows are read again from P: a recentring may have moved a
	// front's LO and HZ for a step that the other front's exit left
	// unscored.
	VPCMPGTB  Y11, Y0, Y5
	VPMOVMSKB Y5, DX
	TZCNTW    DX, R8
	LZCNTW    DX, R9
	SHRL      $16, DX
	TZCNTW    DX, R12
	LZCNTW    DX, R13
	SPILL(DI, 0, R8, R9, R10, R11, spilled0)
	CMPQ SI, DI
	JEQ  spilled
	SPILL(SI, 1, R12, R13, R14, R15, spilled1)
spilled:
	CMPQ id+8(FP), $0
	JEQ  spilledwhich
	MOVQ SI, DI
spilledwhich:
	CMPQ exit+16(FP), $0
	JGE  done
	INCQ front_toMemory(DI)

	// The memory loop's constants, over the band's.
memory:
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
	VMOVDQU      widen<>(SB), Y14
	JMP          memnext

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
	//	Y14 widen's mask
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
	// next front's last one was too, the d-m bound cuts neither, and both
	// fronts' scores fit the band's int8 cells.
	CMPQ AX, $10
	JGT  vectors
	CMPQ CX, R12
	JNE  vectors
	CMPQ front_room8(DI), $0
	JLT  vectors
	MOVQ front_next(DI), R14
	CMPQ front_room8(R14), $0
	JLT  vectors
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
	VMOVDQU front_tail(DI)(CX*2), Y13 // prunes the lanes past the window

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
	VBROADCASTI128 -15(DX), Y1     // 1-lanes past lane 0's base, as widen has it
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
