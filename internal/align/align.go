// Package align implements the pairwise-alignment kernels of the pipeline:
// full Smith-Waterman local alignment (the O(|s|·|t|) reference) and the
// x-drop seed-and-extend kernel that diBELLA uses in production (the paper
// delegates to SeqAn's implementation of Zhang et al. 2000; here it is
// built from scratch).
//
// X-drop extension is what makes pairwise alignment linear in read length:
// starting from an exactly matching seed, the DP explores antidiagonals
// outward and abandons any cell whose score falls more than X below the
// best seen, so divergent pairs terminate after a constant-ish band. The
// paper's Fig. 8 attributes alignment-stage load imbalance partly to this
// early exit; every kernel here therefore reports the exact number of DP
// cells it computed, which both the machine model and the load-balance
// experiments consume.
//
// # The x-drop kernel's layout
//
// There is one x-drop kernel (xdrop.go); the kernel it replaced survives as
// referenceXDrop in reference_test.go, the oracle of the differential fuzz
// target. An extension walks antidiagonals d = i+j outward from cell (0,0).
// Three int32 rows roll over antidiagonals d, d-1 and d-2; a row stores cell
// (i, d-i) at index i+1 and is live over a window [lo,hi] of i. After a
// row's window has shrunk to its surviving cells, the pruned sentinel is
// written at lo-1 and hi+1. Every read the next two antidiagonals make of
// that row lands on a stored cell or on one of those two sentinels, so the
// recurrence max(up, left)+gap, diag+sub needs no window test, no "is this
// neighbour pruned" test and no i>=1 / j>=1 test: a cell fed only by pruned
// neighbours falls below the prune threshold and is stored as pruned again.
// Nothing is cleared between antidiagonals or between calls; cells outside
// the sentinels are stale and unread. Cells (0,j) and (i,0) read base 0 of
// a sequence, the seed base beside the flank, and their diagonal neighbour
// is a sentinel, so what the base is cannot matter.
//
// The flanks are read where they lie in the caller's reads: a right flank
// forward through s and t from the seed's last base, a left flank backward
// from its first (front.sigma, +1 or -1). Along an antidiagonal i rises
// while j falls, so one read is always read against its memory order: t on
// a right flank, s on a left. The Go loop takes a window of each, one read
// ascending and one descending; the substitution test being symmetric, one
// loop serves both flanks, its bounds checks outside the loop. Rows live in
// a sync.Pool'd workspace: steady state allocates nothing.
//
// An extension in progress is a front (xdrop.go): the next antidiagonal d,
// the surviving window lo1..hi1 of d-1, best and the first cell that scored
// it, the cell count, n, m, x and the scores, the flank's direction, the
// rows' rotation, and the narrow layout's base, floor and ceil (below); for
// the assembly routine, also the narrow rows, the two reads and how a vector
// of each is loaded, best-base and x as vectors, a stop horizon, the next
// front on its ring and the band's fields. Two kernels pick an extension up
// from there and leave it there. advance is the Go loop, on the int32 rows: the whole
// kernel on every GOARCH but amd64, on an amd64 without AVX2 and for an x
// the narrow rows cannot hold, the edge handler otherwise, and the oracle.
// frontsAVX2 (xdrop_amd64.s; AVX2 probed once from CPUID, no flag, no build
// tag) is the same loop in assembly over two extensions at once: sixteen
// int8 cells of each a step in the band (below), sixteen int16 cells a
// vector in its memory loop.
//
// XDropBatch queues its seeds' extensions, each seed's right flank and then
// its left, and runs them in a workspace of fronts slots (two: below).
// Every slot takes the queue's next extension; the routine advances the live fronts,
// one antidiagonal of each in turn, and returns the first front that must
// go back to Go, with the reason: the window is at an edge (below),
// antidiagonal d has no live cell (the extension is over), or d has passed
// the front's stop horizon. Go deals with that front alone while the other
// waits in the routine's form (slot.resume): after an edge the Go loop runs
// eight antidiagonals before the routine is offered the extension again;
// after a stop it rebases (below), or sets a new horizon past the cap, and
// the routine takes the front up where it stopped; an extension that is
// over adds its part to its seed's Result, and the slot takes the queue's
// next, so the fronts stay busy across seeds and tasks, however lopsided a
// seed's two flanks are. The next call starts at the slot after the one
// that returned. The horizon is at most 4096 antidiagonals on (assembly has
// no preemption point, and a stop-the-world should not wait on a 100 kb
// read), no later than n+m, and no later than best-base could pass ceil.
// XDrop is a batch of one seed: its two flanks are the two fronts. The
// routine stores no pointer (there is no write
// barrier in assembly): the rows rotate by a count (front.rot) that both
// kernels keep. The fronts' pointers into the caller's reads are cleared
// before the workspace goes back to the pool.
//
// The routine's rows (what its memory loop scores, and where the band
// spills) are int16: a narrow cell holds its score less front.base, and
// pruned is math.MinInt16. Its adds saturate (VPADDSW), so a
// cell fed only by pruned neighbours comes out at most maxAbs above pruned,
// the max and the prune compare are signed word operations, and nothing
// overflows as long as every live cell it reads or makes is in range. That
// holds by two bounds kept on best-base. A live cell of d-1 or d-2 scores at
// least best-x-2·maxAbs (it passed the prune when best was at most two
// antidiagonals' climb lower, and best climbs at most maxAbs an antidiagonal),
// and a cell of d scores at most best+maxAbs. So with floor =
// MinInt16+1+x+2·maxAbs and ceil = MaxInt16-maxAbs, best-base in
// [floor, ceil] keeps every cell read above pruned, every cell made below
// MaxInt16, and pruned+maxAbs under the prune threshold. enter sets base so
// that best-base is floor and narrows the two windows antidiagonal d reads
// (d-1 over its window and sentinels, d-2 over what d reads of it: O(window)),
// and leave widens the two the Go loop reads next. best-base only climbs, by
// at most maxAbs an antidiagonal, so the horizon ends the call where it
// could first pass ceil, and Go rebases: it leaves and enters again, which
// puts best-base back at floor. At unit scores best climbs at most one an
// antidiagonal, so only an extension more than 65 524 antidiagonals long
// (at x=7) is rebased; TestSteadyMatchesLoop and the batch tests force it
// with scores at MaxScoreMagnitude. floor <= ceil is
// x+3·maxAbs <= 65534 (front.fits): x=7 and x=30 fit at any scores,
// -xdrop 1000000000 fits until x's clamp (2·total·maxAbs) passes it. Beyond
// it the routine is not offered the extension, which runs on the Go loop as
// it would without AVX2 (TestSteadyDeclinesPastTheBound).
//
// The routine works in whole vectors, so with vw the window width rounded up
// to 16 it reads vw bases of each sequence, vw+1 cells of the d-1 row and vw
// of the d-2 row, and stores vw cells; the lanes past the window are computed
// from whatever lies there (stale cells, bases outside the window) and stored
// as pruned, which is what a cell beyond the upper sentinel may hold. A
// vector of bases is a 16-byte load into both halves of a register and a
// VPSHUFB that zero-extends the bytes into the lanes in order or, for the
// read taken descending, reversed, its load starting 15 bytes lower
// (front.amask, qmask, aoff, qoff). The lanes past a window read on past
// its last cell: on s past base n, its end on a right flank and s[0] on a
// left, so never past n; on t below base 0, into the seed and beyond, for
// bpad bases, as many as t holds there and at most 15 (overread). Before
// every antidiagonal the memory loop checks lo+vw-1 <= n and lo+vw-1 <=
// d+bpad, and returns exitEdge otherwise. The band (below) reads sixteen
// bases of each read from its anchor, never below lo: it loads a's from
// an anchor of at most n-15 and checks t's against bpad each time it is
// loaded or recentred, and its limit ends a run of steps before lane 0
// would read past t's base m or the anchor past n-15 (the narrow rows are
// 15 cells longer for its stores). So no pointer is formed outside the
// caller's slices. A flank of s 16 bases long or more, beside 15 bases of
// t, is not at an edge near cell (0,0), and the routine takes it from its
// first antidiagonal. The Go loop owns the rest: a shorter flank, and the
// windows near a read's end that neither loop can read whole.
// TestXDropReadsStayInsideTheReads runs both kernels on reads flush against
// a page that faults.
//
// # The band
//
// At x=7 one vector is the window on nearly every antidiagonal of the
// pipeline's read pairs, and there the routine keeps each front in
// registers (the band loop of xdrop_amd64.s). A front's band is sixteen
// int8 lanes, one 128-bit half of a ymm register, and two fronts share
// every register: lane k of P holds cell anchor+k of the last antidiagonal
// scored and lane k of D cell anchor'+k of the one before, and a step
// scores an antidiagonal of both fronts with one set of vector
// instructions. Up or left is P moved a lane within its half (VPALIGNR, so
// no cross-lane shuffle is on the chain), one horizontal max of in-lane
// rotations raises both fronts' best, and one VPMOVMSKB gives both live
// masks, whose TZCNT and LZCNT are each front's window.
//
// The band slides: its anchor moves up a lane every second antidiagonal
// (an S step; a U step keeps it), so a path along the diagonal stays in
// place, left and up swap between P and P moved, and the diagonal is D
// itself, unmoved. The next antidiagonal's window, d-1's cells from lo1 to
// hi1+1, is the hull of the cells with a live left or up, read from the
// live lanes by a carry (x|-x) within each quadword and a shuffle across
// them, once as they lie and once reversed (HULLU, HULLS); the lanes
// outside it are pruned, since a cell there whose only live neighbour is
// its diagonal would otherwise live. Only when the window would leave the
// lanes (its top past lane 14 before a U step, its bottom at lane 0 before
// an S step), or the band's limit is reached, does the routine leave the
// loop: it recentres the band on the window (P and D moved by a VPSHUFB of
// a table, bandShifts), rebases, and loads the bases at the new anchor. On
// the pipeline's pairs that is once in some 180 antidiagonals; a band
// anchored where the window starts, as the int16 band was, moved every 15.
// a's and b's bases are loaded a vector at a step, b's on a U step and a's
// on an S step; best's first cell costs no scalar work a step: every row is
// stored, at an address a conditional mask picks (front.bslot), and bestI
// is read from the row that last raised best when the band is recentred or
// the front leaves it.
//
// A band cell is its score less front.base less front.boff, and pruned is
// -128; adds saturate (VPADDSB). The bounds of the int16 rows hold at int8
// with floor8 = MinInt8+1+x+2·maxAbs and ceil8 = MaxInt8-maxAbs: boff puts
// best at floor8 when the band is loaded, each recentring rebases it there
// (P, D and B less best8-floor8, saturating, so pruned stays pruned), and
// the band's limit (front.climit) ends a run of steps before best8 could
// pass ceil8, room8 = (ceil8-floor8)/maxAbs antidiagonals on, when the
// routine recentres in place. floor8 <= ceil8 is x+3·maxAbs <= 254: x=7
// and x=30 at unit scores fit; an extension that does not fit is never
// loaded into the band, and runs on the memory loop
// (TestBandHoldsOnlyWhatFitsInt8). The band holds a window of up to fifteen
// cells. A wider one, or one the d-m bound cuts from below, sends both
// fronts to the memory loop: their state in their structs and their rows
// in the narrow rows (int16, widened from the band), a loop over the
// window's vectors with the shrink from masks. It hands back to the band
// loop once a window is ten cells or fewer and the next front's last one
// was too. On any exit the routine spills every front in registers to its
// struct and narrow rows (front.d, rot, lo1, hi1, the cells, best, bestI
// and bestD; d-1's row with its sentinels, d-2's with one below the band),
// exactly where leave, the memory loop and a later entry read them; the Go
// side (runFronts, slot.resume, enter and leave, horizon, the queue) does
// not know the band exists. TestSteadyPathsOnTheRungs holds at least 95%
// of PipelineX7's and SimilarX7's antidiagonals to the band (99.7% and
// 99.9%).
//
// On BenchmarkXDropBatchPipelineX7's 231 seeds the band runs 1.50x the
// int16 band of two fronts in registers it replaced (/batch, eleven
// alternated pairs on one host) and 1.19x one seed a call (/calls), where a
// call's longer flank runs alone in the low half (CHANGES.md has the
// variants measured on the way).
//
// TestSteadyMatchesLoop enters the routine at every antidiagonal of a set of
// extensions, alone and beside a second front, and holds what both leave to
// the Go loop advanced as far. It requires the band, windows of one vector
// and of more on the memory loop, a new best past a wide window's
// first vector, recentrings of the band, a band that went wide and came back, a
// spill from the band at each exit, every exit, a stop at the rebase
// horizon, a lone front and a rebase of the other front to have been
// reached; the front counts the band's part itself (front.inBand, moves,
// spills, toMemory, toBand).
//
// Things to know before touching the assembly. It must be VEX-encoded
// throughout: one legacy-SSE instruction (MOVQ AX, X0 where VMOVD was meant)
// among the broadcasts makes every call pay the SSE/AVX state transition,
// and a single one made the whole x=7 kernel ten times slower. go vet's
// asmdecl checks the frame, not the front: field offsets come from go_asm.h,
// so a reordered struct still assembles right, but it may not run as fast:
// a best row the band stores every antidiagonal, or a vector the memory
// loop reads, that straddles two cache lines costs every antidiagonal;
// moved by a few words off whole lines, the front's vectors once made the
// lone band a tenth slower (TestFrontVectorsAreAligned). The band loop is
// written as macros (LOAD, VSTEPU and VSTEPS, SLOWPATH, SPILL) expanded once
// for each front, step and register set; pprof charges a macro's samples to
// the line that expands it. The
// band's LZCNT runs as BSR, silently wrong, on a CPU without it: cpuid.AVX2
// checks for it (every CPU with AVX2 has it). The band's window is the hull
// computed from the live lanes, not a table load indexed by TZCNT and
// LZCNT: eight fewer micro-operations a step, but the scalar round trip is
// some eight cycles longer on the chain from one antidiagonal's live lanes
// to the next one's, and the batch lost 13%.
//
// int32 is safe for the Go loop because it is checked, not assumed:
// Scoring.Validate bounds each score by MaxScoreMagnitude, and XDrop panics
// if (len(s)+len(t)) times the largest score magnitude could bring a live
// score near the sentinel. An x larger than any score difference the inputs
// can produce is clamped to exactly that difference, which cannot change
// what is pruned.
//
// Cells counts every cell of every window as computed, that is, before the
// window shrinks: a cell that is computed and then pruned was still paid
// for. machine.Model prices alignment by this count, so it is part of the
// kernel's contract and must not change with the implementation.
package align

import "fmt"

// Scoring is a linear-gap scoring scheme. Match must be positive; Mismatch
// and Gap must be negative (BELLA's defaults are +1/-1/-1); none may exceed
// MaxScoreMagnitude in size.
type Scoring struct {
	Match    int
	Mismatch int
	Gap      int
}

// DefaultScoring is BELLA's +1/-1/-1 scheme.
var DefaultScoring = Scoring{Match: 1, Mismatch: -1, Gap: -1}

// MaxScoreMagnitude bounds |Match|, |Mismatch| and |Gap|. XDrop keeps its
// cells in int32: with scores this small a pair of reads totalling under
// 2^19 bases fits at any scoring, and under 2^29 bases at BELLA's +1/-1/-1.
const MaxScoreMagnitude = 1 << 10

// inRange reports whether every score is within MaxScoreMagnitude of zero.
func (sc Scoring) inRange() bool {
	for _, v := range [...]int{sc.Match, sc.Mismatch, sc.Gap} {
		if v < -MaxScoreMagnitude || v > MaxScoreMagnitude {
			return false
		}
	}
	return true
}

// Validate reports whether the scheme is sane.
func (sc Scoring) Validate() error {
	if !sc.inRange() {
		return fmt.Errorf("align: scoring %+v exceeds magnitude %d", sc, MaxScoreMagnitude)
	}
	if sc.Match <= 0 {
		return fmt.Errorf("align: match score %d must be positive", sc.Match)
	}
	if sc.Mismatch >= 0 {
		return fmt.Errorf("align: mismatch score %d must be negative", sc.Mismatch)
	}
	if sc.Gap >= 0 {
		return fmt.Errorf("align: gap score %d must be negative", sc.Gap)
	}
	return nil
}

// sub returns the substitution score for aligning bytes a and b.
func (sc Scoring) sub(a, b byte) int {
	if a == b {
		return sc.Match
	}
	return sc.Mismatch
}

// Result describes one pairwise alignment. Coordinate ranges are half-open
// over the original sequences.
type Result struct {
	Score  int
	SStart int
	SEnd   int
	TStart int
	TEnd   int
	// Cells is the number of DP cells the kernel computed: the exact
	// computational cost, used by the machine model and the load-imbalance
	// analysis.
	Cells int64
}
