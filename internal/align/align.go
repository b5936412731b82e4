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
// the sentinels are stale and unread. For the same reason the two sequences
// are handed to the kernel with one spare base before their first (the last
// seed base, or a spare buffer slot): cells (0,j) and (i,0) index it, and
// their diagonal neighbour is a sentinel, so what the base is cannot matter.
//
// Along an antidiagonal i rises while j falls, so the second sequence is
// held reversed and both are read in ascending order over pre-sliced
// windows, which lets the compiler drop the bounds checks in the loop. The
// right extension reverses t's flank; the left extension is the same loop
// over reversed views, which means reversing s's flank and reading t's as
// it lies. The reversal is built on demand, doubling ahead of the
// antidiagonal that needs it, so an extension that dies after a few cells
// costs a few dozen bytes of copying, not a flank. Rows and the reversal
// buffer live in a sync.Pool'd workspace: steady state allocates nothing.
//
// An extension in progress is a front (xdrop.go): the next antidiagonal d, the
// surviving window lo1..hi1 of d-1, best and the first cell that scored it,
// the cell count, n, m, x and the three scores, how far past their last base
// the two views may be read, the rows' rotation, and the narrow layout's
// base, floor and ceil (all below); while the assembly routine has it, also
// index 0 of the three narrow rows and of the two base views, best-base and
// x as vectors, a stop horizon, the next front on the routine's ring, and
// the band's own fields (below). Two kernels pick an extension up from there
// and leave it there. advance is the Go loop, on the int32 rows: the whole
// kernel on every GOARCH but amd64, on an amd64 without AVX2 and for an x
// the narrow rows cannot hold, the edge handler otherwise, and the oracle.
// frontsAVX2 (xdrop_amd64.s; AVX2 probed once from CPUID, no flag, no build
// tag) is the same loop in assembly, sixteen int16 cells a step, over two
// extensions at once.
//
// XDropBatch queues its seeds' extensions, each seed's right flank and then
// its left, and runs them in a workspace of fronts slots (two: below), each
// with its own front, rows, narrow rows and reversal buffer. Every slot
// takes the queue's next extension; the routine advances the live fronts,
// one antidiagonal of each in turn, and returns the first front that must
// go back to Go, with the reason: the window is at an edge (below),
// antidiagonal d has no live cell (the extension is over), or d has passed
// the front's stop horizon. Go deals with that front alone while the other
// waits in the routine's form (slot.resume): after an edge the Go loop runs
// eight antidiagonals before the routine is offered the extension again;
// after a stop it fills the reversal further, or rebases (below), and the
// routine takes the front up where it stopped; an extension that is over
// adds its part to its seed's Result, and the slot takes the queue's next,
// so the fronts stay busy across seeds and tasks, however lopsided a seed's
// two flanks are. The next call starts at the slot after the one that
// returned. The horizon is the last antidiagonal whose bases the reversal
// has produced, at most 4096 on (assembly has no preemption point, and a
// stop-the-world should not wait on a 100 kb read), and no later than
// best-base could pass ceil. XDrop is a batch of one seed: its two flanks
// are the two fronts. The routine stores no pointer (there is no write
// barrier in assembly): the rows rotate by a count (front.rot) that both
// kernels keep. The fronts' pointers into the caller's reads are cleared
// before the workspace goes back to the pool.
//
// The routine's rows are int16: a narrow cell holds its score less
// front.base, and pruned is math.MinInt16. Its adds saturate (VPADDSW), so a
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
// as pruned, which is what a cell beyond the upper sentinel may hold. Those
// lanes' reads run past the window's last base, so each base view may run on
// for up to 15 bases (overread) past its last: the reversal buffer's own spare
// bytes, and on t's side of a left extension the rest of the seed, which lies
// inside t. Before every antidiagonal the routine checks that all of it lies
// inside the views as they are, lo+vw-1 <= alast (n, plus the overread a's
// view has) and lo+vw-1 <= d+bpad (the overread brev's view has), and returns
// exitEdge otherwise. The band (below) reads sixteen lanes from its anchor,
// never below lo, so it checks the same two bounds with vw = 16 each time
// the anchor moves, and that its lane 0 does not read before brev's first
// base each antidiagonal. So the Go side forms no pointer by arithmetic, makes no
// padded copy of a read and grows no row but its own narrow ones, which are
// overread cells longer. With both overreads, as on both views of a left
// extension and brev's of a right one, no window near cell (0,0) is an edge,
// and the routine takes an extension from its first antidiagonal. The Go loop
// owns the far edge: the last dozen or so antidiagonals of an extension that
// reaches the end of a read.
//
// # The band
//
// At x=7 one vector is the window on nearly every antidiagonal of the
// pipeline's read pairs, and there the routine keeps each front in
// registers (the band loop of xdrop_amd64.s): two fronts' rows and best in
// eight of the sixteen ymm registers, the scores and masks in six more.
// A band is sixteen lanes anchored at a fixed i, front.anchor: lane k holds
// cell i = anchor+k of antidiagonal d-1 (P), and of d-2 the cell its
// diagonal is (D). Each antidiagonal d takes up as P moved one lane
// (VPERM2I128, VPALIGNR), left as P itself and diag as D, and its up
// becomes the next antidiagonal's D; a's sixteen bases from the anchor stay
// in a register while the anchor holds, and only brev's are loaded. Lanes
// outside [lo, hi] are forced to pruned by two masks read from a table at
// offsets the window gives: unlike a vector anchored at lo, the band has
// lanes below the window, and a cell there whose only live neighbour is its
// diagonal would otherwise live. The window itself is the two counts of
// the live lanes' mask, TZCNT and LZCNT, kept as they come out (twice the
// lowest lane, 30 less twice the highest), so the mask offsets need no
// arithmetic; d, the cells and best stay in registers, and the compares that
// can send a front out of the loop are two a front an antidiagonal, each
// against a threshold set when the anchor moves. Lane 15 is kept outside the
// window, because D has lost d-2's lane 15 to the shift that made it. The
// anchor moves up to lo1 when the window's top reaches lane 15 (or n), or
// when lane 0 would read before brev's first base: P and D shift down by a
// VPSHUFB pair from a table of sixteen (bandShifts), and a's bases are
// loaded at the new anchor. On the pipeline's pairs it moves once every
// fifteen antidiagonals or so. Best's first cell costs no scalar work an
// antidiagonal: every row is stored, at an address a conditional mask picks
// (front.bslot: the row that raised best, or a slot that takes the others),
// and bestI is read from that row, with the anchor it had, when the anchor
// next moves or the front leaves the band.
//
// The band holds a window of up to fifteen cells whose low end is lo1. A
// wider one, or one the d-m bound cuts from below (lane 0's up would be
// d-1's cell below the band), sends both fronts to the memory loop: their
// state in their structs and their rows in the narrow rows, a loop over
// the window's vectors with the shrink from masks, as before the band. It
// hands back to the band loop once a window is ten cells or fewer and the
// next front's last one was too. On any exit the routine spills every front in
// registers to its struct and narrow rows (front.d, rot, lo1, hi1, the
// cells, best, bestI and bestD; d-1's row with its sentinels, and what d
// reads of d-2's), exactly where leave, the memory loop and a later entry
// read them; the Go side (runFronts, slot.resume, enter and leave,
// horizon, the queue) does not know the band exists. TestSteadyPathsOnTheRungs
// holds at least 95% of PipelineX7's and SimilarX7's antidiagonals to the
// band (99.7% and 99.8%).
//
// Two fronts, because that is what the registers hold, and it is faster
// than one: a band's antidiagonal is a chain of some 20 cycles (the live
// mask, TZCNT or LZCNT, the mask load, three VPMINSW), and a second front's
// chain fills it. Measured on a 2-vCPU Sapphire Rapids Xeon at about 2.3
// GHz as the speed over the four-front memory-row routine the band
// replaced, medians of three runs of 40 rounds alternating the two in one
// process on BenchmarkXDropBatchPipelineX7's 231 seeds:
//
//	batch   fronts=1 1.23-1.30x   fronts=2 1.62-1.66x
//	calls   fronts=1 1.75-1.91x   fronts=2 1.82-1.88x
//
// (calls, one XDrop a seed, has two flanks a call either way). The x=30
// rungs, wide windows on the memory loop, ran at 0.97-1.01x (Divergent) and
// 1.00-1.02x (Similar). On the way: moving the band by storing it and
// loading it back shifted (a forwarding stall each move) cost 10-15% of the
// routine against the VPSHUFB shift; keeping the window as lanes, with BSF,
// BSR and a NEG for each offset and a compare for each bound, left the batch
// at 1.47x where the counts as they come out reach 1.6x; storing the best
// row with a masked store (VPMASKMOVD) at a fixed address instead of the
// conditional one changed nothing; sending d-m-bound windows to the Go
// loop rather than the memory loop took the divergent x=30 rung to 0.93x;
// and the memory loop's own body for one-vector windows, which the band
// leaves it under 1% of the x=7 antidiagonals, was deleted for no rung's
// loss (0.96-1.02x against keeping it).
// TestSteadyMatchesLoop enters the routine at every antidiagonal of a set of
// extensions, alone and beside a second front, and holds what both leave to
// the Go loop advanced as far. It requires the band, windows of one vector
// and of more on the memory loop, a new best past a wide window's
// first vector, moves of the anchor, a band that went wide and came back, a
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
// so a reordered struct still assembles right. The band loop is written as
// macros (LOAD, STEP, SLOWPATH, SPILL) expanded once for each register
// set; pprof charges a macro's samples to the line that expands it. The
// band's LZCNT runs as BSR, silently wrong, on a CPU without it: cpuid.AVX2
// checks for it (every CPU with AVX2 has it). The new best's maximum is
// the in-lane shuffle ladder after one VPERM2I128, not VPHMINPOSUW: three
// micro-operations fewer, but four cycles longer on the chain from one
// antidiagonal's best to the next one's prune, and the batch lost 5%.
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
