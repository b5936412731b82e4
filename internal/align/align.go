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
// x as vectors, a stop horizon and the next front on the routine's ring. Two
// kernels pick an extension up from there and leave it there. advance is the
// Go loop, on the int32 rows: the whole kernel on every GOARCH but amd64, on
// an amd64 without AVX2 and for an x the narrow rows cannot hold, the edge
// handler otherwise, and the oracle. frontsAVX2 (xdrop_amd64.s; AVX2 probed
// once from CPUID, no flag, no build tag) is the same loop in assembly,
// sixteen int16 cells a step, over several extensions at once.
//
// XDropBatch queues its seeds' extensions, each seed's right flank and then
// its left, and runs them in a workspace of fronts slots (four: below), each
// with its own front, rows, narrow rows and reversal buffer. Every slot
// takes the queue's next extension; the routine walks the ring of live
// fronts, one antidiagonal of each in turn (it computes lo, hi and the width,
// scores the window, finds a new best and its first cell, shrinks the
// window, writes the two sentinels, rotates the rows, and turns to the next
// front), and returns the first front that must go back to Go, with the
// reason: the window is at an edge (below), antidiagonal d has no live cell
// (the extension is over), or d has passed the front's stop horizon. Go
// deals with that front alone while the others wait in the routine's form
// (slot.resume): after an edge the Go loop runs eight antidiagonals before
// the routine is offered the extension again; after a stop it fills the
// reversal further, or rebases (below), and the routine takes the front up
// where it stopped; an extension that is over adds its part to its seed's
// Result, and the slot takes the queue's next, so the fronts stay busy
// across seeds and tasks, however lopsided a seed's two flanks are. The
// next call starts at the slot after the one that returned. The horizon is
// the last antidiagonal whose bases the reversal has produced, at most 4096
// on (assembly has no preemption point, and a stop-the-world should not wait
// on a 100 kb read), and no later than best-base could pass ceil. XDrop is a
// batch of one seed: its two flanks are two fronts. The routine stores no
// pointer (there is no write barrier in assembly): the rows rotate by a
// count (front.rot) that both kernels keep. The fronts' pointers into the
// caller's reads are cleared before the workspace goes back to the pool.
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
// exitEdge otherwise, so the Go side forms no pointer by arithmetic, makes no
// padded copy of a read and grows no row but its own narrow ones, which are
// overread cells longer. With both overreads, as on both views of a left
// extension and brev's of a right one, no window near cell (0,0) is an edge,
// and the routine takes an extension from its first antidiagonal. The Go loop
// owns the far edge: the last dozen or so antidiagonals of an extension that
// reaches the end of a read.
//
// At x=7 one vector is the window on every antidiagonal of the pipeline's
// read pairs (TestSteadyPathsOnTheRungs), and that path has a body of its
// own, straight through: no loop over vectors and no branch on a cell.
// best, its first cell, lo and hi come from masks (VPMOVMSKB, BSF, BSR) and
// conditional moves, and the sentinels are written without looking. The
// one-front routine this replaced branched on all of that, cell by cell,
// and for a single extension branching is right: the predictor hands lo and
// hi to the next antidiagonal before this one is scored, and computing them
// puts the whole antidiagonal on the path to the next one's addresses (730
// Mcells/s fell to 500). With fronts interleaved it is the other way round.
// A mispredicted branch throws away every front's work behind it, and the
// history the predictor learns from is several extensions' at once. Branched,
// more fronts ran slower. Branch-free, the other fronts' antidiagonals fill
// the latency. Measured on the development host (a 2-vCPU Sapphire Rapids
// Xeon) on BenchmarkXDropBatchPipelineX7's 231 seeds, against the one-front
// routine's 455-469 Mcells/s one XDrop call at a time, with F fronts:
//
//	branchy, rows carried in the front   F=1 440-471  F=2 371-408  F=3 283-285  F=4 307-312
//	branch-free shrink, branchy best     F=1 335-347  F=2 454-478  F=3 432-535  F=4 409-413
//
// in Mcells/s from separate go test runs; and as kept, as its speed over
// the one-front routine's, the medians of three runs of 60 rounds
// alternating the two in one process:
//
//	branch-free                          F=1 0.87-0.91  F=2 1.32-1.43  F=3 1.35-1.51  F=4 1.29-1.47
//
// Two to four fronts tie on the kernel's rung. On the pipeline four win: on
// longread_align's wall, four fronts took 13-18% off where two took 2-7%,
// so fronts is 4. A front's turn is one antidiagonal: at a point where one
// antidiagonal a turn ran at 1.23-1.25x, turns of two, which load and store
// a front's registers half as often, ran at 1.07-1.08x, and of four at
// 0.86-0.96x; carrying the row in the front (stored, and loaded back at the
// same address, where the store forwards), the one-front routine's answer
// to loading a row a lane to the side of the store that wrote it, ran at
// 1.04-1.11x. Deriving the wider path's up from its left (VPERM2I128,
// VPALIGNR) instead of loading it a lane to the side changed the divergent
// x=30 rung by 1.03x and 0.95x. None of the three is kept. Wider windows
// take the same masks a vector at a time: lo from the first vector with a
// live lane, hi from the last. TestSteadyMatchesLoop enters the routine at
// every antidiagonal of a set of extensions, beside a second front, and
// holds what both leave to the Go loop advanced as far; it counts the
// paths, and one-vector and wider windows, a new best past a wide window's
// first vector, every exit, a stop at the rebase horizon and a rebase of
// the other front are each required to have been reached.
//
// Things to know before touching the assembly. It must be VEX-encoded
// throughout: one legacy-SSE instruction (MOVQ AX, X0 where VMOVD was meant)
// among the broadcasts makes every call pay the SSE/AVX state transition,
// and a single one made the whole x=7 kernel ten times slower. go vet's
// asmdecl checks the frame, not the front: field offsets come from go_asm.h,
// so a reordered struct still assembles right. The new best's maximum is
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
