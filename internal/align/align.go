// Package align implements the pairwise-alignment kernels of the pipeline:
// full Smith-Waterman local alignment (the O(|s|·|t|) reference), banded
// Smith-Waterman, and the x-drop seed-and-extend kernel that diBELLA uses
// in production (the paper delegates to SeqAn's implementation of Zhang et
// al. 2000; here it is built from scratch).
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
// the two views may be read, and the narrow layout's base, floor and ceil (all
// below); for the length of an assembly call also index 0 of the three narrow
// rows and of the two base views, and a stop horizon. Two kernels pick an
// extension up from there and leave it there. advance is the Go loop, on the
// int32 rows: the whole kernel on every GOARCH but amd64, on an amd64 without
// AVX2 and for an x the narrow rows cannot hold, the edge handler otherwise,
// and the oracle. steadyAVX2 (xdrop_amd64.s; AVX2 probed once from CPUID, no
// flag, no build tag) is the same loop in assembly, sixteen int16 cells a
// step: it computes lo, hi and the width, scores the window, finds a new best
// and its first cell, rebases if it must, shrinks the window, writes the two
// sentinels, rotates the rows and goes on, and it returns to Go only for a
// reason: the window is at an edge (below), antidiagonal d has no live cell
// (the extension is over), or d has passed the stop horizon, which
// workspace.steady sets to the last antidiagonal whose bases the reversal has
// produced, and at most 4096 on: assembly has no preemption point, and a
// stop-the-world should not wait on a 100 kb read. extend offers the routine
// the extension from its first antidiagonal, and after an edge runs eight
// antidiagonals of Go loop before offering it again; whether the routine may
// run at all is decided once per extension, and without it the Go loop simply
// runs to the end. The routine stores no pointer (there is no write barrier in
// assembly): the rows rotate by a count (workspace.rot) that the caller
// advances by as far as d moved. The front's pointers into the caller's reads
// are cleared before the workspace goes back to the pool.
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
// and widens the two the Go loop reads next on the way out. When a new best
// takes best-base above ceil, the routine rebases: it moves best-base down to
// floor, or by 32767 if that is less (the most one saturating subtraction
// moves), and subtracts the same from the three carried registers, from d's
// stored vectors and from d-1 from lo to the end of them, which is all the
// next antidiagonal can read; saturating, so pruned stays pruned. At unit
// scores that never happens: a call scores at most 4096 antidiagonals, best
// climbs at most 1 an antidiagonal, and enter starts every call at floor,
// 65 524 below ceil at x=7. TestSteadyMatchesLoop forces it with scores at
// MaxScoreMagnitude. floor <= ceil is x+3·maxAbs <= 65534 (front.fits):
// x=7 and x=30 fit at any scores, -xdrop 1000000000 fits until x's clamp
// (2·total·maxAbs) passes it. Beyond it the routine declines the whole
// extension, which runs on the Go loop as it would without AVX2
// (TestSteadyDeclinesPastTheBound).
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
// At x=7 one vector is the antidiagonal 98 times in a hundred on the
// pipeline's read pairs, and then the routine does not load the d-1 and d-2
// rows at all. Let C be the vector it just stored for antidiagonal d-1,
// scored over a window starting at lo', and up', left' the two vectors C was
// scored from. For antidiagonal d, starting at lo, lane k needs left =
// row(d-1)[lo+k+1], up = row(d-1)[lo+k] and diag = row(d-2)[lo+k], and C's
// lane k is row(d-1)[lo'+k+1]. With s = lo-lo':
//
//	s = 0: left = C; up = C moved one lane up, pruned in lane 0; diag = up'
//	s = 1: up = C; left = C moved one lane down, pruned in lane 15; diag = left'
//
// one VPERM2I128 (pruned beside the half that crosses) and one VPALIGNR. The
// lanes shifted in are pruned by construction. Lane 0 at s=0 stands for
// row(d-1)[lo]: lo is then d-1's surviving lo1, and index lo1 is where its
// lower sentinel is. Lane 15 at s=1 stands for row(d-1)[lo'+17]: if lane 15
// is inside d's window at all (hi <= hi1+1, so only when d-1's lane 15
// survived), that index is hi1+2, the upper sentinel. Every other lane of C is
// the row as stored, pruned lanes past the width included. diag inherits the
// argument one antidiagonal later. Anything else (a window wider than 16, a
// start that moved by 2 or more, the first antidiagonal of a call) loads its
// neighbours from the rows, which are still stored every antidiagonal.
// TestSteadyMatchesLoop enters the routine at every antidiagonal of a set of
// extensions and holds what it leaves to the Go loop advanced as far; it
// counts the paths, and carried windows of 9 to 16 cells, a width-16 window
// with a live lane 15, a start that jumps by 2 and a call that rebased are
// each required to have been reached.
//
// Things to know before touching the assembly. It must be VEX-encoded
// throughout: one legacy-SSE instruction (MOVQ AX, X0 where VMOVD was meant)
// among the broadcasts makes every call pay the SSE/AVX state transition,
// and a single one made the whole x=7 kernel ten times slower. go vet's
// asmdecl checks the frame, not the front: field offsets come from go_asm.h,
// so a reordered struct still assembles right. The bookkeeping is branches
// on purpose: the shrink reads the stored row cell by cell, and the branch
// predictor hands lo and hi to the next antidiagonal before this one has
// been scored. Computing them (VMOVMSKPS, BSF, BSR) removes the
// mispredictions and puts the whole antidiagonal on the path to the next
// one's addresses: 730 Mcells/s fell to 500. For the same reason the shift
// is the cross-lane pair even for windows of 8 cells or fewer, where two
// in-lane instructions (VPSLLDQ or VPSRLDQ and a VPBLENDW) would do: the
// branch on the width that picks them cost the x=7 rungs 15% on a Sapphire
// Rapids Xeon (family 6 model 143). And the
// sentinels are written only after looking: a vector load that overlaps a
// narrower store still in flight is not forwarded and waits for the cache,
// the multi-vector path loads the row a vector at a time, and more often than
// not the sentinel is there already (the window shrank over a pruned cell, or
// a lane past the width was stored).
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

// AlignedLen returns the mean of the two aligned span lengths, the length
// figure reported in overlap records.
func (r Result) AlignedLen() int {
	return ((r.SEnd - r.SStart) + (r.TEnd - r.TStart)) / 2
}

// EditOp is one column of an alignment transcript.
type EditOp byte

// Transcript operations.
const (
	OpMatch    EditOp = 'M'
	OpMismatch EditOp = 'X'
	OpInsert   EditOp = 'I' // base present in s, gap in t
	OpDelete   EditOp = 'D' // gap in s, base present in t
)

// Transcript is an edit transcript between two aligned regions.
type Transcript []EditOp

// Identity returns the fraction of transcript columns that are matches.
func (tr Transcript) Identity() float64 {
	if len(tr) == 0 {
		return 0
	}
	m := 0
	for _, op := range tr {
		if op == OpMatch {
			m++
		}
	}
	return float64(m) / float64(len(tr))
}

// Counts tallies the transcript by operation.
func (tr Transcript) Counts() (match, mismatch, ins, del int) {
	for _, op := range tr {
		switch op {
		case OpMatch:
			match++
		case OpMismatch:
			mismatch++
		case OpInsert:
			ins++
		case OpDelete:
			del++
		}
	}
	return
}

// String renders the transcript compactly (e.g. "5M1X3M2D").
func (tr Transcript) String() string {
	if len(tr) == 0 {
		return ""
	}
	out := make([]byte, 0, len(tr))
	run := 1
	for i := 1; i <= len(tr); i++ {
		if i < len(tr) && tr[i] == tr[i-1] {
			run++
			continue
		}
		out = append(out, []byte(fmt.Sprintf("%d%c", run, tr[i-1]))...)
		run = 1
	}
	return string(out)
}

const negInf = int(-1) << 40
