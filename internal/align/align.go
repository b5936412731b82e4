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
// On amd64 with AVX2 (probed once from CPUID; no flag, no build tag) one
// antidiagonal is scored eight cells a step by antidiagonalAVX2 in
// xdrop_amd64.s, a lane-for-lane transliteration of the Go loop in
// antidiagonal over the same rows, sentinels and reversed flank: up and left
// are two unaligned loads of the d-1 row one lane apart, so nothing is
// carried from lane to lane. It works in whole vectors, so with vw the window
// width rounded up to 8 it reads vw bases of each sequence, vw+1 cells of the
// d-1 row and vw of the d-2 row, and stores vw cells; the lanes past the
// window are computed from whatever lies there (stale cells, bases outside
// the window) and stored as pruned, which is what a cell beyond the upper
// sentinel may hold. extend calls it only where all of that lies inside the
// slices as they are, lo+vw <= n+1 and d-lo >= vw-1, so there is no unsafe,
// no padded copy of a read and no row growth. The Go loop therefore
// owns the edges, the first fourteen or so antidiagonals of an extension and
// its last handful, and it is the whole kernel on every other GOARCH and on
// an amd64 without AVX2 (xdrop_other.go); tests switch the leaf off to hold
// it to the loop cell for cell (TestVectorLeafMatchesLoop) and to run the
// suite on the loop alone (TestPortableKernel). Three things to know before
// touching the assembly. It must be VEX-encoded throughout: one legacy-SSE
// instruction (MOVQ AX, X0 where VMOVD was meant) among the VPBROADCASTDs
// makes every call pay the SSE/AVX state transition, 680 ns a call against 6
// in the first prototype, and a single one put back into this file made the
// whole x=7 kernel ten times slower. And go vet's asmdecl rejects a
// VPBROADCASTD of a 4-byte frame argument, so the scores are loaded from the
// workspace (moving them through a register would do too). And at x=7 the
// leaf is bound by latency, not width: each call reloads, one lane off, the
// row the previous call stored, and a vector load that overlaps a narrower
// store still in flight waits for the cache. That is why extend
// looks before writing a sentinel after the leaf has run; keeping the rows
// in registers from one antidiagonal to the next would be the real cure, and
// is a different kernel.
//
// int32 is safe because it is checked, not assumed: Scoring.Validate bounds
// each score by MaxScoreMagnitude, and XDrop panics if (len(s)+len(t)) times
// the largest score magnitude could bring a live score near the sentinel.
// An x larger than any score difference the inputs can produce is clamped to
// exactly that difference, which cannot change what is pruned.
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
