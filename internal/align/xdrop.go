package align

import (
	"fmt"
	"math"
	"sync"
)

// XDrop performs seed-and-extend alignment: the k bases at s[seedS:seedS+k]
// and t[seedT:seedT+k] are assumed to match exactly (they are a shared
// k-mer), and the alignment is extended outward in both directions with
// x-drop pruning: any DP cell scoring more than x below the best score seen
// is abandoned, so extension over divergent sequence terminates quickly.
//
// This reimplements the greedy x-drop extension of Zhang, Schwartz, Wagner
// & Miller (2000) — the algorithm behind SeqAn's extendSeed that diBELLA
// calls — over antidiagonals with a shrinking active window.
//
// DP scores are held in int32. XDrop panics, as it does for a bad seed, when
// a score magnitude exceeds MaxScoreMagnitude or (len(s)+len(t))·max|score|
// is too large for the pruned-cell sentinel to stay below every live score.
func XDrop(s, t []byte, seedS, seedT, k int, sc Scoring, x int) Result {
	if k <= 0 || seedS < 0 || seedT < 0 || seedS+k > len(s) || seedT+k > len(t) {
		panic(fmt.Sprintf("align: bad seed (s:%d t:%d k:%d |s|:%d |t|:%d)",
			seedS, seedT, k, len(s), len(t)))
	}
	if x < 0 {
		panic(fmt.Sprintf("align: negative x-drop %d", x))
	}
	x32 := clampXDrop(len(s)+len(t), sc, x)

	w := workspaces.Get().(*workspace)
	// The kernel reads a[i] and brev[m-j] for 0 <= i <= n, 0 <= j <= m, so
	// each view carries one extra base at i == 0 / j == 0: the last seed base
	// on the un-reversed side, the buffer's spare slot on the reversed side.
	// Past a[n] and brev[m] each view runs on for overread bases where there
	// are any: the buffer's, or the rest of the seed on t's side.
	tail := t[seedT+k:]
	buf := w.buffer(len(tail) + 1 + overread)
	w.rev = reversal{src: tail, dst: buf[:len(tail)], back: true}
	right := w.extend(s[seedS+k-1:], buf, len(s)-seedS-k, len(tail), sc, x32)

	buf = w.buffer(seedS + 1 + overread)
	w.rev = reversal{src: s[:seedS], dst: buf[1 : seedS+1]}
	left := w.extend(buf, t[:min(len(t), seedT+1+overread)], seedS, seedT, sc, x32)

	// Do not pin the caller's reads from the pool.
	w.rev = reversal{}
	w.st.a, w.st.brev = nil, nil
	workspaces.Put(w)
	return Result{
		Score:  k*sc.Match + right.score + left.score,
		SStart: seedS - left.aLen,
		SEnd:   seedS + k + right.aLen,
		TStart: seedT - left.bLen,
		TEnd:   seedT + k + right.bLen,
		Cells:  right.cells + left.cells,
	}
}

// SeedMatches reports whether the claimed seed is an exact k-base match,
// a precondition XDrop assumes (shared k-mers guarantee it after strand
// normalization).
func SeedMatches(s, t []byte, seedS, seedT, k int) bool {
	if seedS < 0 || seedT < 0 || seedS+k > len(s) || seedT+k > len(t) {
		return false
	}
	for i := 0; i < k; i++ {
		if s[seedS+i] != t[seedT+i] {
			return false
		}
	}
	return true
}

// pruned marks an abandoned cell and fills the sentinels around each row's
// window. It sits far enough below zero that pruned+score stays in int32
// and, given clampXDrop's precondition, below every prune threshold, so a
// cell fed only by pruned neighbours prunes itself with no explicit test.
const pruned = math.MinInt32 / 2

// clampXDrop returns x as the kernel uses it. A live cell scores within
// total·maxAbs of zero on either side, so any x at or above twice that can
// never prune and is replaced by exactly that value: same result, and
// best-x keeps clear of the sentinel.
func clampXDrop(total int, sc Scoring, x int) int32 {
	if !sc.inRange() {
		panic(fmt.Sprintf("align: scoring %+v exceeds magnitude %d", sc, MaxScoreMagnitude))
	}
	maxAbs := sc.maxAbs()
	noPrune := 2 * total * maxAbs
	if noPrune+maxAbs >= -pruned {
		panic(fmt.Sprintf("align: %d bases at score magnitude %d overflow the int32 x-drop kernel",
			total, maxAbs))
	}
	return int32(min(x, noPrune))
}

// maxAbs is the largest score magnitude of the scheme.
func (sc Scoring) maxAbs() int {
	return max(sc.Match, -sc.Match, sc.Mismatch, -sc.Mismatch, sc.Gap, -sc.Gap)
}

type extension struct {
	score      int
	aLen, bLen int // extension extents achieving the best score
	cells      int64
}

// workspace is the scratch one XDrop call needs: three rolling antidiagonal
// rows for the Go loop and three narrow ones for the assembly routine, the
// buffer the reversed flank is built in, and the extension in progress.
// Pooled, so steady state allocates nothing; nothing in it is cleared between
// calls but the pointers into the caller's reads.
type workspace struct {
	rows   [3][]int32
	narrow [3][]int16
	rot    int // rows[rot%3], rows[(rot+1)%3] and rows[(rot+2)%3] are antidiagonals d-2, d-1 and d; narrow likewise
	buf    []byte
	rev    reversal
	st     front
}

// front is an extension between two antidiagonals: everything scoring the
// next one needs, and everything the result is read from. The Go loop
// (advance) and the assembly routine (steadyAVX2, which reads this struct by
// field offset) each pick an extension up from here and leave it here, so
// either can continue where the other stopped. The pointers and base are set
// for an assembly call (workspace.enter) and mean nothing to the Go loop; the
// two pointers into the caller's reads are cleared before the workspace is
// pooled.
type front struct {
	cur, p1, p2 *int16 // index 0 of the narrow rows of antidiagonals d, d-1, d-2
	a, brev     *byte  // index 0 of the two base views
	n, m        int
	alast       int // the last index of a the routine may read: n, or up to overread past it
	bpad        int // how far past brev[m] it may read, at most overread
	d           int // the next antidiagonal to score
	stop        int // the last one the assembly may score in this call
	lo1, hi1    int // surviving window of antidiagonal d-1
	bestI       int // first cell, in ascending d then i, to score best
	bestD       int
	cells       int64
	best, x     int32
	match       int32
	mismatch    int32
	gap         int32
	base        int32 // a narrow cell holds its score minus base
	floor       int32 // best-base after a rebase (and on entry)
	ceil        int32 // the largest best-base an antidiagonal is scored from
}

// fits reports whether the extension's scores fit the narrow rows: whether
// a rebase leaves best-base at or below ceil (the package comment has the
// arithmetic). It holds when x+3·maxAbs <= 65534, that is, for every x a
// pipeline would use; beyond it the Go loop runs the whole extension.
func (st *front) fits() bool { return st.floor <= st.ceil }

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

func (w *workspace) buffer(n int) []byte {
	if cap(w.buf) < n {
		w.buf = make([]byte, n)
	}
	return w.buf[:n]
}

// reversal builds dst[p] = src[len(src)-1-p] on demand, from dst's low end
// or (back) its high end, so an extension that dies after a few
// antidiagonals does not pay to reverse a whole flank.
type reversal struct {
	src, dst []byte
	back     bool
	done     int // bases reversed so far
}

// fill makes the first d bases of src available, at least doubling the
// reversed span so total work stays proportional to how far d gets. The
// first span is 32 bases: an extension with nothing to align dies within 16
// antidiagonals at the default x, and reversing more than that is most of
// what such a call would cost.
func (r *reversal) fill(d int) {
	l := len(r.src)
	to := min(l, max(2*d, 32))
	lo, hi := r.done, to
	if r.back {
		lo, hi = l-to, l-r.done
	}
	dst, src := r.dst[lo:hi], r.src[l-hi:l-lo]
	for p := range dst {
		dst[p] = src[len(src)-1-p]
	}
	r.done = to
	if to == l {
		r.done = math.MaxInt // no antidiagonal asks again
	}
}

// extend grows an alignment from cell (0,0) over bases a[1..n] and b[1..m],
// maximizing the extension score under x-drop pruning. b arrives reversed,
// brev[m-j] holding base j, so that along an antidiagonal both sequences are
// read in ascending index order. Unlike local alignment the score may go
// negative (down to best-x) before recovering. a[0] and brev[m] exist but
// are never scored: the cells that read them have a pruned diagonal; nor is
// anything past a[n] or brev[m], which only the routine's lanes past a window
// read.
//
// Antidiagonal d holds cell (i, d-i) at row index i+1, live over a window
// [lo,hi] with a pruned sentinel stored at lo-1 and hi+1, so the three
// neighbour reads need no window or edge test (see the package comment).
// Whichever of a, brev is w.rev.dst is filled ahead of the antidiagonal
// that reads it.
func (w *workspace) extend(a, brev []byte, n, m int, sc Scoring, x int32) extension {
	w.begin(a, brev, n, m, sc, x)
	st := &w.st
	// steady runs the extension until its window reaches an edge, where the
	// assembly's whole-vector reads would leave the slices, and the Go loop
	// runs edgeRun antidiagonals from there before it offers the extension
	// again. Which antidiagonals are which the assembly decides (it returns
	// at once from one it may not score). Without AVX2, or with scores too
	// wide for the narrow rows, the loop runs to the end as if there were
	// nothing to hand off to.
	vector := useAVX2 && st.fits()
	run := n + m
	if vector {
		run = edgeRun
	}
	for alive := true; alive && st.d <= n+m; {
		if vector {
			if alive = w.steady(a, brev); !alive || st.d > n+m {
				break
			}
		}
		alive = w.advance(a, brev, min(n+m, st.d+run-1))
	}
	return extension{score: int(st.best), aLen: st.bestI, bLen: st.bestD - st.bestI, cells: st.cells}
}

// begin sizes the rows for a first sequence of n bases and leaves in w.st the
// extension of a[:n+1] over brev[:m+1] that has scored cell (0,0) and nothing
// else. The narrow rows are overread cells longer, for the routine's lanes
// past a window at the n edge.
func (w *workspace) begin(a, brev []byte, n, m int, sc Scoring, x int32) {
	for r := range w.rows {
		if cap(w.rows[r]) < n+3 {
			w.rows[r] = make([]int32, n+3)
		}
		if cap(w.narrow[r]) < n+3+overread {
			w.narrow[r] = make([]int16, n+3+overread)
		}
		w.rows[r], w.narrow[r] = w.rows[r][:n+3], w.narrow[r][:n+3+overread]
	}
	w.rot = 0
	p2, p1, _ := w.threeRows()
	// d-1 is the single cell (0,0) scoring 0; d-2 is empty.
	p1[0], p1[1], p1[2] = pruned, 0, pruned
	p2[0], p2[1] = pruned, pruned
	st := &w.st
	st.n, st.m, st.d, st.lo1, st.hi1 = n, m, 1, 0, 0
	st.alast, st.bpad = min(len(a)-1, n+overread), min(len(brev)-1-m, overread)
	st.best, st.bestI, st.bestD, st.cells = 0, 0, 0, 0
	st.x, st.match, st.mismatch, st.gap = x, int32(sc.Match), int32(sc.Mismatch), int32(sc.Gap)
	maxAbs := int32(sc.maxAbs())
	st.floor = math.MinInt16 + 1 + x + 2*maxAbs
	st.ceil = math.MaxInt16 - maxAbs
}

// edgeRun is how many antidiagonals the Go loop scores before it offers the
// extension to the assembly routine again. The routine takes an extension
// from its first antidiagonal and usually runs until the window reaches the
// far edge, a dozen or so antidiagonals from the end, where offers are
// declined, each for about the cost of one antidiagonal.
const edgeRun = 8

// overread is how many bases past the last one a view holds the routine
// reads in the lanes past a window: a vector less one.
const overread = 15

// Why the assembly routine returned.
const (
	exitStop = iota // front.stop scored: next the flank needs filling, or the call cap
	exitEdge        // a whole-vector read of antidiagonal d would leave the slices
	exitDead        // antidiagonal d has no live cell: the extension is over
)

// threeRows returns the rows of antidiagonals d-2, d-1 and d. They rotate
// by count, not by moving slices: the assembly cannot store a pointer (no
// write barrier), and the Go loop saves three of them per call.
func (w *workspace) threeRows() (p2, p1, cur []int32) {
	r := w.rot % 3
	return w.rows[r], w.rows[(r+1)%3], w.rows[(r+2)%3]
}

// advance is the x-drop kernel in Go: it scores antidiagonals w.st.d to until
// and leaves the extension in w.st, reporting false once it is over (an empty
// window, or a whole antidiagonal pruned).
func (w *workspace) advance(a, brev []byte, until int) (alive bool) {
	st := &w.st
	n, m, x := st.n, st.m, st.x
	match, mismatch, gap := st.match, st.mismatch, st.gap
	p2, p1, cur := w.threeRows()
	lo1, hi1 := st.lo1, st.hi1
	best, bestI, bestD := st.best, st.bestI, st.bestD
	cells := st.cells
	d := st.d
	alive = true
	for ; d <= until; d++ {
		lo, hi := max(lo1, d-m), min(hi1+1, n)
		if lo > hi {
			alive = false
			break
		}
		if d > w.rev.done {
			w.rev.fill(d)
		}
		width := hi - lo + 1
		cells += int64(width) // every cell of the window, before it shrinks
		rowMax := antidiagonal(cur[lo+1:][:width], p1[lo+1:], p2[lo:], a[lo:], brev[m-d+lo:],
			p1[lo], best-x, match, mismatch, gap)
		if rowMax == pruned {
			alive = false
			break
		}
		if rowMax > best { // first cell in ascending i to reach it
			i := lo
			for cur[i+1] != rowMax {
				i++
			}
			best, bestI, bestD = rowMax, i, d
		}
		// Shrink the window to surviving cells; one exists.
		for cur[lo+1] == pruned {
			lo++
		}
		for cur[hi+1] == pruned {
			hi--
		}
		cur[lo], cur[hi+2] = pruned, pruned
		p2, p1, cur = p1, cur, p2
		lo1, hi1 = lo, hi
	}
	w.rot += d - st.d
	st.d, st.lo1, st.hi1 = d, lo1, hi1
	st.best, st.bestI, st.bestD = best, bestI, bestD
	st.cells = cells
	return alive
}

// antidiagonal scores the window c of antidiagonal d and returns its largest
// cell. left, diag, ai and bj are aligned with c: for the cell (i, j) at c[k]
// they hold d-1's (i, j-1), d-2's (i-1, j-1) and the two bases; up is d-1's
// (i-1, j) for c[0], and the previous left thereafter. It is a function of
// its own because the loop then competes for registers with nothing but its
// own operands; written inline in extend it ran a sixth slower at x=30.
func antidiagonal(c, left, diag []int32, ai, bj []byte, up, prune, match, mismatch, gap int32) int32 {
	left, diag, ai, bj = left[:len(c)], diag[:len(c)], ai[:len(c)], bj[:len(c)]
	rowMax := int32(pruned)
	for k := range c {
		sub := mismatch
		if ai[k] == bj[k] {
			sub = match
		}
		l := left[k]
		v := max(max(up, l)+gap, diag[k]+sub)
		if v < prune {
			v = pruned
		}
		c[k] = v
		rowMax = max(rowMax, v)
		up = l
	}
	return rowMax
}
