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
// calls — over antidiagonals with a shrinking active window. It is
// XDropBatch over one seed.
//
// DP scores are held in int32. XDrop panics, as it does for a bad seed, when
// a score magnitude exceeds MaxScoreMagnitude or (len(s)+len(t))·max|score|
// is too large for the pruned-cell sentinel to stay below every live score.
func XDrop(s, t []byte, seedS, seedT, k int, sc Scoring, x int) Result {
	seeds := [1]Seed{{S: s, T: t, PosS: seedS, PosT: seedT}}
	var out [1]Result
	XDropBatch(seeds[:], k, sc, x, out[:])
	return out[0]
}

// Seed is one alignment of a batch: the k bases at S[PosS:] and T[PosT:]
// are taken to match exactly.
type Seed struct {
	S, T       []byte
	PosS, PosT int
}

// XDropBatch sets out[i] to XDrop(seeds[i].S, seeds[i].T, seeds[i].PosS,
// seeds[i].PosT, k, sc, x) for every i. The extensions of the whole batch,
// each seed's right flank and then its left, are queued and run two at a
// time, which is what keeps the assembly routine busy: one extension's
// antidiagonals depend on each other, two extensions' do not. It panics as
// XDrop does, before aligning anything, and when out is not as long as
// seeds.
func XDropBatch(seeds []Seed, k int, sc Scoring, x int, out []Result) {
	if len(out) != len(seeds) {
		panic(fmt.Sprintf("align: %d results for %d seeds", len(out), len(seeds)))
	}
	for _, sd := range seeds {
		if k <= 0 || sd.PosS < 0 || sd.PosT < 0 || sd.PosS+k > len(sd.S) || sd.PosT+k > len(sd.T) {
			panic(fmt.Sprintf("align: bad seed (s:%d t:%d k:%d |s|:%d |t|:%d)",
				sd.PosS, sd.PosT, k, len(sd.S), len(sd.T)))
		}
		if x < 0 {
			panic(fmt.Sprintf("align: negative x-drop %d", x))
		}
		clampXDrop(len(sd.S)+len(sd.T), sc, x)
	}
	for i, sd := range seeds {
		out[i] = Result{Score: k * sc.Match, SStart: sd.PosS, SEnd: sd.PosS + k, TStart: sd.PosT, TEnd: sd.PosT + k}
	}
	w := workspaces.Get().(*workspace)
	b := batch{seeds: seeds, out: out, k: k, sc: sc, x: x}
	if useAVX2 {
		w.runFronts(&b)
	} else {
		sl := &w.slots[0]
		for b.take(sl) {
			sl.advance(sl.st.n + sl.st.m)
			b.finish(sl)
		}
	}
	// Do not pin the caller's reads from the pool.
	for i := range w.slots {
		sl := &w.slots[i]
		sl.a, sl.b = nil, nil
		sl.st.a, sl.st.b = nil, nil
	}
	workspaces.Put(w)
}

// batch is the queue of one XDropBatch call: extension e is seeds[e/2]'s
// right flank when e is even and its left flank when e is odd, and each
// adds its part to out[e/2] as it ends.
type batch struct {
	seeds []Seed
	out   []Result
	k     int
	sc    Scoring
	x     int
	next  int // the next extension to start
}

// take starts the queue's next extension in sl, reporting false when the
// queue is empty.
func (b *batch) take(sl *slot) bool {
	if b.next == 2*len(b.seeds) {
		return false
	}
	e := b.next
	b.next++
	sd, k := b.seeds[e/2], b.k
	x := clampXDrop(len(sd.S)+len(sd.T), b.sc, b.x)
	sl.ext = e
	// Each flank is read where it lies from the seed base beside it, base 0
	// of both views; the routine's lanes past a window may read on along t,
	// into the seed and beyond, for up to overread bases t has.
	if e%2 == 0 {
		sl.begin(sd.S[sd.PosS+k-1:], sd.T[sd.PosT+k-1:], 1, min(overread, sd.PosT+k-1), b.sc, x)
	} else {
		sl.begin(sd.S[:sd.PosS+1], sd.T[:sd.PosT+1], -1, min(overread, len(sd.T)-1-sd.PosT), b.sc, x)
	}
	return true
}

// finish adds the extension that has ended in sl to its seed's result.
func (b *batch) finish(sl *slot) {
	st := &sl.st
	r := &b.out[sl.ext/2]
	r.Score += int(st.best)
	r.Cells += st.cells
	if sl.ext%2 == 0 {
		r.SEnd += st.bestI
		r.TEnd += st.bestD - st.bestI
	} else {
		r.SStart -= st.bestI
		r.TStart -= st.bestD - st.bestI
	}
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

// fronts is how many extensions the assembly routine advances at once: the
// slots of a workspace, and the bands its registers hold. Measured, not
// configured (the package comment has the numbers for one and two).
const fronts = 2

// workspace is the scratch one XDropBatch call needs: a slot per front.
// Pooled, so steady state allocates nothing; nothing in it is cleared
// between calls but the pointers into the caller's reads. The allocator
// puts an object this size that holds pointers 8 bytes past a cache line
// (a header precedes it), so 56 bytes in, the first slot is on one, and a
// slot being a multiple of 64 bytes, so is the second
// (TestFrontVectorsAreAligned).
type workspace struct {
	_     [56]byte
	slots [fronts]slot
}

// slot is one extension in progress and what it runs in: three rolling
// antidiagonal rows for the Go loop and three narrow ones for the assembly
// routine, and its two base views, slices of the caller's reads.
type slot struct {
	st      front
	rows    [3][]int32
	narrow  [3][]int16
	a, b    []byte // base i of the flank of s is a[i], and base j of t's b[j]; a[n-i] and b[m-j] when st.sigma < 0
	ext     int    // which extension of the batch it is
	entered int    // st.d when the routine last took it over
}

// front is an extension between two antidiagonals: everything scoring the
// next one needs, and everything the result is read from. The Go loop
// (advance) and the assembly routine (frontsAVX2, which reads this struct by
// field offset) each pick an extension up from here and leave it here, so
// either can continue where the other stopped. floor, ceil and maxAbs are
// the narrow layout's bounds, set with the rest by begin; past them, the
// fields are the routine's, set when it takes the extension over
// (slot.enter) and meaning nothing to the Go loop. The two pointers into the
// caller's reads are cleared before the workspace is pooled.
//
// The vectors the routine reads or writes every antidiagonal come first, and
// a slot is a multiple of 64 bytes, so that past the workspace's pad none of
// them straddles a cache line (TestFrontVectorsAreAligned).
type front struct {
	bslot        [2]bandRow          // [1] holds the row that last raised best; [0] takes the rows that did not
	bound        [2][2 * lanes]int16 // pruned then MaxInt16, and MaxInt16 then pruned: the window's masks are read from them
	vbest        [lanes]int16        // best-base, in every lane
	vx           [lanes]int16        // x
	amask, qmask [2 * lanes]byte     // ascending or descending: how a vector of a's bases and of b's is laid into lanes

	n, m     int
	sigma    int // +1 on a right flank, -1 on a left: the bases run that way through memory
	bpad     int // how many bases past base 0 of b, against the flank, the routine may read: at most overread
	d        int // the next antidiagonal to score
	lo1, hi1 int // surviving window of antidiagonal d-1
	bestI    int // first cell, in ascending d then i, to score best
	bestD    int
	cells    int64
	best, x  int32
	match    int32
	mismatch int32
	gap      int32
	rot      int   // rows[rot], rows[(rot+1)%3] and rows[(rot+2)%3] are antidiagonals d-2, d-1 and d; narrow likewise
	floor    int32 // best-base on entry
	ceil     int32 // the largest best-base an antidiagonal is scored from
	maxAbs   int32 // the most best climbs in an antidiagonal

	rows       [5]*int16 // index 0 of the narrow rows, twice round: rows[rot:] starts at d-2's
	a, b       *byte     // base 0 of each view: base i of a lies sigma·i bytes on, base j of b sigma·j
	aoff, qoff int       // where a vector of a's bases and of b's is loaded from, past lane 0's base: 0, or 1-lanes for a view read descending
	stop       int       // the last antidiagonal the routine may score before it hands the extension back
	next       *front    // the front the routine turns to after this one
	id         int       // the slot's index, which the routine returns
	base       int32     // a narrow cell holds its score minus base

	// The band's, while the routine holds the front in registers: set and
	// read by the routine alone.
	anchor int // the i of the band's lane 0
	nA     int // n-anchor: the lane of a's last base
	ztop   int // 32-2·min(14, nA): a window top's LZCNT below it is past the band or n
	climit int // the band's count at which d passes stop or lane 0 would read past b[m]

	// What the routine has done with the extension, counted for the tests
	// (begin zeroes them): antidiagonals scored in the band, moves of the
	// anchor, spills from the band, and hand-overs from the band to the
	// memory loop and back.
	inBand, moves, spills, toMemory, toBand int
}

// bandRow is a row of the routine's band as it stored it, with the band's
// count as it was once the row's antidiagonal was scored: 64 bytes, the
// step between the two slots the routine's conditional address picks from.
type bandRow struct {
	row [lanes]int16
	c   int // zero in bslot[1]: no row has raised best since the band was last anchored
	_   [3]uint64
}

// lanes is the routine's vector: sixteen int16 cells.
const lanes = 16

// fits reports whether the extension's scores fit the narrow rows: whether
// entering at floor leaves best-base at or below ceil (the package comment
// has the arithmetic). It holds when x+3·maxAbs <= 65534, that is, for every x a
// pipeline would use; beyond it the Go loop runs the whole extension.
func (st *front) fits() bool { return st.floor <= st.ceil }

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// begin starts the extension of bases 1..n of a over bases 1..m of b from
// cell (0,0), n and m being len(a)-1 and len(b)-1: it sizes the rows for
// n and leaves in sl.st the extension that has scored cell (0,0) and
// nothing else. Base i of a is a[i] and base j of b is b[j] when sigma is
// +1, a[n-i] and b[m-j] when it is -1; the routine may read bpad bases of
// the caller's read past base 0 of b, on the side away from base 1.
//
// An extension maximizes its score under x-drop pruning. Unlike local
// alignment the score may go negative (down to best-x) before recovering.
// Base 0 of each view is the seed base beside the flank, which is never
// scored: the cells that read it have a pruned diagonal; nor is any base
// the routine reads past a window, which only its lanes past a window read.
func (sl *slot) begin(a, b []byte, sigma, bpad int, sc Scoring, x int32) {
	n, m := len(a)-1, len(b)-1
	for r := range sl.rows {
		if cap(sl.rows[r]) < n+3 {
			sl.rows[r] = make([]int32, n+3)
		}
		if cap(sl.narrow[r]) < n+3+overread {
			sl.narrow[r] = make([]int16, n+3+overread)
		}
		sl.rows[r], sl.narrow[r] = sl.rows[r][:n+3], sl.narrow[r][:n+3+overread]
	}
	sl.a, sl.b = a, b
	st := &sl.st
	st.rot = 0
	p2, p1, _ := sl.threeRows()
	// d-1 is the single cell (0,0) scoring 0; d-2 is empty.
	p1[0], p1[1], p1[2] = pruned, 0, pruned
	p2[0], p2[1] = pruned, pruned
	st.n, st.m, st.d, st.lo1, st.hi1 = n, m, 1, 0, 0
	st.sigma, st.bpad = sigma, bpad
	st.best, st.bestI, st.bestD, st.cells = 0, 0, 0, 0
	st.inBand, st.moves, st.spills, st.toMemory, st.toBand = 0, 0, 0, 0, 0
	st.x, st.match, st.mismatch, st.gap = x, int32(sc.Match), int32(sc.Mismatch), int32(sc.Gap)
	st.maxAbs = int32(sc.maxAbs())
	st.floor = math.MinInt16 + 1 + x + 2*st.maxAbs
	st.ceil = math.MaxInt16 - st.maxAbs
}

// edgeRun is how many antidiagonals the Go loop scores before it offers the
// extension to the assembly routine again. The routine takes an extension
// from its first antidiagonal and usually runs until the window reaches the
// far edge, a dozen or so antidiagonals from the end, where offers are
// declined, each for about the cost of one antidiagonal.
const edgeRun = 8

// overread is how many bases past a window the routine reads in its lanes
// past the window: a vector less one.
const overread = lanes - 1

// Why the assembly routine returned.
const (
	exitStop = iota // front.stop scored: the cap, or the rebase
	exitEdge        // a whole-vector read of antidiagonal d would leave the slices
	exitDead        // antidiagonal d has no live cell: the extension is over
)

// threeRows returns the rows of antidiagonals d-2, d-1 and d. They rotate
// by count, not by moving slices: the assembly cannot store a pointer (no
// write barrier), and the Go loop saves three of them per call.
func (sl *slot) threeRows() (p2, p1, cur []int32) {
	r := sl.st.rot
	return sl.rows[r], sl.rows[(r+1)%3], sl.rows[(r+2)%3]
}

// advance is the x-drop kernel in Go: it scores antidiagonals sl.st.d to
// until and leaves the extension in sl.st, reporting false once it is over
// (an empty window, or a whole antidiagonal pruned).
func (sl *slot) advance(until int) (alive bool) {
	st := &sl.st
	n, m, x := st.n, st.m, st.x
	match, mismatch, gap := st.match, st.mismatch, st.gap
	p2, p1, cur := sl.threeRows()
	lo1, hi1 := st.lo1, st.hi1
	best, bestI, bestD := st.best, st.bestI, st.bestD
	cells := st.cells
	d := st.d
	// Cell i of antidiagonal d reads asc[ao+i] and desc[do-i]: a[i] and
	// b[d-i] on a right flank, b[m-d+i] and a[n-i] on a left.
	asc, desc, ao, do, aStep, dStep := sl.a, sl.b, 0, d, 0, 1
	if st.sigma < 0 {
		asc, desc, ao, do, aStep, dStep = sl.b, sl.a, m-d, n, -1, 0
	}
	alive = true
	for ; d <= until; d, ao, do = d+1, ao+aStep, do+dStep {
		lo, hi := max(lo1, d-m), min(hi1+1, n)
		if lo > hi {
			alive = false
			break
		}
		width := hi - lo + 1
		cells += int64(width) // every cell of the window, before it shrinks
		rowMax := antidiagonal(cur[lo+1:][:width], p1[lo+1:], p2[lo:], asc[ao+lo:], desc[do-hi:],
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
	st.rot = (st.rot + d - st.d) % 3
	st.d, st.lo1, st.hi1 = d, lo1, hi1
	st.best, st.bestI, st.bestD = best, bestI, bestD
	st.cells = cells
	return alive
}

// antidiagonal scores the window c of antidiagonal d and returns its largest
// cell. left, diag and asc are aligned with c, and desc with c reversed: for
// the cell (i, j) at c[k] they hold d-1's (i, j-1), d-2's (i-1, j-1) and the
// two bases, asc[k] and desc[len(c)-1-k], which one is of i and which of j
// mattering not to the substitution test; up is d-1's (i-1, j) for c[0],
// and the previous left thereafter. It is a function of its own because the
// loop then competes for registers with nothing but its own operands;
// written inline in advance it ran a sixth slower at x=30.
func antidiagonal(c, left, diag []int32, asc, desc []byte, up, prune, match, mismatch, gap int32) int32 {
	left, diag, asc, desc = left[:len(c)], diag[:len(c)], asc[:len(c)], desc[:len(c)]
	rowMax := int32(pruned)
	// k walks up c and the rest, j walks down desc: the prove pass drops
	// the bounds checks of both only when each is a condition of the loop
	// (j's first) and k, unsigned, cannot fall below zero.
	for k, j := uint(0), len(desc)-1; j >= 0 && k < uint(len(c)); k, j = k+1, j-1 {
		sub := mismatch
		if asc[k] == desc[j] {
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
