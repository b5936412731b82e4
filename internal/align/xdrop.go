package align

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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
		sl.rev, sl.a, sl.brev = reversal{}, nil, nil
		sl.st.a, sl.st.brevm = nil, nil
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
	// The kernel reads a[i] and brev[m-j] for 0 <= i <= n, 0 <= j <= m, so
	// each view carries one extra base at i == 0 / j == 0: the last seed base
	// on the un-reversed side, the buffer's spare slot on the reversed side.
	// Past a[n] and brev[m] each view runs on for overread bases where there
	// are any: the buffer's, or the rest of the seed on t's side.
	if e%2 == 0 {
		tail := sd.T[sd.PosT+k:]
		buf := sl.buffer(len(tail) + 1 + overread)
		sl.rev = reversal{src: tail, dst: buf[:len(tail)], back: true}
		sl.begin(sd.S[sd.PosS+k-1:], buf, len(sd.S)-sd.PosS-k, len(tail), b.sc, x)
	} else {
		buf := sl.buffer(sd.PosS + 1 + overread)
		sl.rev = reversal{src: sd.S[:sd.PosS], dst: buf[1 : sd.PosS+1]}
		sl.begin(buf, sd.T[:min(len(sd.T), sd.PosT+1+overread)], sd.PosS, sd.PosT, b.sc, x)
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
// between calls but the pointers into the caller's reads.
type workspace struct {
	slots [fronts]slot
}

// slot is one extension in progress and what it runs in: three rolling
// antidiagonal rows for the Go loop and three narrow ones for the assembly
// routine, the buffer its reversed flank is built in, and its two base
// views.
type slot struct {
	rows    [3][]int32
	narrow  [3][]int16
	buf     []byte
	rev     reversal
	a, brev []byte
	st      front
	ext     int // which extension of the batch it is
	entered int // st.d when the routine last took it over
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
type front struct {
	n, m     int
	alast    int // the last index of a the routine may read: n, or up to overread past it
	bpad     int // how far past brev[m] it may read, at most overread
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

	rows  [5]*int16    // index 0 of the narrow rows, twice round: rows[rot:] starts at d-2's
	a     *byte        // a[0]
	brevm *byte        // brev[m], so that brev[m-d+i] is brevm[i-d]
	stop  int          // the last antidiagonal the routine may score before it hands the extension back
	next  *front       // the front the routine turns to after this one
	id    int          // the slot's index, which the routine returns
	base  int32        // a narrow cell holds its score minus base
	vbest [lanes]int16 // best-base, in every lane
	vx    [lanes]int16 // x

	// The band's, while the routine holds the front in registers: set and
	// read by the routine alone. The two addresses are brev's, kept as
	// numbers: qlow is brev[0]'s, qstop brev[m-stop+anchor]'s.
	anchor int              // the i of the band's lane 0
	nA     int              // n-anchor: the lane of a's last base
	ztop   int              // 32-2·min(14, nA): a window top's LZCNT below it is past the band or n
	qlow   uintptr          // below it, lane 0 would read before brev[0]
	qstop  uintptr          // below it, d has passed stop
	qmin   uintptr          // the larger of the two
	bound  [3 * lanes]int16 // pruned, MaxInt16, pruned: the window's masks are read from it
	bslot  [2]bandRow       // [1] holds the row that last raised best; [0] takes the rows that did not

	// What the routine has done with the extension, counted for the tests
	// (begin zeroes them): antidiagonals scored in the band, moves of the
	// anchor, spills from the band, and hand-overs from the band to the
	// memory loop and back.
	inBand, moves, spills, toMemory, toBand int
}

// bandRow is a row of the routine's band as it stored it, with brev's
// address for the antidiagonal the row is of: 64 bytes, the step between
// the two slots the routine's conditional address picks from.
type bandRow struct {
	row [lanes]int16
	q   uintptr // zero in bslot[1]: no row has raised best since the band was last anchored
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

func (sl *slot) buffer(n int) []byte {
	if cap(sl.buf) < n {
		sl.buf = make([]byte, n)
	}
	return sl.buf[:n]
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
	reverseInto(r.dst[lo:hi], r.src[l-hi:l-lo])
	r.done = to
	if to == l {
		r.done = math.MaxInt // no antidiagonal asks again
	}
}

// reverseInto writes src reversed into dst, which is as long: eight bases a
// step as one byte-reversed word, the last len%8 one at a time.
func reverseInto(dst, src []byte) {
	n := len(src)
	dst = dst[:n]
	p := 0
	for ; p+8 <= n; p += 8 {
		w := binary.LittleEndian.Uint64(src[n-p-8 : n-p])
		binary.LittleEndian.PutUint64(dst[p:p+8], bits.ReverseBytes64(w))
	}
	for ; p < n; p++ {
		dst[p] = src[n-1-p]
	}
}

// begin starts the extension of a[1..n] over brev[0..m-1] from cell (0,0):
// it sizes the rows for a first sequence of n bases and leaves in sl.st the
// extension that has scored cell (0,0) and nothing else. The narrow rows are
// overread cells longer, for the routine's lanes past a window at the n
// edge.
//
// An extension maximizes its score under x-drop pruning. b arrives
// reversed, brev[m-j] holding base j, so that along an antidiagonal both
// sequences are read in ascending index order. Unlike local alignment the
// score may go negative (down to best-x) before recovering. a[0] and brev[m]
// exist but are never scored: the cells that read them have a pruned
// diagonal; nor is anything past a[n] or brev[m], which only the routine's
// lanes past a window read. Whichever of a, brev is sl.rev.dst is filled
// ahead of the antidiagonal that reads it.
func (sl *slot) begin(a, brev []byte, n, m int, sc Scoring, x int32) {
	for r := range sl.rows {
		if cap(sl.rows[r]) < n+3 {
			sl.rows[r] = make([]int32, n+3)
		}
		if cap(sl.narrow[r]) < n+3+overread {
			sl.narrow[r] = make([]int16, n+3+overread)
		}
		sl.rows[r], sl.narrow[r] = sl.rows[r][:n+3], sl.narrow[r][:n+3+overread]
	}
	sl.a, sl.brev = a, brev
	st := &sl.st
	st.rot = 0
	p2, p1, _ := sl.threeRows()
	// d-1 is the single cell (0,0) scoring 0; d-2 is empty.
	p1[0], p1[1], p1[2] = pruned, 0, pruned
	p2[0], p2[1] = pruned, pruned
	st.n, st.m, st.d, st.lo1, st.hi1 = n, m, 1, 0, 0
	st.alast, st.bpad = min(len(a)-1, n+overread), min(len(brev)-1-m, overread)
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

// overread is how many bases past the last one a view holds the routine
// reads in the lanes past a window: a vector less one.
const overread = 15

// Why the assembly routine returned.
const (
	exitStop = iota // front.stop scored: next the flank needs filling, or the cap
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
	a, brev := sl.a, sl.brev
	n, m, x := st.n, st.m, st.x
	match, mismatch, gap := st.match, st.mismatch, st.gap
	p2, p1, cur := sl.threeRows()
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
		if d > sl.rev.done {
			sl.rev.fill(d)
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
	st.rot = (st.rot + d - st.d) % 3
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
// own operands; written inline in advance it ran a sixth slower at x=30.
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
