package align

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// setAssembly switches the assembly routine under extend and reports whether
// it was on. Turning it on where the CPU has no AVX2 is the caller's bug.
func setAssembly(on bool) (was bool) {
	was, useAVX2 = useAVX2, on
	return was
}

const (
	rowCanary  = int32(0x5ca1ab1e)
	canaryRoom = 16 // cells or bases either side of a row or a base view
)

// guarded is a workspace whose rows sit between canaries, with its two base
// views and their canaried backing, for one right-hand extension of a over b.
type guarded struct {
	w        workspace
	rowMem   [3][]int32
	a, brev  []byte
	baseMem  [2][]byte
	baseWant [2][]byte
}

// newGuarded starts the extension of a[1:] over b as XDrop starts its
// right-hand one: a as it lies, b reversed on demand into a buffer one base
// longer.
func newGuarded(a, b []byte, sc Scoring, x int32) *guarded {
	g := new(guarded)
	pad := func(n int) []byte { return bytes.Repeat([]byte{0xEE}, n) }
	g.baseMem[0] = concat(pad(canaryRoom), a, pad(canaryRoom))
	g.baseMem[1] = pad(canaryRoom + len(b) + 1 + canaryRoom)
	g.a = g.baseMem[0][canaryRoom:][:len(a):len(a)]
	g.brev = g.baseMem[1][canaryRoom:][: len(b)+1 : len(b)+1]
	g.w.rev = reversal{src: b, dst: g.brev[:len(b)], back: true}
	n := len(a) - 1
	for r := range g.rowMem {
		g.rowMem[r] = make([]int32, canaryRoom+n+3+canaryRoom)
		for k := range g.rowMem[r] {
			g.rowMem[r][k] = rowCanary
		}
		g.w.rows[r] = g.rowMem[r][canaryRoom:][: n+3 : n+3]
	}
	g.w.begin(n, len(b), sc, x)
	return g
}

// clone copies the extension in progress, canaries and reversal state
// included, so the two copies can be advanced by different kernels.
func (g *guarded) clone() *guarded {
	c := new(guarded)
	c.w.rot, c.w.st = g.w.rot, g.w.st
	for r := range g.rowMem {
		c.rowMem[r] = slices.Clone(g.rowMem[r])
		c.w.rows[r] = c.rowMem[r][canaryRoom:][:len(g.w.rows[r]):len(g.w.rows[r])]
	}
	for v := range g.baseMem {
		c.baseMem[v] = slices.Clone(g.baseMem[v])
	}
	c.a = c.baseMem[0][canaryRoom:][:len(g.a):len(g.a)]
	c.brev = c.baseMem[1][canaryRoom:][:len(g.brev):len(g.brev)]
	c.w.rev = g.w.rev
	c.w.rev.dst = c.brev[:len(g.w.rev.dst)]
	return c
}

// snapshot remembers the bases, and the bytes around them, for untouched.
func (g *guarded) snapshot() {
	for v := range g.baseMem {
		g.baseWant[v] = slices.Clone(g.baseMem[v])
	}
}

// untouched fails the test on a write outside the rows, or anywhere in or
// around the bases since snapshot.
func (g *guarded) untouched(t *testing.T, when string) {
	t.Helper()
	for r, mem := range g.rowMem {
		for k, v := range mem {
			if (k < canaryRoom || k >= len(mem)-canaryRoom) && v != rowCanary {
				t.Fatalf("%s: row %d written at index %d, outside [0,%d)", when, r, k-canaryRoom, len(mem)-2*canaryRoom)
			}
		}
	}
	for v := range g.baseMem {
		if !bytes.Equal(g.baseMem[v], g.baseWant[v]) {
			t.Fatalf("%s: base view %d or the bytes around it were written", when, v)
		}
	}
}

// window is one scored antidiagonal as the Go loop saw it.
type window struct {
	lo, width int // before the shrink
	hi1       int // the last cell to survive it
}

// pathTally counts the antidiagonals of one assembly call by the path the
// routine takes through them, as the Go loop's windows determine it.
type pathTally struct {
	carried0, carried1 int // neighbours from registers, window start moved by 0 or 1
	lane7              int // of carried1: behind a width-8 window whose lane 7 survived
	jumped             int // from the rows: a single vector after one, start moved by 2+
	first              int // from the rows: a single vector with nothing to carry from
	multi              int // from the rows: wider than one vector
	carry              bool
	prev               window
}

// score advances w by one antidiagonal on the Go loop and files it,
// reporting whether the extension lives on.
func (p *pathTally) score(w *workspace, a, brev []byte) (alive bool) {
	st := &w.st
	lo, hi := max(st.lo1, st.d-st.m), min(st.hi1+1, st.n)
	width := hi - lo + 1
	alive = w.advance(a, brev, st.d)
	switch s := lo - p.prev.lo; {
	case width > 8:
		p.multi++
	case !p.carry:
		p.first++
	case s == 0:
		p.carried0++
	case s == 1:
		p.carried1++
		if p.prev.width == 8 && p.prev.hi1 == p.prev.lo+7 {
			p.lane7++ // the lane shifted in stands for the upper sentinel
		}
	default:
		p.jumped++
	}
	p.carry, p.prev = width <= 8, window{lo, width, st.hi1}
	return alive
}

func (p *pathTally) add(q pathTally) {
	p.carried0 += q.carried0
	p.carried1 += q.carried1
	p.lane7 += q.lane7
	p.jumped += q.jumped
	p.first += q.first
	p.multi += q.multi
}

func (p pathTally) String() string {
	total := float64(p.carried0+p.carried1+p.jumped+p.first+p.multi) / 100
	return fmt.Sprintf("carried s=0 %d (%.1f%%), carried s=1 %d (%.1f%%, %d behind a live lane 7), rows after a jump %d (%.1f%%), rows with nothing carried %d (%.1f%%), rows wider than a vector %d (%.1f%%)",
		p.carried0, float64(p.carried0)/total, p.carried1, float64(p.carried1)/total, p.lane7,
		p.jumped, float64(p.jumped)/total, p.first, float64(p.first)/total, p.multi, float64(p.multi)/total)
}

// The x=7 rung is the carried path's: on BenchmarkXDropSimilarX7's pair,
// taken as one assembly call from the ninth antidiagonal on, nearly every
// antidiagonal finds its neighbours in registers. A change that made the
// carry rarely valid would pass every equivalence test and lose the kernel
// its speed; this is where it fails. The shares are logged for CHANGES.md.
func TestSteadyPathsOnTheRungs(t *testing.T) {
	for _, rung := range []struct {
		name    string
		length  int
		x       int
		carried float64 // least share of carried antidiagonals
	}{
		{"SimilarX7", 6000, 7, 0.85},
		{"Similar (x=30)", 10000, 30, 0},
	} {
		rng := rand.New(rand.NewSource(1))
		tmpl := randomSeq(rng, rung.length)
		a, b := concat([]byte("A"), mutate(rng, tmpl, 0.075)), mutate(rng, tmpl, 0.075)
		g := newGuarded(a, b, DefaultScoring, clampXDrop(len(a)+len(b), DefaultScoring, rung.x))
		g.w.advance(g.a, g.brev, edgeRun)
		var tally pathTally
		for g.w.st.d <= g.w.st.n+g.w.st.m && tally.score(&g.w, g.a, g.brev) {
		}
		t.Logf("%s: %v", rung.name, tally)
		total := tally.carried0 + tally.carried1 + tally.jumped + tally.first + tally.multi
		if got := float64(tally.carried0+tally.carried1) / float64(total); got < rung.carried {
			t.Errorf("%s: %.1f%% of antidiagonals carried, want at least %.0f%%", rung.name, 100*got, 100*rung.carried)
		}
	}
}

// steadyCase is one extension of TestSteadyMatchesLoop.
type steadyCase struct {
	name string
	a, b []byte // a[0] is the spare base XDrop hands extend
	sc   Scoring
	x    int32
}

func steadyCases() []steadyCase {
	rng := rand.New(rand.NewSource(23))
	pair := func(length int, rate float64) (a, b []byte) {
		tmpl := randomSeq(rng, length)
		return concat([]byte("A"), mutate(rng, tmpl, rate)), mutate(rng, tmpl, rate)
	}
	var cases []steadyCase
	add := func(name string, a, b []byte, sc Scoring, x int) {
		cases = append(cases, steadyCase{name, a, b, sc, clampXDrop(len(a)+len(b), sc, x)})
	}
	a, b := pair(1500, 0.075)
	add("similar x=7", a, b, DefaultScoring, 7)
	a, b = pair(1500, 0.12)
	add("noisier x=7", a, b, DefaultScoring, 7)
	a, b = pair(900, 0.075)
	add("similar x=30", a, b, DefaultScoring, 30) // windows past 8 and past 16 cells
	add("similar x=30 scores 2/-3/-2", a, b, Scoring{2, -3, -2}, 30)
	add("divergent x=30", concat([]byte("A"), randomSeq(rng, 600)), randomSeq(rng, 600), DefaultScoring, 30)
	add("divergent x=7", concat([]byte("A"), randomSeq(rng, 600)), randomSeq(rng, 600), DefaultScoring, 7)
	// One read much shorter than the other: the window runs into the n edge
	// (a short) or is pushed along by the d-m edge (b short), and x large
	// enough that the extension lives on along it.
	a, b = pair(700, 0.075)
	add("a short, n edge", a[:60], b, DefaultScoring, 30)
	add("b short, d-m edge", a, b[:60], DefaultScoring, 30)
	add("b short, d-m edge, x=1000", a, b[:40], DefaultScoring, 1000)
	add("a short, n edge, x=1000", a[:40], b, DefaultScoring, 1000)
	return cases
}

// The assembly routine is the Go loop, antidiagonal for antidiagonal. Every
// extension here is walked by the Go loop alone; at every antidiagonal D of
// that walk the routine is entered on a copy, with a stop horizon that lets
// it score between one antidiagonal and all that the flank allows, and what
// it leaves is compared with the Go loop advanced over the same
// antidiagonals: the rows it wrote over their windows and both sentinels (a
// row it did not write, whole), lo1, hi1, best, bestI, bestD, cells and d,
// and the reason it gave for stopping, which has to be true. Canaries either
// side of every row and of both base views stay as they were. The paths
// through the routine are counted from the Go loop's windows, and each has
// to have been taken.
func TestSteadyMatchesLoop(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("no AVX2 on this host: the Go loop is the whole kernel, and the other tests cover it")
	}
	var entered, edges, deaths, fills, caps int
	var paths pathTally
	for _, tc := range steadyCases() {
		n, m := len(tc.a)-1, len(tc.b)
		windowAt := func(st *front) (lo, hi int) { // extend's window arithmetic
			return max(st.lo1, st.d-m), min(st.hi1+1, n)
		}
		ref := newGuarded(tc.a, tc.b, tc.sc, tc.x)
		for D := 1; D <= n+m; D++ {
			if D > ref.w.rev.done {
				ref.w.rev.fill(D) // as steady does ahead of the routine
			}
			// Stop horizons: a single antidiagonal, a few (a call's cap is
			// this comparison), and everything the flank allows.
			horizon := [...]int{D, D + 2 + D%7, math.MaxInt}[D%3]
			stop := min(horizon, ref.w.rev.done)

			got := ref.clone()
			got.snapshot()
			got.w.st.a, got.w.st.brev = &got.a[0], &got.brev[0]
			exit := got.w.enter(stop)
			got.untouched(t, tc.name)
			steps := got.w.st.d - D
			entered++

			// replay is the Go loop advanced over the first k of them.
			replay := func(k int) *guarded {
				g := ref.clone()
				if k > 0 && !g.w.advance(g.a, g.brev, D+k-1) {
					t.Fatalf("%s: entered at d=%d the routine scored %d antidiagonals; the Go loop died at %d",
						tc.name, D, steps, g.w.st.d)
				}
				return g
			}
			want := replay(steps)
			gs, ws := &got.w.st, &want.w.st
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("%s: entered at d=%d, stop %d, exit %d after %d antidiagonals: "+format,
					append([]any{tc.name, D, stop, exit, steps}, args...)...)
			}
			switch exit {
			case exitStop:
				if gs.d != min(stop, n+m)+1 {
					fail("exitStop at d=%d", gs.d)
				}
				if stop == ref.w.rev.done && stop < n+m {
					fills++
				} else if stop < n+m {
					caps++
				}
			case exitEdge:
				lo, hi := windowAt(ws)
				vw := (hi - lo + 1 + 7) &^ 7
				if lo > hi || (lo+vw <= n+1 && ws.d-lo >= vw-1) {
					fail("window [%d,%d] at d=%d of n=%d m=%d is no edge", lo, hi, gs.d, n, m)
				}
				edges++
			case exitDead:
				if want.w.advance(want.a, want.brev, gs.d) {
					fail("the Go loop lives on past d=%d", gs.d)
				}
				deaths++
			default:
				fail("unknown exit code")
			}
			if gs.d-1 > stop {
				fail("scored up to d=%d", gs.d-1)
			}
			if gs.d != ws.d || gs.best != ws.best || gs.bestI != ws.bestI || gs.bestD != ws.bestD || gs.cells != ws.cells {
				fail("\n got d=%d best=%d at (%d,%d) cells=%d\nwant d=%d best=%d at (%d,%d) cells=%d",
					gs.d, gs.best, gs.bestI, gs.bestD, gs.cells, ws.d, ws.best, ws.bestI, ws.bestD, ws.cells)
			}
			if exit != exitDead { // a dead extension's window and rows are read by no one
				if gs.lo1 != ws.lo1 || gs.hi1 != ws.hi1 || got.w.rot%3 != want.w.rot%3 {
					fail("window [%d,%d] rot %d, want [%d,%d] rot %d",
						gs.lo1, gs.hi1, got.w.rot%3, ws.lo1, ws.hi1, want.w.rot%3)
				}
				for back := 1; back <= 3; back++ {
					r := (want.w.rot + 5 - back) % 3 // the row of antidiagonal d-back
					grow, wrow := got.w.rows[r], want.w.rows[r]
					if back <= steps { // written in this call: its window and sentinels
						at := replay(steps - back + 1).w.st
						grow, wrow = grow[at.lo1:at.hi1+3], wrow[at.lo1:at.hi1+3]
					}
					if !slices.Equal(grow, wrow) {
						fail("row of antidiagonal d-%d\n got %v\nwant %v", back, grow, wrow)
					}
				}
			}

			// Which paths this call took, from the Go loop's windows.
			walk, tally := ref.clone(), pathTally{}
			for d := D; d < D+steps; d++ {
				tally.score(&walk.w, walk.a, walk.brev)
			}
			paths.add(tally)

			if !ref.w.advance(ref.a, ref.brev, D) {
				break
			}
		}
	}
	t.Logf("%d entries; antidiagonals %v; exits: %d edge, %d dead, %d flank, %d cap",
		entered, paths, edges, deaths, fills, caps)
	for _, reached := range []struct {
		what  string
		count int
	}{
		{"antidiagonals carried at s=0", paths.carried0},
		{"antidiagonals carried at s=1", paths.carried1},
		{"width-8 windows with a live lane 7 ahead of an s=1", paths.lane7},
		{"window starts that jump by 2+ between single vectors", paths.jumped},
		{"antidiagonals wider than one vector", paths.multi},
		{"edge exits", edges},
		{"deaths inside the routine", deaths},
		{"stops because the flank needs filling", fills},
		{"stops at a call's cap", caps},
	} {
		if reached.count == 0 {
			t.Errorf("no case reached: %s", reached.what)
		}
	}
}
