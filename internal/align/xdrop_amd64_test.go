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
	rowCanary    = int32(0x5ca1ab1e)
	narrowCanary = int16(0x5ca1)
	canaryRoom   = 16 // cells or bases either side of a row or a base view
)

// guarded is a workspace whose rows, wide and narrow, sit between canaries,
// with its two base views and their canaried backing, for one right-hand
// extension of a over b.
type guarded struct {
	w         workspace
	rowMem    [3][]int32
	narrowMem [3][]int16
	a, brev   []byte
	baseMem   [2][]byte
	baseWant  [2][]byte
}

// newGuarded starts the extension of a[1:] over b as XDrop starts its
// right-hand one: a as it lies, b reversed on demand into a buffer one base
// longer. The views run on for apad and bpad canary bytes, which the
// routine may read and nothing may write.
func newGuarded(a, b []byte, sc Scoring, x int32, apad, bpad int) *guarded {
	g := new(guarded)
	pad := func(n int) []byte { return bytes.Repeat([]byte{0xEE}, n) }
	g.baseMem[0] = concat(pad(canaryRoom), a, pad(canaryRoom))
	g.baseMem[1] = pad(canaryRoom + len(b) + 1 + canaryRoom)
	g.a = g.baseMem[0][canaryRoom:][: len(a)+apad : len(a)+apad]
	g.brev = g.baseMem[1][canaryRoom:][: len(b)+1+bpad : len(b)+1+bpad]
	g.w.rev = reversal{src: b, dst: g.brev[:len(b)], back: true}
	n := len(a) - 1
	for r := range g.rowMem {
		g.rowMem[r] = make([]int32, canaryRoom+n+3+canaryRoom)
		for k := range g.rowMem[r] {
			g.rowMem[r][k] = rowCanary
		}
		g.w.rows[r] = g.rowMem[r][canaryRoom:][: n+3 : n+3]
		g.narrowMem[r] = make([]int16, canaryRoom+n+3+overread+canaryRoom)
		for k := range g.narrowMem[r] {
			g.narrowMem[r][k] = narrowCanary
		}
		g.w.narrow[r] = g.narrowMem[r][canaryRoom:][: n+3+overread : n+3+overread]
	}
	g.w.begin(g.a, g.brev, n, len(b), sc, x)
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
		c.narrowMem[r] = slices.Clone(g.narrowMem[r])
		c.w.narrow[r] = c.narrowMem[r][canaryRoom:][:len(g.w.narrow[r]):len(g.w.narrow[r])]
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
	for r, mem := range g.narrowMem {
		for k, v := range mem {
			if (k < canaryRoom || k >= len(mem)-canaryRoom) && v != narrowCanary {
				t.Fatalf("%s: narrow row %d written at index %d, outside [0,%d)", when, r, k-canaryRoom, len(mem)-2*canaryRoom)
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
	lane15             int // of carried1: behind a width-16 window whose lane 15 survived
	over8              int // of the carried: windows of 9 to 16 cells
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
	case width > lanes:
		p.multi++
	case !p.carry:
		p.first++
	case s == 0 || s == 1:
		if s == 0 {
			p.carried0++
		} else {
			p.carried1++
			if p.prev.width == lanes && p.prev.hi1 == p.prev.lo+lanes-1 {
				p.lane15++ // the lane shifted in stands for the upper sentinel
			}
		}
		if width > 8 {
			p.over8++
		}
	default:
		p.jumped++
	}
	p.carry, p.prev = width <= lanes, window{lo, width, st.hi1}
	return alive
}

func (p *pathTally) add(q pathTally) {
	p.carried0 += q.carried0
	p.carried1 += q.carried1
	p.lane15 += q.lane15
	p.over8 += q.over8
	p.jumped += q.jumped
	p.first += q.first
	p.multi += q.multi
}

func (p pathTally) String() string {
	total := float64(p.carried0+p.carried1+p.jumped+p.first+p.multi) / 100
	return fmt.Sprintf("carried s=0 %d (%.1f%%), carried s=1 %d (%.1f%%, %d behind a live lane 15), of the carried %d (%.1f%%) 9 to 16 cells wide, rows after a jump %d (%.1f%%), rows with nothing carried %d (%.1f%%), rows wider than a vector %d (%.1f%%)",
		p.carried0, float64(p.carried0)/total, p.carried1, float64(p.carried1)/total, p.lane15,
		p.over8, float64(p.over8)/total,
		p.jumped, float64(p.jumped)/total, p.first, float64(p.first)/total, p.multi, float64(p.multi)/total)
}

// lanes is the routine's vector: sixteen int16 cells.
const lanes = 16

// The x=7 rungs are the carried path's: on BenchmarkXDropPipelineX7's and
// BenchmarkXDropSimilarX7's pairs, taken as one assembly call from the first
// antidiagonal on, nearly every antidiagonal finds its neighbours in
// registers. A change that made the carry rarely valid would pass every
// equivalence test and lose the kernel its speed; this is where it fails. The
// shares are logged for CHANGES.md.
func TestSteadyPathsOnTheRungs(t *testing.T) {
	for _, rung := range []struct {
		name    string
		length  int
		x       int
		carried float64 // least share of carried antidiagonals
	}{
		{"PipelineX7", 0, 7, 0.95},
		{"SimilarX7", 6000, 7, 0.95},
		{"Similar (x=30)", 10000, 30, 0},
	} {
		rng := rand.New(rand.NewSource(1))
		tmpl := randomSeq(rng, rung.length)
		a, b := concat([]byte("A"), mutate(rng, tmpl, 0.075)), mutate(rng, tmpl, 0.075)
		if rung.length == 0 {
			s, u, _, _ := pipelinePair(t)
			a, b = concat([]byte("A"), s), u
		}
		g := newGuarded(a, b, DefaultScoring, clampXDrop(len(a)+len(b), DefaultScoring, rung.x), 0, overread)
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
	add("similar x=30", a, b, DefaultScoring, 30) // windows past 16 and past 32 cells
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
	a, b = pair(1500, 0.15)
	add("pipeline-like x=7", a, b, DefaultScoring, 7) // windows of 9 to 16 cells, carried
	// Identity at the largest scores: best climbs 512 an antidiagonal, so the
	// routine rebases every few dozen antidiagonals at x=44 000 (windows of
	// two or three vectors) and every hundred or so at x=2 000 (one vector,
	// carried); at the largest x it takes, ceil is floor and it rebases at
	// every new best.
	tmpl := randomSeq(rng, 2000)
	add("identity, max scores, x=44000", concat([]byte("A"), tmpl), tmpl, maxScores, 44000)
	add("identity, max scores, x=2000", concat([]byte("A"), tmpl), tmpl, maxScores, 2000)
	a, b = pair(500, 0.075)
	add("similar, max scores, x=3000", a, b, maxScores, 3000) // rebases with a row carried at either s
	add("similar, max scores, largest x", a, b, maxScores, narrowXMax(maxScores))
	return cases
}

// Past narrowXMax the routine declines: extend never offers it the
// extension, and the Go loop alone gives the reference's answer. At it, the
// routine takes it and gives the same answer.
func TestSteadyDeclinesPastTheBound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s, u, seedS, seedU := seededPair(rng, 300, 12, 0.05)
	for _, sc := range []Scoring{maxScores, {MaxScoreMagnitude, -1, -1}, {3, -5, -2}} {
		for _, x := range []int{narrowXMax(sc) - 1, narrowXMax(sc), narrowXMax(sc) + 1} {
			var w workspace
			w.begin(make([]byte, 11), make([]byte, 11), 10, 10, sc, int32(x))
			if fits := x <= narrowXMax(sc); w.st.fits() != fits {
				t.Errorf("sc=%+v x=%d: fits() = %v, want %v", sc, x, w.st.fits(), fits)
			}
			got := XDrop(s, u, seedS, seedU, 12, sc, x)
			if want := referenceXDrop(s, u, seedS, seedU, 12, sc, x); got != want {
				t.Errorf("sc=%+v x=%d: got %+v want %+v", sc, x, got, want)
			}
		}
	}
}

// The assembly routine is the Go loop, antidiagonal for antidiagonal. Every
// extension here is walked by the Go loop alone; at every antidiagonal D of
// that walk the routine is entered on a copy, with a stop horizon that lets
// it score between one antidiagonal and all that the flank allows, and what
// it leaves is compared with the Go loop advanced over the same
// antidiagonals: the two rows the Go loop would go on from, as enter widens
// them from the narrow rows (every row whole, if it scored nothing), lo1,
// hi1, best, bestI, bestD, cells and d, and the reason it gave for stopping,
// which has to be true. The base views run on past their last base by what
// XDrop's views may (nothing, a little, overread); canaries either side of
// every row, wide and narrow, and of both base views stay as they were. The
// paths through the routine are counted from the Go loop's windows, and each
// has to have been taken.
func TestSteadyMatchesLoop(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("no AVX2 on this host: the Go loop is the whole kernel, and the other tests cover it")
	}
	var entered, edges, deaths, fills, caps, rebased int
	var paths pathTally
	for c, tc := range steadyCases() {
		n, m := len(tc.a)-1, len(tc.b)
		windowAt := func(st *front) (lo, hi int) { // extend's window arithmetic
			return max(st.lo1, st.d-m), min(st.hi1+1, n)
		}
		pad := [...][2]int{{0, overread}, {overread, overread}, {overread, 0}, {0, 0}, {overread, 7}}[c%5]
		ref := newGuarded(tc.a, tc.b, tc.sc, tc.x, pad[0], pad[1])
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

			// The Go loop advanced over as many.
			want := ref.clone()
			if steps > 0 && !want.w.advance(want.a, want.brev, D+steps-1) {
				t.Fatalf("%s: entered at d=%d the routine scored %d antidiagonals; the Go loop died at %d",
					tc.name, D, steps, want.w.st.d)
			}
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
				vw := (hi - lo + 1 + lanes - 1) &^ (lanes - 1)
				if last := lo + vw - 1; lo > hi || (last <= n+pad[0] && last <= ws.d+pad[1]) {
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
				rows := 3 // a call that scored nothing left every row as it was
				if steps > 0 {
					rows = 2
				}
				for back := 1; back <= rows; back++ {
					r := (want.w.rot + 5 - back) % 3 // the row of antidiagonal d-back
					grow, wrow := got.w.rows[r], want.w.rows[r]
					if steps > 0 { // as enter widened them: d-1 with its sentinels, d-2 as far as d reads it
						end := ws.hi1 + 4 - back
						grow, wrow = grow[ws.lo1:end], wrow[ws.lo1:end]
					}
					if !slices.Equal(grow, wrow) {
						fail("row of antidiagonal d-%d\n got %v\nwant %v", back, grow, wrow)
					}
				}
			}
			if gs.base != ref.w.st.best-ref.w.st.floor {
				rebased++
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
	t.Logf("%d entries, %d of them rebased; antidiagonals %v; exits: %d edge, %d dead, %d flank, %d cap",
		entered, rebased, paths, edges, deaths, fills, caps)
	for _, reached := range []struct {
		what  string
		count int
	}{
		{"antidiagonals carried at s=0", paths.carried0},
		{"antidiagonals carried at s=1", paths.carried1},
		{"width-16 windows with a live lane 15 ahead of an s=1", paths.lane15},
		{"carried windows of 9 to 16 cells", paths.over8},
		{"window starts that jump by 2+ between single vectors", paths.jumped},
		{"antidiagonals wider than one vector", paths.multi},
		{"edge exits", edges},
		{"deaths inside the routine", deaths},
		{"stops because the flank needs filling", fills},
		{"stops at a call's cap", caps},
		{"calls that rebased", rebased},
	} {
		if reached.count == 0 {
			t.Errorf("no case reached: %s", reached.what)
		}
	}
}
