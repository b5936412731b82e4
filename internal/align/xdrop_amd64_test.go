package align

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dibella/internal/cpuid"
)

// setAssembly switches the assembly routine on or off and reports whether
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

// guarded is a slot whose rows, wide and narrow, sit between canaries, with
// its two base views and their canaried backing, for one extension of a
// over b.
type guarded struct {
	sl        slot
	rowMem    [3][]int32
	narrowMem [3][]int16
	baseMem   [2][]byte
	baseWant  [2][]byte
}

// newGuarded starts the extension of a[1:] over b as XDrop starts its
// right-hand one (sigma +1), a's base 0 being a[0] and b's a spare, or as
// it starts its left-hand one (sigma -1), on the two views reversed.
// Canaries lie either side of both views: bpad of them, past b's base 0,
// the routine may read, and none may be written.
func newGuarded(a, b []byte, sc Scoring, x int32, sigma, bpad int) *guarded {
	g := new(guarded)
	pad := func(n int) []byte { return bytes.Repeat([]byte{0xEE}, n) }
	views := [2][]byte{a, concat([]byte("A"), b)}
	for v, view := range views {
		if sigma < 0 {
			view = reversed(view)
		}
		g.baseMem[v] = concat(pad(canaryRoom), view, pad(canaryRoom))
		views[v] = g.baseMem[v][canaryRoom:][:len(view):len(view)]
	}
	n := len(a) - 1
	for r := range g.rowMem {
		g.rowMem[r] = make([]int32, canaryRoom+n+3+canaryRoom)
		for k := range g.rowMem[r] {
			g.rowMem[r][k] = rowCanary
		}
		g.sl.rows[r] = g.rowMem[r][canaryRoom:][: n+3 : n+3]
		g.narrowMem[r] = make([]int16, canaryRoom+n+3+overread+canaryRoom)
		for k := range g.narrowMem[r] {
			g.narrowMem[r][k] = narrowCanary
		}
		g.sl.narrow[r] = g.narrowMem[r][canaryRoom:][: n+3+overread : n+3+overread]
	}
	g.sl.begin(views[0], views[1], sigma, bpad, sc, x)
	return g
}

// clone copies the extension in progress, canaries included, so the two
// copies can be advanced by different kernels.
func (g *guarded) clone() *guarded {
	c := new(guarded)
	c.sl.st, c.sl.entered = g.sl.st, g.sl.entered
	for r := range g.rowMem {
		c.rowMem[r] = slices.Clone(g.rowMem[r])
		c.sl.rows[r] = c.rowMem[r][canaryRoom:][:len(g.sl.rows[r]):len(g.sl.rows[r])]
		c.narrowMem[r] = slices.Clone(g.narrowMem[r])
		c.sl.narrow[r] = c.narrowMem[r][canaryRoom:][:len(g.sl.narrow[r]):len(g.sl.narrow[r])]
	}
	for v := range g.baseMem {
		c.baseMem[v] = slices.Clone(g.baseMem[v])
	}
	c.sl.a = c.baseMem[0][canaryRoom:][:len(g.sl.a):len(g.sl.a)]
	c.sl.b = c.baseMem[1][canaryRoom:][:len(g.sl.b):len(g.sl.b)]
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

// pathTally counts antidiagonals by the width of their window, as the Go
// loop's windows determine it.
type pathTally struct {
	one      int // one vector: in the band, or on the memory loop beside a wide front
	wide     int // wider than a vector: the memory loop's vector loop
	wideBest int // of the wide: a new best first reached past the window's first vector
}

// score advances sl by one antidiagonal on the Go loop and files it,
// reporting whether the extension lives on.
func (p *pathTally) score(sl *slot) (alive bool) {
	st := &sl.st
	lo, hi := max(st.lo1, st.d-st.m), min(st.hi1+1, st.n)
	best := st.best
	alive = sl.advance(st.d)
	if hi-lo+1 > lanes {
		p.wide++
		if st.best > best && st.bestI >= lo+lanes {
			p.wideBest++
		}
	} else {
		p.one++
	}
	return alive
}

func (p *pathTally) add(q pathTally) {
	p.one += q.one
	p.wide += q.wide
	p.wideBest += q.wideBest
}

func (p pathTally) String() string {
	total := float64(p.one+p.wide) / 100
	return fmt.Sprintf("one vector %d (%.1f%%), wider %d (%.1f%%, %d with a new best past the first vector)",
		p.one, float64(p.one)/total, p.wide, float64(p.wide)/total, p.wideBest)
}

// runAlone runs the extension in sl to its end as runFronts runs a lone
// front: the routine, and the Go loop wherever resume hands it back.
func runAlone(sl *slot) {
	sl.st.id, sl.st.next = 0, &sl.st
	sl.enter()
	for {
		if _, exit := frontsAVX2(&sl.st); !sl.resume(exit) {
			return
		}
	}
}

// The x=7 rungs are the band's: on BenchmarkXDropPipelineX7's and
// BenchmarkXDropSimilarX7's pairs nearly every antidiagonal is scored with
// the front in registers, and the routine finds best and the shrink from
// masks, with no branch on the data. A change that made the band rare
// (a window test that sent it to the memory loop, say) would pass every
// equivalence test and lose the kernel its speed; this is where it fails.
// The shares, the anchor's moves and the hand-overs are logged for
// CHANGES.md.
func TestSteadyPathsOnTheRungs(t *testing.T) {
	if !cpuid.AVX2() {
		t.Skip("no AVX2 on this host: there is no band")
	}
	for _, rung := range []struct {
		name   string
		length int
		x      int
		band   float64 // least share of antidiagonals scored in the band
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
		g := newGuarded(a, b, DefaultScoring, clampXDrop(len(a)+len(b), DefaultScoring, rung.x), 1, overread)
		runAlone(&g.sl)
		st := &g.sl.st
		got := float64(st.inBand) / float64(st.d-1)
		t.Logf("%s: %d of %d antidiagonals (%.1f%%) in the band, %d moves of its anchor, %d to the memory loop and %d back",
			rung.name, st.inBand, st.d-1, 100*got, st.moves, st.toMemory, st.toBand)
		if got < rung.band {
			t.Errorf("%s: %.1f%% of antidiagonals in the band, want at least %.0f%%", rung.name, 100*got, 100*rung.band)
		}
	}
}

// steadyCase is one extension of TestSteadyMatchesLoop.
type steadyCase struct {
	name string
	a, b []byte // a[0] is the spare base XDropBatch hands begin
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
	add("pipeline-like x=7", a, b, DefaultScoring, 7) // windows of 9 to 16 cells: the anchor moves often, and the band goes wide
	// Identity at the largest scores: best climbs 512 an antidiagonal, so the
	// routine rebases every few dozen antidiagonals at x=44 000 (windows of
	// two or three vectors, on the memory loop) and every hundred or so at
	// x=2 000 (in the band); at the largest x it takes, ceil is floor and it
	// rebases at every new best.
	tmpl := randomSeq(rng, 2000)
	add("identity, max scores, x=44000", concat([]byte("A"), tmpl), tmpl, maxScores, 44000)
	add("identity, max scores, x=2000", concat([]byte("A"), tmpl), tmpl, maxScores, 2000)
	a, b = pair(500, 0.075)
	add("similar, max scores, x=3000", a, b, maxScores, 3000) // rebases from the band and from the memory loop
	add("similar, max scores, largest x", a, b, maxScores, narrowXMax(maxScores))
	return cases
}

// Past narrowXMax the routine declines: refill never offers it the
// extension, and the Go loop alone gives the reference's answer. At it, the
// routine takes it and gives the same answer.
func TestSteadyDeclinesPastTheBound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s, u, seedS, seedU := seededPair(rng, 300, 12, 0.05)
	for _, sc := range []Scoring{maxScores, {MaxScoreMagnitude, -1, -1}, {3, -5, -2}} {
		for _, x := range []int{narrowXMax(sc) - 1, narrowXMax(sc), narrowXMax(sc) + 1} {
			var sl slot
			sl.begin(make([]byte, 11), make([]byte, 11), 10, 10, sc, int32(x))
			if fits := x <= narrowXMax(sc); sl.st.fits() != fits {
				t.Errorf("sc=%+v x=%d: fits() = %v, want %v", sc, x, sl.st.fits(), fits)
			}
			got := XDrop(s, u, seedS, seedU, 12, sc, x)
			if want := referenceXDrop(s, u, seedS, seedU, 12, sc, x); got != want {
				t.Errorf("sc=%+v x=%d: got %+v want %+v", sc, x, got, want)
			}
		}
	}
}

// call runs the routine over the ring of the fronts of sls, in that order,
// each handed to it as runFronts hands it (enter), the first with its stop
// horizon lowered to stop, until the first front exits. A stop of any other
// front is taken up again as runFronts takes it up (resume: a rebase, or a
// new horizon); any other exit of theirs is returned as it is. Every front
// is left with its best written back and its rows widened for the Go loop
// (leave), unless it died.
func call(stop int, sls ...*slot) (id, exit int) {
	for i, sl := range sls {
		sl.st.id = i
		sl.enter()
		sl.st.next = &sls[(i+1)%len(sls)].st
	}
	st := &sls[0].st
	st.stop = min(stop, st.stop)
	for {
		id, exit = frontsAVX2(&sls[0].st)
		if id == 0 || exit != exitStop || !sls[id].resume(exit) {
			break
		}
	}
	for i, sl := range sls {
		if i != id { // best as the routine writes it back when a front exits
			sl.st.best = int32(sl.st.vbest[0]) + sl.st.base
		}
		if i != id || exit != exitDead {
			sl.leave()
		}
	}
	return id, exit
}

// matchLoop compares the extension the routine left in got with want, the
// same extension advanced over as many antidiagonals by the Go loop: d,
// best, bestI, bestD and cells, and unless it died, the window, the
// rotation and the two rows the Go loop goes on from (every row whole, if
// the routine scored nothing past d0, where it took the extension up).
func matchLoop(got, want *slot, d0, exit int, fail func(format string, args ...any)) {
	gs, ws := &got.st, &want.st
	if gs.d != ws.d || gs.best != ws.best || gs.bestI != ws.bestI || gs.bestD != ws.bestD || gs.cells != ws.cells {
		fail("\n got d=%d best=%d at (%d,%d) cells=%d\nwant d=%d best=%d at (%d,%d) cells=%d",
			gs.d, gs.best, gs.bestI, gs.bestD, gs.cells, ws.d, ws.best, ws.bestI, ws.bestD, ws.cells)
	}
	if exit == exitDead { // a dead extension's window and rows are read by no one
		return
	}
	if gs.lo1 != ws.lo1 || gs.hi1 != ws.hi1 || gs.rot != ws.rot {
		fail("window [%d,%d] rot %d, want [%d,%d] rot %d", gs.lo1, gs.hi1, gs.rot, ws.lo1, ws.hi1, ws.rot)
	}
	scored := gs.d != d0
	rows := 3 // a call that scored nothing left every row as it was
	if scored {
		rows = 2
	}
	for back := 1; back <= rows; back++ {
		r := (ws.rot + 5 - back) % 3 // the row of antidiagonal d-back
		grow, wrow := got.rows[r], want.rows[r]
		if scored { // as leave widened them: d-1 with its sentinels, d-2 as far as d reads it
			end := ws.hi1 + 4 - back
			grow, wrow = grow[ws.lo1:end], wrow[ws.lo1:end]
		}
		if !slices.Equal(grow, wrow) {
			fail("row of antidiagonal d-%d\n got %v\nwant %v", back, grow, wrow)
		}
	}
}

// companion is the front TestSteadyMatchesLoop runs beside each case scored
// by sc (the routine's fronts share their scores), a right or (sigma -1) a
// left flank: two reads of one 6 kb template at 2% error, at an x that
// outlasts any one error, so it is live for longer than any case. At the
// largest scores its x is near the largest the routine takes, so that best
// may pass ceil within four antidiagonals: it stops every few antidiagonals
// and is rebased.
func companion(sc Scoring, sigma int) *guarded {
	rng := rand.New(rand.NewSource(31))
	tmpl := randomSeq(rng, 6000)
	a, b := concat([]byte("A"), mutate(rng, tmpl, 0.02)), mutate(rng, tmpl, 0.02)
	x := 4*sc.maxAbs() + 3
	if sc == maxScores {
		x = narrowXMax(sc) - 4*sc.maxAbs()
	}
	return newGuarded(a, b, sc, int32(x), sigma, overread)
}

// The assembly routine is the Go loop, antidiagonal for antidiagonal, with
// another front beside it or alone. Every extension here is walked by the
// Go loop alone, once as a right flank and once as a left, on its views
// reversed; at every antidiagonal D of that walk the routine is entered on
// a copy of one of the two, on three D in four beside a fresh copy of the
// companion, with a stop horizon that lets the case score between one
// antidiagonal and all that it may. The case's front has to be the one to
// exit, for a reason that is true, and both fronts have to be where the Go
// loop leaves them after as many antidiagonals as the routine scored of
// each (matchLoop). The lanes past a window may read b's view on past its
// base 0 by what XDrop's may (nothing, a little, overread); canaries either
// side of every row, wide and narrow, and of both base views stay as they
// were. The paths through the routine are counted, from the Go loop's
// windows and from the front's own counts, and each has to have been
// taken.
func TestSteadyMatchesLoop(t *testing.T) {
	if !cpuid.AVX2() {
		t.Skip("no AVX2 on this host: the Go loop is the whole kernel, and the other tests cover it")
	}
	var entered, alone, edges, deaths, caps, rooms, rebased int
	var inBand, moves, wideAndBack int
	var spilled [3]int // by exit: the case left from the band
	var flanks [2]int  // entries of a right flank and of a left
	var paths pathTally
	for c, tc := range steadyCases() {
		comp := companion(tc.sc, 1-c%2*2)
		n, m := len(tc.a)-1, len(tc.b)
		bpad := [...]int{overread, 0, 7}[c%3]
		refs := [2]*guarded{newGuarded(tc.a, tc.b, tc.sc, tc.x, 1, bpad), newGuarded(tc.a, tc.b, tc.sc, tc.x, -1, bpad)}
		for D := 1; D <= n+m; D++ {
			ref := refs[D/4%2]
			flanks[D/4%2]++
			// Stop horizons: a single antidiagonal, a few (a cap is this
			// comparison), and everything.
			stop := [...]int{D, D + 2 + D%7, math.MaxInt}[D%3]

			got, other := ref.clone(), comp.clone()
			got.snapshot()
			lone := D%4 == 3
			var id, exit int
			if lone {
				id, exit = call(stop, &got.sl)
				alone++
			} else {
				id, exit = call(stop, &got.sl, &other.sl)
				if other.sl.st.base != comp.sl.st.best-comp.sl.st.floor {
					rebased++ // the companion's base moved from where enter put it: resume rebased it
				}
			}
			got.untouched(t, tc.name)
			steps := got.sl.st.d - D
			entered++
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("%s: entered at d=%d, stop %d, alone %v, exit %d after %d antidiagonals: "+format,
					append([]any{tc.name, D, stop, lone, exit, steps}, args...)...)
			}
			if id != 0 {
				fail("the companion exited first, at d=%d", other.sl.st.d)
			}

			// The Go loop advanced over as many.
			want := ref.clone()
			if steps > 0 && !want.sl.advance(D+steps-1) {
				fail("the Go loop died at %d", want.sl.st.d)
			}
			gs, ws := &got.sl.st, &want.sl.st
			switch exit {
			case exitStop:
				if gs.d != gs.stop+1 || gs.stop > min(stop, n+m) {
					fail("exitStop at d=%d, horizon %d", gs.d, gs.stop)
				}
				switch {
				case gs.stop < min(stop, n+m):
					rooms++
				case stop < n+m:
					caps++
				}
			case exitEdge:
				lo, hi := max(ws.lo1, ws.d-m), min(ws.hi1+1, n)
				vw := (hi - lo + 1 + lanes - 1) &^ (lanes - 1)
				if last := lo + vw - 1; lo > hi || (last <= n && last <= ws.d+bpad) {
					fail("window [%d,%d] at d=%d of n=%d m=%d is no edge", lo, hi, gs.d, n, m)
				}
				edges++
			case exitDead:
				if want.sl.advance(gs.d) {
					fail("the Go loop lives on past d=%d", gs.d)
				}
				deaths++
			default:
				fail("unknown exit code")
			}
			if gs.d-1 > stop {
				fail("scored up to d=%d", gs.d-1)
			}
			matchLoop(&got.sl, &want.sl, D, exit, fail)

			// The companion, mid-extension, is where the Go loop would be.
			if !lone {
				wantOther := comp.clone()
				if k := other.sl.st.d - wantOther.sl.st.d; k > 0 && !wantOther.sl.advance(wantOther.sl.st.d+k-1) {
					fail("the companion's Go loop died")
				}
				matchLoop(&other.sl, &wantOther.sl, comp.sl.st.d, exitStop, func(format string, args ...any) {
					t.Helper()
					fail("companion: "+format, args...)
				})
			}

			// Which paths this call took: the windows from the Go loop's
			// walk, the band's part from the front's counts.
			walk, tally := ref.clone(), pathTally{}
			for d := D; d < D+steps; d++ {
				tally.score(&walk.sl)
			}
			paths.add(tally)
			was := &ref.sl.st
			if gs.inBand-was.inBand > steps {
				fail("%d antidiagonals in the band of %d scored", gs.inBand-was.inBand, steps)
			}
			inBand += gs.inBand - was.inBand
			moves += gs.moves - was.moves
			if gs.toMemory > was.toMemory && gs.toBand > was.toBand {
				wideAndBack++
			}
			if gs.spills > was.spills {
				spilled[exit]++
			}

			if alive := refs[0].sl.advance(D); refs[1].sl.advance(D) != alive {
				t.Fatalf("%s: the Go loop's right and left flanks part at d=%d", tc.name, D)
			} else if !alive {
				break
			}
		}
	}
	t.Logf("%d entries (%d of a right flank, %d of a left), %d alone, %d with the companion rebased; antidiagonals %v, %d of them in the band; "+
		"%d moves of the anchor; %d calls went wide and back; exits: %d edge, %d dead, %d cap, %d rebase room; "+
		"from the band: %d stop, %d edge, %d dead",
		entered, flanks[0], flanks[1], alone, rebased, paths, inBand, moves, wideAndBack, edges, deaths, caps, rooms,
		spilled[exitStop], spilled[exitEdge], spilled[exitDead])
	for _, reached := range []struct {
		what  string
		count int
	}{
		{"antidiagonals in the band", inBand},
		{"antidiagonals of one vector on the memory loop", paths.one - inBand},
		{"antidiagonals wider than one vector", paths.wide},
		{"wide antidiagonals with a new best past the first vector", paths.wideBest},
		{"moves of the band's anchor", moves},
		{"calls whose band went to the memory loop and back", wideAndBack},
		{"edge exits beside a live front", edges},
		{"deaths inside the routine beside a live front", deaths},
		{"stops at a call's cap", caps},
		{"stops where best may next pass ceil", rooms},
		{"spills from the band at a stop", spilled[exitStop]},
		{"spills from the band at an edge", spilled[exitEdge]},
		{"spills from the band at a death", spilled[exitDead]},
		{"entries of a lone front", alone},
		{"rebases of the companion beside the case's live front", rebased},
	} {
		if reached.count == 0 {
			t.Errorf("no case reached: %s", reached.what)
		}
	}
}

// The vectors the routine reads or writes every antidiagonal lie in whole
// cache lines, in both slots of a pooled workspace: the two best rows and
// the two mask tables each on lines of their own, and no 32-byte load of
// best-base, x or a base mask across two. Where this fails, the workspace's
// leading pad is what to change.
func TestFrontVectorsAreAligned(t *testing.T) {
	w := workspaces.Get().(*workspace)
	defer workspaces.Put(w)
	for i := range w.slots {
		st := reflect.ValueOf(&w.slots[i].st).Elem()
		for _, v := range []struct {
			field string
			align uintptr
		}{{"bslot", 64}, {"bound", 64}, {"vbest", 32}, {"vx", 32}, {"amask", 32}, {"qmask", 32}} {
			if at := st.FieldByName(v.field).Addr().Pointer(); at%v.align != 0 {
				t.Errorf("slot %d: front.%s at %#x, %d past a multiple of %d", i, v.field, at, at%v.align, v.align)
			}
		}
	}
}

// The routine's slots refill from the queue: after a batch of more
// extensions than there are slots, run as XDropBatch runs it, every result
// is the reference's and some slot ended holding an extension past the
// first fronts of the queue, which it took when an earlier one ended.
func TestFrontsRefillFromTheQueue(t *testing.T) {
	if !cpuid.AVX2() {
		t.Skip("no AVX2 on this host: there are no fronts to refill")
	}
	seeds := batchSeeds(rand.New(rand.NewSource(17)), 12)
	out := make([]Result, len(seeds))
	for i, sd := range seeds {
		out[i] = Result{Score: 13 * DefaultScoring.Match, SStart: sd.PosS, SEnd: sd.PosS + 13, TStart: sd.PosT, TEnd: sd.PosT + 13}
	}
	var w workspace
	b := batch{seeds: seeds, out: out, k: 13, sc: DefaultScoring, x: 7}
	w.runFronts(&b)
	for i, sd := range seeds {
		if want := referenceXDrop(sd.S, sd.T, sd.PosS, sd.PosT, 13, DefaultScoring, 7); out[i] != want {
			t.Fatalf("seed %d: got %+v want %+v", i, out[i], want)
		}
	}
	refilled := false
	for i := range w.slots {
		refilled = refilled || w.slots[i].ext >= fronts
	}
	if b.next != 2*len(seeds) || !refilled {
		t.Errorf("%d of %d extensions taken; no slot refilled: %v", b.next, 2*len(seeds), !refilled)
	}
}
