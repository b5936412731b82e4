package align

import (
	"math"

	"dibella/internal/cpuid"
)

// useAVX2 selects the assembly routine. It is decided once, from CPUID, and
// only tests ever write it again.
var useAVX2 = cpuid.AVX2()

// maxSteady caps the antidiagonals the routine scores of one extension
// before it hands the extension back. Assembly has no preemption point, so
// without a cap a stop-the-world would wait on a whole 100 kb extension; a
// call returns at the first front to exit, so within fronts·4096
// antidiagonals, some 200 µs.
const maxSteady = 4096

// bandShift moves one front's half of the band t lanes down, lane k+t to
// lane k (up, for t < 0), and fills the lanes it empties with pruned: a
// VPSHUFB of ctrl, which leaves the other half as it is, and the fill OR'd
// in.
type bandShift struct {
	ctrl, fill [2 * lanes]byte
}

// bandShifts is the bandShift for each t from 1-lanes to lanes-1 (at
// t+lanes-1) and half, which the routine reads by name.
var bandShifts = func() (tab [2*lanes - 1][2]bandShift) {
	for i := range tab {
		t := i - (lanes - 1)
		for half := range tab[i] {
			sh := &tab[i][half]
			for k := range 2 * lanes {
				sh.ctrl[k] = byte(k % lanes)
				if k/lanes != half {
					continue
				}
				if src := k%lanes + t; src >= 0 && src < lanes {
					sh.ctrl[k] = byte(src)
				} else {
					sh.ctrl[k], sh.fill[k] = 0x80, 0x80 // VPSHUFB's zero, OR'd into pruned
				}
			}
		}
	}
	return tab
}()

// ascending and descending are how the band lays sixteen bases of a view
// into a front's lanes: a VPSHUFB by one of them puts byte k in lane k (a
// view read ascending along an antidiagonal) or byte 15-k (one read
// descending, whose 16 bytes are loaded from 15 below lane 0's base).
// tail is front.tail. lotab and hitab are front's: 16 bytes read from
// lotab at 16-lo are 0x7f in the lanes from lo, and from hitab at hz in the
// lanes up to 16-hz, 0x80 in the others.
var ascending, descending, tail, lotab, hitab = func() (asc, desc [lanes]byte, t [2 * lanes]int16, lo, hi [3 * lanes]byte) {
	for k := range lanes {
		asc[k], desc[k] = byte(k), byte(lanes-1-k)
		t[k], t[lanes+k] = math.MaxInt16, narrowPruned
	}
	for i := range 3 * lanes {
		lo[i], hi[i] = 0x80, 0x80
		if i >= lanes {
			lo[i] = 0x7f
		}
		if i <= lanes {
			hi[i] = 0x7f
		}
	}
	return asc, desc, t, lo, hi
}()

// runFronts runs the batch on the assembly routine, fronts extensions at a
// time. Every slot takes an extension from the queue; the routine advances
// the live ones in turn, an antidiagonal each, and returns the first to
// exit. Go then deals with that one alone (slot.resume) while the other
// waits in the routine's form, and when an extension ends, its seed's
// result takes its part and the slot takes the queue's next extension. The
// next call starts at the slot after the one that exited.
func (w *workspace) runFronts(b *batch) {
	var live [fronts]bool
	for i := range w.slots {
		w.slots[i].st.id = i
		live[i] = b.refill(&w.slots[i])
	}
	for i := 0; ; {
		start := w.link(&live, i)
		if start == nil {
			return
		}
		id, exit := frontsAVX2(start)
		sl := &w.slots[id]
		if !sl.resume(exit) {
			b.finish(sl)
			live[id] = b.refill(sl)
		}
		i = id + 1
	}
}

// refill starts the queue's next extension in sl and hands it to the
// routine, reporting false once the queue is empty. An extension the
// routine cannot take (its scores do not fit the narrow rows, or it has
// nothing to score) runs to its end here, and the next is taken.
func (b *batch) refill(sl *slot) bool {
	for b.take(sl) {
		st := &sl.st
		if st.fits() && st.d <= st.n+st.m {
			sl.enter()
			return true
		}
		sl.advance(st.n + st.m)
		b.finish(sl)
	}
	return false
}

// link threads the live slots' fronts into the ring the routine walks and
// returns the first live one from slot i on, or nil when none is.
func (w *workspace) link(live *[fronts]bool, i int) *front {
	var first, last *front
	for j := range w.slots {
		if !live[j] {
			continue
		}
		st := &w.slots[j].st
		if first == nil {
			first = st
		} else {
			last.next = st
		}
		last = st
	}
	if first == nil {
		return nil
	}
	last.next = first
	for j := range fronts {
		if s := (i + j) % fronts; live[s] {
			return &w.slots[s].st
		}
	}
	return nil
}

// resume deals with the routine's exit from sl's extension and reports
// whether the extension goes back to the routine. After an edge the Go loop
// runs edgeRun antidiagonals, on rows widened from the narrow ones, before
// the routine is offered the extension again. After a stop the extension is
// rebased if best-base has passed ceil, and otherwise (the cap) the routine
// goes on where it stopped.
func (sl *slot) resume(exit int) bool {
	st := &sl.st
	switch exit {
	case exitDead:
		return false
	case exitEdge:
		sl.leave()
		if !sl.advance(min(st.n+st.m, st.d+edgeRun-1)) || st.d > st.n+st.m {
			return false
		}
		sl.enter()
		return true
	}
	if st.d > st.n+st.m {
		return false
	}
	if st.best-st.base > st.ceil { // the rebase: out to the int32 rows, and in again at floor
		sl.leave()
		sl.enter()
		return true
	}
	sl.horizon()
	return true
}

// horizon sets how far the routine may go: maxSteady antidiagonals on at
// most, and no further than best-base may climb without passing ceil
// before the antidiagonal is scored (best climbs at most maxAbs an
// antidiagonal).
func (sl *slot) horizon() {
	st := &sl.st
	room := int((st.ceil - (st.best - st.base)) / st.maxAbs)
	st.stop = min(st.d+maxSteady-1, st.n+st.m, st.d+room)
}

// enter hands the extension to the routine, which scores the narrow rows:
// the two windows antidiagonal d reads go in narrowed, relative to a base
// that puts best at floor (d-1 over its window and sentinels, d-2 over what
// d reads of it), and the routine's own fields are set: among them base 0
// of each view, and which of the two it reads ascending.
func (sl *slot) enter() {
	st := &sl.st
	p2, p1, _ := sl.threeRows()
	q2, q1, _ := sl.narrowRows()
	st.base = st.best - st.floor
	narrowCells(q1[st.lo1:st.hi1+3], p1[st.lo1:], st.base)
	narrowCells(q2[st.lo1:st.hi1+2], p2[st.lo1:], st.base)
	q := &sl.narrow
	st.rows = [5]*int16{&q[0][0], &q[1][0], &q[2][0], &q[0][0], &q[1][0]}
	st.tail, st.lotab, st.hitab = tail, lotab, hitab
	st.a, st.b, st.amask, st.qmask, st.aoff, st.qoff = &sl.a[0], &sl.b[0], ascending, descending, 0, 1-lanes
	if st.sigma < 0 {
		st.a, st.b, st.amask, st.qmask, st.aoff, st.qoff = &sl.a[st.n], &sl.b[st.m], descending, ascending, 1-lanes, 0
	}
	for k := range lanes {
		st.vbest[k], st.vx[k], st.x1[k] = int16(st.floor), int16(st.x), byte(st.x+1)
	}
	sl.entered = st.d
	sl.horizon()
}

// leave is enter undone for the Go loop: the two rows its next
// antidiagonal reads are widened from the narrow rows, if the routine
// scored anything since enter.
func (sl *slot) leave() {
	st := &sl.st
	if st.d == sl.entered {
		return
	}
	p2, p1, _ := sl.threeRows()
	q2, q1, _ := sl.narrowRows()
	widenCells(p1[st.lo1:st.hi1+3], q1[st.lo1:], st.base)
	widenCells(p2[st.lo1:st.hi1+2], q2[st.lo1:], st.base)
}

// narrowPruned is pruned in the narrow rows.
const narrowPruned = math.MinInt16

// narrowRows returns the narrow rows of antidiagonals d-2, d-1 and d.
func (sl *slot) narrowRows() (q2, q1, cur []int16) {
	r := sl.st.rot
	return sl.narrow[r], sl.narrow[(r+1)%3], sl.narrow[(r+2)%3]
}

// narrowCells stores src's cells in dst less base, and pruned as narrowPruned.
func narrowCells(dst []int16, src []int32, base int32) {
	src = src[:len(dst)]
	for k, v := range src {
		dst[k] = narrowPruned
		if v != pruned {
			dst[k] = int16(v - base)
		}
	}
}

// widenCells is narrowCells undone.
func widenCells(dst []int32, src []int16, base int32) {
	src = src[:len(dst)]
	for k, v := range src {
		dst[k] = pruned
		if v != narrowPruned {
			dst[k] = int32(v) + base
		}
	}
}

// frontsAVX2 is advance's loop in assembly (xdrop_amd64.s) over the ring of
// fronts that st is on, st alone or st and the front after it: it scores an
// antidiagonal of each front in turn, exactly as advance would, sixteen
// int16 cells a step, and returns the first front to meet one of the exit
// conditions, by id, with the reason. That front's d, lo1, hi1, best,
// bestI, bestD and cells are then what advance would have left (after
// exitDead only the last four mean anything, as after advance), and its
// narrow rows and base are where leave widens them from; the other front is
// as the routine will next take it up, its state in its struct and rows
// however the routine held it. It loads and stores whole vectors, and
// returns exitEdge, having scored nothing of antidiagonal d, when that would
// leave the rows or the bases (the package comment has the conditions).
// Every front on the ring fits() and shares st's scores.
//
//go:noescape
func frontsAVX2(st *front) (id, exit int)
