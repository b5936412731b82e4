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

// bandShift moves a band s lanes down, lane k+s to lane k, and fills the
// top s lanes with pruned: the band's lanes within each half by a VPSHUFB
// of ctrl, those the upper half hands the lower by a VPSHUFB of cross
// (over the upper half, moved down), and the fill OR'd in.
type bandShift struct {
	ctrl, cross, fill [2 * lanes]byte
}

// bandShifts is the bandShift for each s, which the routine reads by name.
var bandShifts = func() (t [lanes]bandShift) {
	for s := range t {
		for half := 0; half < 2; half++ {
			for b := 0; b < lanes; b++ {
				ctrl, cross := byte(0x80), byte(0x80) // VPSHUFB's zero
				if src := b + 2*s; src < lanes {
					ctrl = byte(src)
				} else if half == 0 && src-lanes < lanes {
					cross = byte(src - lanes)
				}
				t[s].ctrl[half*lanes+b], t[s].cross[half*lanes+b] = ctrl, cross
			}
		}
		for k := lanes - s; k < lanes; k++ {
			t[s].fill[2*k+1] = 0x80 // pruned's high byte: the lane is zero before the OR
		}
	}
	return t
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
// rebased if best-base has passed ceil, and otherwise the reversal is
// filled further and the routine goes on where it stopped.
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

// horizon fills the reversed flank ahead of st.d and sets how far the
// routine may go: to the last antidiagonal whose bases the reversal has
// produced, at most maxSteady on, and no further than best-base may climb
// without passing ceil before the antidiagonal is scored (best climbs at
// most maxAbs an antidiagonal).
func (sl *slot) horizon() {
	st := &sl.st
	if st.d > sl.rev.done {
		sl.rev.fill(st.d)
	}
	room := int((st.ceil - (st.best - st.base)) / st.maxAbs)
	st.stop = min(sl.rev.done, st.d+maxSteady-1, st.n+st.m, st.d+room)
}

// enter hands the extension to the routine, which scores the narrow rows:
// the two windows antidiagonal d reads go in narrowed, relative to a base
// that puts best at floor (d-1 over its window and sentinels, d-2 over what
// d reads of it), and the routine's own fields are set.
func (sl *slot) enter() {
	st := &sl.st
	p2, p1, _ := sl.threeRows()
	q2, q1, _ := sl.narrowRows()
	st.base = st.best - st.floor
	narrowCells(q1[st.lo1:st.hi1+3], p1[st.lo1:], st.base)
	narrowCells(q2[st.lo1:st.hi1+2], p2[st.lo1:], st.base)
	q := &sl.narrow
	st.rows = [5]*int16{&q[0][0], &q[1][0], &q[2][0], &q[0][0], &q[1][0]}
	st.a, st.brevm = &sl.a[0], &sl.brev[st.m]
	for k := range lanes {
		st.vbest[k], st.vx[k] = int16(st.floor), int16(st.x)
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
