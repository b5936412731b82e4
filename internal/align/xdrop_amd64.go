package align

import (
	"math"

	"dibella/internal/cpuid"
)

// useAVX2 selects the assembly routine under extend. It is decided once, from
// CPUID, and only tests ever write it again.
var useAVX2 = cpuid.AVX2()

// maxSteady caps the antidiagonals one assembly call scores. Assembly has no
// preemption point, so without a cap a stop-the-world would wait on a whole
// 100 kb extension; 4096 antidiagonals are some 50 µs.
const maxSteady = 4096

// steady runs the extension in w.st in assembly for as long as the assembly
// can: to the first antidiagonal at an edge (at once, if that is st.d) or to
// the extension's end, filling the reversed flank ahead of it as advance
// does. It reports false once the extension is over.
func (w *workspace) steady(a, brev []byte) (alive bool) {
	st := &w.st
	st.a, st.brev = &a[0], &brev[0]
	for st.d <= st.n+st.m {
		if st.d > w.rev.done {
			w.rev.fill(st.d)
		}
		if exit := w.enter(min(w.rev.done, st.d+maxSteady-1)); exit != exitStop {
			return exit != exitDead
		}
	}
	return true
}

// enter is one assembly call: antidiagonals st.d to stop at most, then the
// rows rotated as many times as st.d moved (the routine rotates its three
// pointers in registers only). The routine scores the narrow rows, so the two
// windows antidiagonal d reads go in narrowed, relative to a base that puts
// best at floor, and the two that the Go loop's next antidiagonal reads come
// back widened: d-1 over its window and sentinels, d-2 over what d reads of it.
func (w *workspace) enter(stop int) (exit int) {
	st := &w.st
	p2, p1, _ := w.threeRows()
	q2, q1, qc := w.narrowRows()
	st.base = st.best - st.floor
	narrowCells(q1[st.lo1:st.hi1+3], p1[st.lo1:], st.base)
	narrowCells(q2[st.lo1:st.hi1+2], p2[st.lo1:], st.base)
	st.p2, st.p1, st.cur = &q2[0], &q1[0], &qc[0]
	st.stop = min(stop, st.n+st.m)
	d := st.d
	exit = steadyAVX2(st)
	if st.d == d || exit == exitDead {
		return exit
	}
	w.rot += st.d - d
	p2, p1, _ = w.threeRows()
	q2, q1, _ = w.narrowRows()
	widenCells(p1[st.lo1:st.hi1+3], q1[st.lo1:], st.base)
	widenCells(p2[st.lo1:st.hi1+2], q2[st.lo1:], st.base)
	return exit
}

// narrowPruned is pruned in the narrow rows.
const narrowPruned = math.MinInt16

// narrowRows returns the narrow rows of antidiagonals d-2, d-1 and d.
func (w *workspace) narrowRows() (q2, q1, cur []int16) {
	r := w.rot % 3
	return w.narrow[r], w.narrow[(r+1)%3], w.narrow[(r+2)%3]
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

// steadyAVX2 is extend's loop in assembly (xdrop_amd64.s): from st.d it
// scores antidiagonals exactly as advance would, sixteen int16 cells a step,
// until one of the exit conditions, and leaves d, lo1, hi1, best, bestI,
// bestD and cells in st as advance would have (after exitDead only the last
// four mean anything, as after advance), with the narrow rows and base where
// enter widens them from. It loads and stores whole vectors, and returns
// exitEdge, having scored nothing of antidiagonal d, when that would leave
// the rows or the bases (the package comment has the two conditions). It
// assumes st.fits().
//
//go:noescape
func steadyAVX2(st *front) (exit int)
