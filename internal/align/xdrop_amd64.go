package align

// useAVX2 selects the assembly routine under extend. It is decided once, from
// CPUID, and only tests ever write it again.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers (xdrop_amd64.s).
func cpuHasAVX2() bool

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
// pointers in registers only).
func (w *workspace) enter(stop int) (exit int) {
	st := &w.st
	p2, p1, cur := w.threeRows()
	st.p2, st.p1, st.cur = &p2[0], &p1[0], &cur[0]
	st.stop = min(stop, st.n+st.m)
	d := st.d
	exit = steadyAVX2(st)
	w.rot += st.d - d
	return exit
}

// steadyAVX2 is extend's loop in assembly (xdrop_amd64.s): from st.d it
// scores antidiagonals exactly as advance would, eight cells a step, until
// one of the exit conditions, and leaves d, lo1, hi1, best, bestI, bestD and
// cells in st as advance would have (after exitDead only the last four mean
// anything, as after advance). It loads and stores whole vectors, and returns
// exitEdge, having scored nothing of antidiagonal d, when that would leave
// the rows or the bases (the package comment has the two conditions).
//
//go:noescape
func steadyAVX2(st *front) (exit int)
