package align

// useAVX2 selects the vector leaf under extend. It is decided once, from
// CPUID, and only tests ever write it again.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers (xdrop_amd64.s).
func cpuHasAVX2() bool

// antidiagonalAVX2 is antidiagonal eight cells a step (xdrop_amd64.s): c, ai
// and bj point at the window's first cell and bases, p1 at up for that cell
// (left is one int32 on) and p2 at its diag. It loads and stores whole
// vectors, so every operand must be addressable for width rounded up to 8
// elements (one more for p1); the lanes past width are stored as pruned.
//
//go:noescape
func antidiagonalAVX2(c, p1, p2 *int32, ai, bj *byte, width int, k *[4]int32) int32
