package align

import (
	"math/rand"
	"testing"
)

// setLeaf switches the vector leaf under extend and reports whether it was
// on. Turning it on where the CPU has no AVX2 is the caller's bug.
func setLeaf(on bool) (was bool) {
	was, useAVX2 = useAVX2, on
	return was
}

// The leaf is the Go loop lane for lane: over random rows (live scores,
// pruned cells, and stale cells past the window, as extend leaves them) the
// cells and the row maximum are equal, the lanes between width and the
// rounded-up vector width come back pruned, and nothing else is written.
func TestVectorLeafMatchesLoop(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("no AVX2 on this host: the Go loop is the whole kernel, and the other tests cover it")
	}
	const canary = int32(0x5ca1ab1e)
	rng := rand.New(rand.NewSource(21))
	cell := func() int32 {
		if rng.Intn(4) == 0 {
			return pruned
		}
		return int32(rng.Intn(1<<21) - 1<<20)
	}
	for _, mag := range fuzzScores {
		for width := 1; width <= 40; width++ {
			for trial := 0; trial < 50; trial++ {
				vw := (width + 7) &^ 7
				p1, p2 := make([]int32, vw+1), make([]int32, vw)
				for k := range p1 {
					p1[k] = cell()
				}
				for k := range p2 {
					p2[k] = cell()
				}
				ai, bj := randomSeq(rng, vw), randomSeq(rng, vw)
				for k := width; k < vw; k++ { // past the window: any byte at all
					ai[k], bj[k] = byte(rng.Intn(256)), byte(rng.Intn(256))
				}
				sc := [4]int32{cell() / 2, int32(1 + rng.Intn(mag)), -int32(1 + rng.Intn(mag)), -int32(1 + rng.Intn(mag))}
				if trial%2 == 0 {
					sc[1], sc[2], sc[3] = int32(mag), -int32(mag), -int32(mag)
				}

				want := make([]int32, width)
				wantMax := antidiagonal(want, p1[1:], p2, ai, bj, p1[0], sc[0], sc[1], sc[2], sc[3])

				got := make([]int32, 1+vw+8) // a canary before the window and eight after
				for k := range got {
					got[k] = canary
				}
				gotMax := antidiagonalAVX2(&got[1], &p1[0], &p2[0], &ai[0], &bj[0], width, &sc)
				if gotMax != wantMax {
					t.Fatalf("width %d scores %v: row max %d, the Go loop's %d", width, sc, gotMax, wantMax)
				}
				for k, v := range got {
					switch lane := k - 1; {
					case lane < 0 || lane >= vw:
						if v != canary {
							t.Fatalf("width %d: lane %d outside [0,%d) was written (%d)", width, lane, vw, v)
						}
					case lane >= width:
						if v != pruned {
							t.Fatalf("width %d: lane %d past the window holds %d, want pruned", width, lane, v)
						}
					case v != want[lane]:
						t.Fatalf("width %d scores %v: lane %d holds %d, the Go loop's %d", width, sc, lane, v, want[lane])
					}
				}
			}
		}
	}
}
