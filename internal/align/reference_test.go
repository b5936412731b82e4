package align

import (
	"math"
	"math/rand"
	"testing"
)

// referenceXDrop is the x-drop kernel as it stood before the int32
// antidiagonal rewrite, kept verbatim as the oracle every differential test
// and FuzzXDropMatchesReference compare XDrop against, field for field.
func referenceXDrop(s, t []byte, seedS, seedT, k int, sc Scoring, x int) Result {
	right := referenceExtend(s[seedS+k:], t[seedT+k:], sc, x, false)
	left := referenceExtend(s[:seedS], t[:seedT], sc, x, true)
	return Result{
		Score:  k*sc.Match + right.score + left.score,
		SStart: seedS - left.aLen,
		SEnd:   seedS + k + right.aLen,
		TStart: seedT - left.bLen,
		TEnd:   seedT + k + right.bLen,
		Cells:  right.cells + left.cells,
	}
}

// referenceExtend grows an alignment from position (0,0) of a and b (or of
// their reversals when rev is true), maximizing the extension score under
// x-drop pruning. Unlike local alignment the score may go negative (down to
// best-x) before recovering.
func referenceExtend(a, b []byte, sc Scoring, x int, rev bool) extension {
	n, m := len(a), len(b)
	if n == 0 && m == 0 {
		return extension{}
	}
	at := func(i int) byte {
		if rev {
			return a[n-i]
		}
		return a[i-1]
	}
	bt := func(j int) byte {
		if rev {
			return b[m-j]
		}
		return b[j-1]
	}

	// Three rolling antidiagonals indexed by i, with valid windows.
	prev2 := make([]int, n+1)
	prev1 := make([]int, n+1)
	cur := make([]int, n+1)
	lo2, hi2 := 0, -1 // d-2 window (empty initially)
	lo1, hi1 := 0, 0  // d-1 window: the single cell (0,0)
	prev1[0] = 0

	val := func(arr []int, i, lo, hi int) int {
		if i < lo || i > hi {
			return negInf
		}
		return arr[i]
	}

	best := extension{}
	bestScore := 0
	for d := 1; d <= n+m; d++ {
		lo := lo1
		if d-m > lo {
			lo = d - m
		}
		hi := hi1 + 1
		if d < hi {
			hi = d
		}
		if n < hi {
			hi = n
		}
		if lo > hi {
			break
		}
		pruneBelow := bestScore - x
		for i := lo; i <= hi; i++ {
			j := d - i
			v := negInf
			if j >= 1 {
				if left := val(prev1, i, lo1, hi1); left != negInf && left+sc.Gap > v {
					v = left + sc.Gap
				}
			}
			if i >= 1 {
				if up := val(prev1, i-1, lo1, hi1); up != negInf && up+sc.Gap > v {
					v = up + sc.Gap
				}
			}
			if i >= 1 && j >= 1 {
				if diag := val(prev2, i-1, lo2, hi2); diag != negInf {
					if w := diag + sc.sub(at(i), bt(j)); w > v {
						v = w
					}
				}
			}
			best.cells++
			if v < pruneBelow {
				v = negInf
			}
			cur[i] = v
			if v > bestScore {
				bestScore = v
				best.score = v
				best.aLen, best.bLen = i, j
			}
		}
		// Shrink the active window to surviving cells.
		for lo <= hi && cur[lo] == negInf {
			lo++
		}
		for hi >= lo && cur[hi] == negInf {
			hi--
		}
		if lo > hi {
			break
		}
		prev2, prev1, cur = prev1, cur, prev2
		lo2, hi2 = lo1, hi1
		lo1, hi1 = lo, hi
	}
	return best
}

// fuzzXs are the x-drop thresholds the fuzz target draws from: prune
// everything, the pipeline default, the bench default, never prune, and at
// the largest scores the largest x the assembly routine takes and the first
// it declines.
var fuzzXs = [...]int{0, 1, 7, 30, 1 << 30, narrowXMax(maxScores), narrowXMax(maxScores) + 1}

// maxScores is the scheme with every score at MaxScoreMagnitude.
var maxScores = Scoring{MaxScoreMagnitude, -MaxScoreMagnitude, -MaxScoreMagnitude}

// narrowXMax is the largest x at which the assembly routine takes an
// extension scored by sc: x+3·maxAbs <= 65534.
func narrowXMax(sc Scoring) int {
	return math.MaxInt16 - math.MinInt16 - 1 - 3*sc.maxAbs()
}

// fuzzScores are the score magnitudes it draws from, up to the largest
// Scoring.Validate admits.
var fuzzScores = [...]int{1, 2, 3, 5, MaxScoreMagnitude}

// FuzzXDropMatchesReference holds XDrop to referenceXDrop field for field,
// once as the host runs it and, where that is with the assembly routine, once
// more on the Go loop alone. The raw bytes become bases (low two bits), so a
// mutation of one input yields a similar pair; seed position, k, scoring and
// x come from the remaining arguments, covering empty flanks on either or
// both sides, seeds at either end, and reads longer than any row the pool
// has seen.
func FuzzXDropMatchesReference(f *testing.F) {
	f.Add([]byte("ACGTACGTACGT"), []byte("ACGTACGTACGT"), uint16(4), uint16(4), uint8(3), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add([]byte("AC"), []byte("GGGGGGGGGGAC"), uint16(0), uint16(10), uint8(1), uint8(4), uint8(1), uint8(2), uint8(3))
	// The assembly routine takes over nine or seventeen antidiagonals into an
	// extension: 48 similar bases either side of the seed reach it, at the
	// pipeline's x and the bench's, at unit scores and at the largest match
	// and mismatch (a gap that size exceeds either x, and a first
	// antidiagonal of two gap cells then ends the extension where it began).
	long := randomSeq(rand.New(rand.NewSource(64)), 104)
	near := concat(long[:20], []byte("T"), long[20:70], long[71:90], []byte("G"), long[91:])
	for _, x := range []uint8{2, 3} {
		for _, mag := range []uint8{0, 4} {
			f.Add(long, near, uint16(48), uint16(49), uint8(7), x, mag, mag, uint8(0))
		}
	}
	// The assembly routine carries a row in registers from one antidiagonal
	// to the next while one vector is the window and its start moves by 0 or
	// 1: 150 bases either side of the seed, two substitutions, an insertion
	// and a deletion apart, keep it there for some 250 antidiagonals a side at
	// x=7 and x=1 (a window of one to three cells), under unit scores and
	// 2/-3/-2; the deletion of two bases makes the window start jump.
	long = randomSeq(rand.New(rand.NewSource(65)), 317)
	near = concat(long[:40], []byte("C"), long[41:100], []byte("A"), long[100:201], long[203:260], []byte("T"), long[261:])
	for _, x := range []uint8{2, 1} {
		for _, mag := range [][3]uint8{{0, 0, 0}, {1, 2, 1}} {
			f.Add(long, near, uint16(150), uint16(151), uint8(16), x, mag[0], mag[1], mag[2])
		}
	}
	// The routine keeps its cells in int16 relative to a base, and rebases
	// when best climbs near the ceiling: 400 identical bases at match 1024
	// climb past it every 120 or so antidiagonals at x=7 (mismatch and gap
	// at 1), and at every new best at the largest x the routine takes with
	// all three at 1024; one more and it declines, the Go loop running the
	// whole extension.
	ident := randomSeq(rand.New(rand.NewSource(66)), 400)
	f.Add(ident, ident, uint16(200), uint16(200), uint8(16), uint8(2), uint8(4), uint8(0), uint8(0))
	for _, x := range []uint8{5, 6} {
		f.Add(long, near, uint16(150), uint16(151), uint8(16), x, uint8(4), uint8(4), uint8(4))
	}
	f.Fuzz(func(t *testing.T, sRaw, uRaw []byte, posS, posU uint16, kRaw, xSel, mSel, misSel, gSel uint8) {
		if len(sRaw) == 0 || len(uRaw) == 0 {
			t.Skip()
		}
		s, u := toBases(sRaw), toBases(uRaw)
		k := 1 + int(kRaw)%min(len(s), len(u), 32)
		seedS := int(posS) % (len(s) - k + 1)
		seedU := int(posU) % (len(u) - k + 1)
		sc := Scoring{
			Match:    fuzzScores[int(mSel)%len(fuzzScores)],
			Mismatch: -fuzzScores[int(misSel)%len(fuzzScores)],
			Gap:      -fuzzScores[int(gSel)%len(fuzzScores)],
		}
		x := fuzzXs[int(xSel)%len(fuzzXs)]
		want := referenceXDrop(s, u, seedS, seedU, k, sc, x)
		check := func(kernel string) {
			if got := XDrop(s, u, seedS, seedU, k, sc, x); got != want {
				t.Fatalf("XDrop(|s|=%d |u|=%d seed=(%d,%d) k=%d sc=%+v x=%d), %s\n got %+v\nwant %+v",
					len(s), len(u), seedS, seedU, k, sc, x, kernel, got, want)
			}
		}
		check("kernel as the host selects it")
		if setAssembly(false) {
			defer setAssembly(true)
			check("Go loop alone")
		}
	})
}

func toBases(raw []byte) []byte {
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = "ACGT"[b&3]
	}
	return out
}
