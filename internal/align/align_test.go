package align

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScoringValidate(t *testing.T) {
	if err := DefaultScoring.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Scoring{
		{0, -1, -1}, {1, 0, -1}, {1, -1, 0}, {-1, -1, -1},
	}
	for _, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("%+v validated", sc)
		}
	}
}

func TestSmithWatermanKnown(t *testing.T) {
	cases := []struct {
		s, t  string
		score int
	}{
		{"ACGT", "ACGT", 4},
		{"AAAA", "TTTT", 0},
		{"ACGT", "AGGT", 2}, // AC + GT runs, or 3 matches - 1 mismatch
		{"", "ACGT", 0},
		{"ACGT", "", 0},
	}
	for _, c := range cases {
		got := SmithWaterman([]byte(c.s), []byte(c.t), DefaultScoring)
		if got.Score != c.score {
			t.Errorf("SW(%q,%q) = %d, want %d", c.s, c.t, got.Score, c.score)
		}
	}
	// The classic worked example (Wikipedia's Smith-Waterman article):
	// ACACACTA vs AGCACACA with +2/-1/-1 scores 12.
	got := SmithWaterman([]byte("ACACACTA"), []byte("AGCACACA"), Scoring{2, -1, -1})
	if got.Score != 12 {
		t.Errorf("classic example = %d, want 12", got.Score)
	}
}

// Property: aligning a sequence against itself scores len*match.
func TestSWSelfAlignment(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%60 + 1
		s := randomSeq(rand.New(rand.NewSource(seed)), n)
		r := SmithWaterman(s, s, DefaultScoring)
		return r.Score == n && r.SEnd == n && r.TEnd == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Smith-Waterman is symmetric in its arguments.
func TestSWSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSeq(rng, rng.Intn(50)+1)
		u := randomSeq(rng, rng.Intn(50)+1)
		return SmithWaterman(s, u, DefaultScoring).Score ==
			SmithWaterman(u, s, DefaultScoring).Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestXDropIdenticalStrings(t *testing.T) {
	s := []byte("ACGTTGCAACGTAGCTAGGCATTCAG")
	for _, seed := range []int{0, 5, len(s) - 7} {
		r := XDrop(s, s, seed, seed, 7, DefaultScoring, 100)
		if r.Score != len(s) {
			t.Errorf("seed@%d: score %d, want %d", seed, r.Score, len(s))
		}
		if r.SStart != 0 || r.SEnd != len(s) || r.TStart != 0 || r.TEnd != len(s) {
			t.Errorf("seed@%d: span [%d,%d)/[%d,%d)", seed, r.SStart, r.SEnd, r.TStart, r.TEnd)
		}
	}
}

func TestXDropPanics(t *testing.T) {
	s := []byte("ACGTACGT")
	cases := []struct{ ss, st, k, x int }{
		{-1, 0, 4, 10}, {0, -1, 4, 10}, {5, 0, 4, 10}, {0, 5, 4, 10},
		{0, 0, 0, 10}, {0, 0, 4, -1},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("XDrop(%+v) did not panic", c)
				}
			}()
			XDrop(s, s, c.ss, c.st, c.k, DefaultScoring, c.x)
		}()
	}
}

// naiveExtend is an unpruned extension DP used as ground truth for XDrop
// with a very large x.
func naiveExtend(a, b []byte, sc Scoring) int {
	n, m := len(a), len(b)
	h := make([][]int, n+1)
	for i := range h {
		h[i] = make([]int, m+1)
	}
	best := 0
	for i := 0; i <= n; i++ {
		for j := 0; j <= m; j++ {
			if i == 0 && j == 0 {
				continue
			}
			v := negInf
			if i > 0 && j > 0 {
				v = h[i-1][j-1] + sc.sub(a[i-1], b[j-1])
			}
			if i > 0 {
				if w := h[i-1][j] + sc.Gap; w > v {
					v = w
				}
			}
			if j > 0 {
				if w := h[i][j-1] + sc.Gap; w > v {
					v = w
				}
			}
			h[i][j] = v
			if v > best {
				best = v
			}
		}
	}
	return best
}

// Property: with an effectively infinite x, XDrop equals the unpruned
// extension DP on both sides of the seed.
func TestXDropMatchesNaiveExtension(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 5
		core := randomSeq(rng, k)
		sLeft, sRight := randomSeq(rng, rng.Intn(30)), randomSeq(rng, rng.Intn(30))
		tLeft, tRight := randomSeq(rng, rng.Intn(30)), randomSeq(rng, rng.Intn(30))
		s := concat(sLeft, core, sRight)
		u := concat(tLeft, core, tRight)
		got := XDrop(s, u, len(sLeft), len(tLeft), k, DefaultScoring, 1<<30)
		want := k*1 +
			naiveExtend(sRight, tRight, DefaultScoring) +
			naiveExtend(reversed(sLeft), reversed(tLeft), DefaultScoring)
		return got.Score == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the score never falls below the bare seed score, and spans
// always contain the seed.
func TestXDropLowerBoundAndSpans(t *testing.T) {
	f := func(seed int64, xRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 6
		core := randomSeq(rng, k)
		s := concat(randomSeq(rng, rng.Intn(40)), core, randomSeq(rng, rng.Intn(40)))
		u := concat(randomSeq(rng, rng.Intn(40)), core, randomSeq(rng, rng.Intn(40)))
		seedS := bytes.Index(s, core)
		seedT := bytes.Index(u, core)
		x := int(xRaw) % 50
		r := XDrop(s, u, seedS, seedT, k, DefaultScoring, x)
		return r.Score >= k &&
			r.SStart <= seedS && r.SEnd >= seedS+k &&
			r.TStart <= seedT && r.TEnd >= seedT+k &&
			r.SStart >= 0 && r.SEnd <= len(s) &&
			r.TStart >= 0 && r.TEnd <= len(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestXDropEarlyTermination(t *testing.T) {
	// On divergent sequences the production x (BELLA's default, 7) must
	// compute far fewer cells than the full DP — the mechanism behind
	// alignment-stage load imbalance. (With +1/-1/-1 scoring and a large x
	// the extension over random DNA is supercritical and would keep
	// growing; small x is what keeps it linear.)
	rng := rand.New(rand.NewSource(3))
	k := 17
	core := randomSeq(rng, k)
	s := concat(randomSeq(rng, 2000), core, randomSeq(rng, 2000))
	u := concat(randomSeq(rng, 2000), core, randomSeq(rng, 2000))
	seedS := bytes.Index(s, core)
	seedT := bytes.Index(u, core)
	r := XDrop(s, u, seedS, seedT, k, DefaultScoring, 7)
	full := int64(len(s)) * int64(len(u))
	if r.Cells > full/100 {
		t.Errorf("x-drop computed %d cells (full DP %d): no early exit", r.Cells, full)
	}
	// Harsher penalties kill divergent extensions almost immediately.
	harsh := XDrop(s, u, seedS, seedT, k, Scoring{1, -2, -2}, 7)
	if harsh.Cells > 10000 {
		t.Errorf("harsh-scoring x-drop computed %d cells", harsh.Cells)
	}
}

func TestXDropRecoversTrueOverlapScore(t *testing.T) {
	// Two noisy reads of the same template, seeded at a shared exact
	// k-mer, should extend across most of the overlap.
	rng := rand.New(rand.NewSource(9))
	template := randomSeq(rng, 3000)
	a := mutate(rng, template, 0.10)
	b := mutate(rng, template, 0.10)
	// Find a shared exact 17-mer to use as the seed.
	k := 17
	seedA, seedB := -1, -1
	for i := 0; i+k <= len(a) && seedA < 0; i++ {
		if j := bytes.Index(b, a[i:i+k]); j >= 0 {
			seedA, seedB = i, j
		}
	}
	if seedA < 0 {
		t.Skip("no shared 17-mer in this sample")
	}
	r := XDrop(a, b, seedA, seedB, k, DefaultScoring, 50)
	span := r.SEnd - r.SStart
	if span < len(a)/4 {
		t.Errorf("aligned span %d too short for 10%%-error overlap of %d", span, len(a))
	}
}

func randomSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return s
}

// mutate applies substitutions/indels at the given rate.
func mutate(rng *rand.Rand, s []byte, rate float64) []byte {
	out := make([]byte, 0, len(s))
	for _, b := range s {
		if rng.Float64() >= rate {
			out = append(out, b)
			continue
		}
		switch rng.Intn(3) {
		case 0: // substitution
			out = append(out, "ACGT"[rng.Intn(4)])
		case 1: // insertion
			out = append(out, "ACGT"[rng.Intn(4)], b)
		case 2: // deletion
		}
	}
	if len(out) == 0 {
		out = append(out, 'A')
	}
	return out
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func reversed(s []byte) []byte {
	out := make([]byte, len(s))
	for i, b := range s {
		out[len(s)-1-i] = b
	}
	return out
}

func BenchmarkSmithWaterman1k(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	s := randomSeq(rng, 1000)
	u := randomSeq(rng, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SmithWaterman(s, u, DefaultScoring)
	}
}
