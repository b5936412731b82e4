package align

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"dibella/internal/seqgen"
)

// seededPair returns two reads sharing an exact k-mer at (seedS, seedU):
// mutated copies of one template around a common core when rate < 1,
// unrelated flanks when rate >= 1.
func seededPair(rng *rand.Rand, flank, k int, rate float64) (s, u []byte, seedS, seedU int) {
	core := randomSeq(rng, k)
	left, right := randomSeq(rng, flank), randomSeq(rng, flank)
	flanks := func() ([]byte, []byte) {
		if rate >= 1 {
			return randomSeq(rng, flank), randomSeq(rng, flank)
		}
		return mutate(rng, left, rate), mutate(rng, right, rate)
	}
	sl, sr := flanks()
	ul, ur := flanks()
	return concat(sl, core, sr), concat(ul, core, ur), len(sl), len(ul)
}

// The deterministic twin of FuzzXDropMatchesReference: similar and
// divergent pairs at read-like lengths, which the fuzzer's short inputs
// reach slowly, plus every empty-flank shape.
func TestXDropMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cases := 3000
	if testing.Short() {
		cases = 300
	}
	scorings := []Scoring{DefaultScoring, {1, -2, -2}, {2, -3, -1}, {5, -4, -7},
		{MaxScoreMagnitude, -MaxScoreMagnitude, -MaxScoreMagnitude}}
	for c := 0; c < cases; c++ {
		k := 1 + rng.Intn(20)
		rate := []float64{0, 0.05, 0.15, 0.3, 1}[rng.Intn(5)]
		s, u, seedS, seedU := seededPair(rng, rng.Intn(400), k, rate)
		switch rng.Intn(8) { // seeds at either end, n==0 xor m==0
		case 0:
			s, seedS = s[seedS:], 0
		case 1:
			u = u[:seedU+k]
		case 2:
			s, seedS, u, seedU = s[seedS:], 0, u[seedU:], 0
		case 3:
			s, u = s[:seedS+k], u[:seedU+k]
		}
		sc := scorings[rng.Intn(len(scorings))]
		x := fuzzXs[rng.Intn(len(fuzzXs))]
		got := XDrop(s, u, seedS, seedU, k, sc, x)
		want := referenceXDrop(s, u, seedS, seedU, k, sc, x)
		if got != want {
			t.Fatalf("case %d (|s|=%d |u|=%d seed=(%d,%d) k=%d sc=%+v x=%d rate=%v)\n got %+v\nwant %+v",
				c, len(s), len(u), seedS, seedU, k, sc, x, rate, got, want)
		}
	}
}

// A pooled workspace outgrown by a longer read must be regrown, not
// overrun, and stay correct for the short reads that follow.
func TestXDropWorkspaceGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, flank := range []int{10, 5000, 3, 20000, 50} {
		s, u, seedS, seedU := seededPair(rng, flank, 11, 0.1)
		xs := []int{7, 1 << 30}
		if flank > 5000 {
			xs = xs[:1] // the unpruned DP on 20 kb is the reference's minute, not ours
		}
		for _, x := range xs {
			got := XDrop(s, u, seedS, seedU, 11, DefaultScoring, x)
			if want := referenceXDrop(s, u, seedS, seedU, 11, DefaultScoring, x); got != want {
				t.Fatalf("flank %d x %d: got %+v want %+v", flank, x, got, want)
			}
		}
	}
}

// Property: a seed-anchored extension is one particular local alignment,
// so its score never exceeds the free local optimum, at any x.
func TestXDropAtMostSmithWaterman(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for c := 0; c < 200; c++ {
		k := 4 + rng.Intn(10)
		s, u, seedS, seedU := seededPair(rng, rng.Intn(120), k, []float64{0.05, 0.2, 1}[rng.Intn(3)])
		for _, sc := range []Scoring{DefaultScoring, {2, -3, -2}} {
			sw := SmithWaterman(s, u, sc).Score
			for _, x := range fuzzXs {
				if got := XDrop(s, u, seedS, seedU, k, sc, x).Score; got > sw {
					t.Fatalf("case %d sc=%+v x=%d: XDrop %d > SmithWaterman %d", c, sc, x, got, sw)
				}
			}
		}
	}
}

func TestXDropZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards at random under -race")
	}
	rng := rand.New(rand.NewSource(5))
	s, u, seedS, seedU := seededPair(rng, 2000, 17, 0.15)
	XDrop(s, u, seedS, seedU, 17, DefaultScoring, 7) // size the pooled workspace
	allocs := testing.AllocsPerRun(100, func() {
		XDrop(s, u, seedS, seedU, 17, DefaultScoring, 7)
	})
	if allocs != 0 {
		t.Errorf("steady-state XDrop allocates %v times per call, want 0", allocs)
	}
	seeds := batchSeeds(rng, 9)
	out := make([]Result, len(seeds))
	XDropBatch(seeds, 13, DefaultScoring, 7, out) // size every slot
	allocs = testing.AllocsPerRun(50, func() {
		XDropBatch(seeds, 13, DefaultScoring, 7, out)
	})
	if allocs != 0 {
		t.Errorf("steady-state XDropBatch allocates %v times per call, want 0", allocs)
	}
}

// batchSeeds is n seeds over read pairs of differing lengths and
// similarity, from unrelated flanks to near-identical ones, so the fronts of
// a batch end in no particular order; k is 13.
func batchSeeds(rng *rand.Rand, n int) []Seed {
	seeds := make([]Seed, n)
	for i := range seeds {
		s, u, seedS, seedU := seededPair(rng, 50+rng.Intn(900), 13, []float64{0.02, 0.1, 0.2, 1}[i%4])
		seeds[i] = Seed{S: s, T: u, PosS: seedS, PosT: seedU}
	}
	return seeds
}

// A batch is its seeds aligned one at a time: more extensions than the
// routine has fronts, so slots refill from the queue, over pairs whose
// extensions end at every length.
func TestXDropBatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{0, 1, 2, 3, 7, 40} {
		seeds := batchSeeds(rng, n)
		if n == 7 { // a seed at the start of s: an empty left flank, over at once
			seeds[3].S, seeds[3].PosS = seeds[3].S[seeds[3].PosS:], 0
		}
		if 2*n > fronts && n < 7 {
			t.Logf("%d seeds: %d extensions over %d fronts", n, 2*n, fronts)
		}
		out := make([]Result, n)
		XDropBatch(seeds, 13, DefaultScoring, 7, out)
		for i, sd := range seeds {
			if want := referenceXDrop(sd.S, sd.T, sd.PosS, sd.PosT, 13, DefaultScoring, 7); out[i] != want {
				t.Fatalf("batch of %d, seed %d: got %+v want %+v", n, i, out[i], want)
			}
		}
	}
	// At the largest scores best climbs 1024 an antidiagonal, so the
	// routine's fronts stop every few dozen antidiagonals to be rebased.
	seeds := batchSeeds(rng, 6)
	out := make([]Result, len(seeds))
	XDropBatch(seeds, 13, maxScores, 7000, out)
	for i, sd := range seeds {
		if want := referenceXDrop(sd.S, sd.T, sd.PosS, sd.PosT, 13, maxScores, 7000); out[i] != want {
			t.Fatalf("batch at the largest scores, seed %d: got %+v want %+v", i, out[i], want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("XDropBatch with too few results did not panic")
			}
		}()
		XDropBatch(batchSeeds(rng, 2), 13, DefaultScoring, 7, make([]Result, 1))
	}()
}

// Eight goroutines align the same shared inputs at once; a workspace handed
// to two of them would corrupt a row and the race detector would see it.
func TestXDropConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	type input struct {
		s, u         []byte
		seedS, seedU int
		want         Result
	}
	inputs := make([]input, 12)
	for i := range inputs {
		s, u, seedS, seedU := seededPair(rng, 100+rng.Intn(900), 13, []float64{0.1, 1}[i%2])
		inputs[i] = input{s, u, seedS, seedU, referenceXDrop(s, u, seedS, seedU, 13, DefaultScoring, 7)}
	}
	seeds := make([]Seed, len(inputs))
	for i, in := range inputs {
		seeds[i] = Seed{S: in.s, T: in.u, PosS: in.seedS, PosT: in.seedU}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]Result, 5)
			for round := 0; round < 20; round++ {
				in := inputs[(g+round)%len(inputs)]
				if got := XDrop(in.s, in.u, in.seedS, in.seedU, 13, DefaultScoring, 7); got != in.want {
					t.Errorf("goroutine %d round %d: got %+v want %+v", g, round, got, in.want)
					return
				}
				// And as a batch of five, beside the other goroutines' calls.
				first := (g + round) % (len(inputs) - len(out) + 1)
				XDropBatch(seeds[first:first+len(out)], 13, DefaultScoring, 7, out)
				for i, got := range out {
					if want := inputs[first+i].want; got != want {
						t.Errorf("goroutine %d round %d, batch seed %d: got %+v want %+v", g, round, i, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// The Go loop is the kernel on every GOARCH but amd64 and on an amd64 without
// AVX2; here it runs every XDrop test again with the assembly routine switched
// off, so the runner that has the routine tests the portable kernel too.
func TestPortableKernel(t *testing.T) {
	if !setAssembly(false) {
		t.Skip("no assembly routine on this host: every XDrop test has already run on the Go loop")
	}
	defer setAssembly(true)
	for _, tc := range []struct {
		name string
		f    func(*testing.T)
	}{
		{"MatchesReference", TestXDropMatchesReference},
		{"WorkspaceGrows", TestXDropWorkspaceGrows},
		{"AtMostSmithWaterman", TestXDropAtMostSmithWaterman},
		{"ZeroAllocs", TestXDropZeroAllocs},
		{"BatchMatchesReference", TestXDropBatchMatchesReference},
		{"Concurrent", TestXDropConcurrent},
		{"ExtremeScoresUnboundedX", TestXDropExtremeScoresUnboundedX},
		{"IdenticalStrings", TestXDropIdenticalStrings},
		{"Panics", TestXDropPanics},
		{"MatchesNaiveExtension", TestXDropMatchesNaiveExtension},
		{"LowerBoundAndSpans", TestXDropLowerBoundAndSpans},
		{"EarlyTermination", TestXDropEarlyTermination},
		{"RecoversTrueOverlapScore", TestXDropRecoversTrueOverlapScore},
	} {
		t.Run(tc.name, tc.f)
	}
}

func TestScoringValidateMagnitude(t *testing.T) {
	const m = MaxScoreMagnitude
	if err := (Scoring{m, -m, -m}).Validate(); err != nil {
		t.Errorf("scores at the bound rejected: %v", err)
	}
	for _, sc := range []Scoring{{m + 1, -1, -1}, {1, -m - 1, -1}, {1, -1, -m - 1}} {
		if err := sc.Validate(); err == nil {
			t.Errorf("%+v validated", sc)
		}
	}
}

// clampXDrop is where int32 safety is decided: x is clamped only where it
// cannot prune, and inputs whose scores could reach the sentinel panic.
func TestClampXDrop(t *testing.T) {
	if got := clampXDrop(100, DefaultScoring, 7); got != 7 {
		t.Errorf("small x clamped to %d", got)
	}
	if got := clampXDrop(100, DefaultScoring, 1<<30); got != 200 {
		t.Errorf("x=1<<30 over 100 bases clamped to %d, want 200", got)
	}
	if got := clampXDrop(100, Scoring{3, -5, -2}, 1<<62); got != 1000 {
		t.Errorf("x=1<<62 clamped to %d, want 1000", got)
	}
	// The largest admissible total: 2·total·maxAbs + maxAbs < 2^30.
	const m = MaxScoreMagnitude
	fits := (1<<30 - m - 1) / (2 * m)
	clampXDrop(fits, Scoring{m, -m, -m}, 7)
	clampXDrop(1<<29-1, DefaultScoring, 7)
	for _, c := range []struct {
		total int
		sc    Scoring
		msg   string
	}{
		{fits + 1, Scoring{m, -m, -m}, "overflow the int32"},
		{1 << 29, DefaultScoring, "overflow the int32"},
		{10, Scoring{m + 1, -1, -1}, "exceeds magnitude"},
		{10, Scoring{1, -1 << 62, -1}, "exceeds magnitude"},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.msg) {
					t.Errorf("clampXDrop(%d, %+v): recovered %v, want panic containing %q", c.total, c.sc, r, c.msg)
				}
			}()
			clampXDrop(c.total, c.sc, 7)
		}()
	}
}

// XDrop with scores at the bound and an unbounded x still equals the
// reference: the clamp is exact, not approximate.
func TestXDropExtremeScoresUnboundedX(t *testing.T) {
	const m = MaxScoreMagnitude
	rng := rand.New(rand.NewSource(8))
	s, u, seedS, seedU := seededPair(rng, 150, 9, 0.2)
	for _, sc := range []Scoring{{m, -m, -m}, {1, -m, -1}, {m, -1, -1}} {
		for _, x := range []int{1 << 30, 1 << 62} {
			got := XDrop(s, u, seedS, seedU, 9, sc, x)
			if want := referenceXDrop(s, u, seedS, seedU, 9, sc, x); got != want {
				t.Errorf("sc=%+v x=%d: got %+v want %+v", sc, x, got, want)
			}
		}
	}
}

// benchXDrop times XDrop over one pair and reports the kernel's rate in
// the unit the bench harness's align.xdrop_mcells_per_s rung uses.
func benchXDrop(b *testing.B, s, u []byte, seedS, seedU, k, x int) {
	b.ReportAllocs()
	b.ResetTimer()
	var cells int64
	for i := 0; i < b.N; i++ {
		cells += XDrop(s, u, seedS, seedU, k, DefaultScoring, x).Cells
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
	b.ReportMetric(float64(cells)/1e6/b.Elapsed().Seconds(), "Mcells/s")
}

// similarPair is two reads of one 10 kb template at 7.5% error each,
// seeded at their first shared 17-mer.
func similarPair(b *testing.B, length int, rate float64) (s, u []byte, seedS, seedU int) {
	rng := rand.New(rand.NewSource(1))
	template := randomSeq(rng, length)
	s, u = mutate(rng, template, rate), mutate(rng, template, rate)
	for i := 0; i+17 <= len(s); i += 13 {
		if j := bytes.Index(u, s[i:i+17]); j >= 0 {
			return s, u, i, j
		}
	}
	b.Skip("no shared seed")
	return
}

func BenchmarkXDropSimilar(b *testing.B) {
	s, u, seedS, seedU := similarPair(b, 10000, 0.075)
	benchXDrop(b, s, u, seedS, seedU, 17, 30)
}

// x=7 on 6 kb reads at 7.5% error each, which is 15% pairwise: half the
// divergence of the pipeline's reads (BenchmarkXDropPipelineX7). The window is
// 8 cells or fewer on nine antidiagonals in ten, so on an AVX2 host this times
// the assembly routine's band, the two flanks' fronts in registers (100.0% of
// some 12 000 antidiagonals, TestSteadyPathsOnTheRungs), and the moves of its
// anchor; the Go loop runs the last few. Anywhere else it times the Go loop.
func BenchmarkXDropSimilarX7(b *testing.B) {
	s, u, seedS, seedU := similarPair(b, 6000, 0.075)
	benchXDrop(b, s, u, seedS, seedU, 17, 7)
}

// pipelinePair is two reads of one 6 kb template as cmd/seqgen makes them:
// 15% error each in its default 12/53/35 substitution/insertion/deletion mix,
// about 28% pairwise divergence, seeded at their first shared 17-mer.
// Three antidiagonals in ten are 9 to 16 cells wide at x=7.
func pipelinePair(tb testing.TB) (s, u []byte, seedS, seedU int) {
	ds, err := seqgen.Generate(seqgen.Config{GenomeLen: 6000, Seed: 1, Coverage: 2,
		MeanReadLen: 6000, MinReadLen: 6000, ErrorRate: 0.15})
	if err != nil {
		tb.Fatal(err)
	}
	s, u = ds.Reads[0].Seq, ds.Reads[1].Seq
	for i := 0; i+17 <= len(s); i += 13 {
		if j := bytes.Index(u, s[i:i+17]); j >= 0 {
			return s, u, i, j
		}
	}
	tb.Skip("no shared seed")
	return
}

// The pipeline's own shape: x=7 on the pair above, as the longread_align
// workload aligns. On an AVX2 host the band holds the window on 99.8% of its
// antidiagonals; a window of 16 cells or one the d-m bound cuts goes to the
// memory loop.
func BenchmarkXDropPipelineX7(b *testing.B) {
	s, u, seedS, seedU := pipelinePair(b)
	benchXDrop(b, s, u, seedS, seedU, 17, 7)
}

// pipelineSeeds is the seeds of a pipeline-shaped read set: 6 kb reads at
// 8x over a 24 kb genome, as cmd/seqgen makes them at 15% error, and for each
// pair of distinct reads sharing a 17-mer the one at the least position in
// the first read, at its first position in the second.
var pipelineSeeds = sync.OnceValues(func() ([]Seed, error) {
	ds, err := seqgen.Generate(seqgen.Config{GenomeLen: 24000, Seed: 1, Coverage: 8,
		MeanReadLen: 6000, MinReadLen: 6000, ErrorRate: 0.15})
	if err != nil {
		return nil, err
	}
	const k = 17
	first := make([]map[string]int, len(ds.Reads))
	for j, r := range ds.Reads {
		first[j] = make(map[string]int)
		for p := len(r.Seq) - k; p >= 0; p-- {
			first[j][string(r.Seq[p:p+k])] = p
		}
	}
	var seeds []Seed
	for i, ri := range ds.Reads {
		for j := i + 1; j < len(ds.Reads); j++ {
			for p := 0; p+k <= len(ri.Seq); p++ {
				if q, ok := first[j][string(ri.Seq[p:p+k])]; ok {
					seeds = append(seeds, Seed{S: ri.Seq, T: ds.Reads[j].Seq, PosS: p, PosT: q})
					break
				}
			}
		}
	}
	return seeds, nil
})

// The pipeline's read set as the alignment stage hands it over: every
// seed's two extensions queued at once (batch), against the same list as
// one XDrop call a seed (calls). On an AVX2 host the batch keeps both of
// the routine's fronts busy across seeds; a call's two flanks are its two
// fronts until the shorter ends, and then the other runs alone.
func BenchmarkXDropBatchPipelineX7(b *testing.B) {
	seeds, err := pipelineSeeds()
	if err != nil {
		b.Fatal(err)
	}
	out := make([]Result, len(seeds))
	for _, run := range []struct {
		name string
		f    func()
	}{
		{"batch", func() { XDropBatch(seeds, 17, DefaultScoring, 7, out) }},
		{"calls", func() {
			for i, sd := range seeds {
				out[i] = XDrop(sd.S, sd.T, sd.PosS, sd.PosT, 17, DefaultScoring, 7)
			}
		}},
	} {
		b.Run(run.name, func(b *testing.B) {
			b.ReportAllocs()
			var cells int64
			for i := 0; i < b.N; i++ {
				run.f()
				for _, r := range out {
					cells += r.Cells
				}
			}
			b.ReportMetric(float64(len(seeds)), "seeds/op")
			b.ReportMetric(float64(cells)/1e6/b.Elapsed().Seconds(), "Mcells/s")
		})
	}
}

func BenchmarkXDropDivergent(b *testing.B) {
	s, u, seedS, seedU := seededPair(rand.New(rand.NewSource(2)), 5000, 17, 1)
	benchXDrop(b, s, u, seedS, seedU, 17, 30)
}

func BenchmarkXDropDivergentX7(b *testing.B) {
	s, u, seedS, seedU := seededPair(rand.New(rand.NewSource(2)), 6000, 17, 1)
	benchXDrop(b, s, u, seedS, seedU, 17, 7)
}

// Many short extensions: a seed between 6 kb flanks with no base in common
// dies within 100 cells a side, so what is timed is the per-call cost
// (workspace checkout, row set-up, the hand-over to the routine), which
// must not grow with the flank.
func BenchmarkXDropShortExtensions(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	flank := func(alphabet string) []byte {
		out := make([]byte, 6000)
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return out
	}
	core := randomSeq(rng, 17)
	s := concat(flank("AC"), core, flank("AC"))
	u := concat(flank("GT"), core, flank("GT"))
	if r := XDrop(s, u, 6000, 6000, 17, DefaultScoring, 7); r.Cells > 200 {
		b.Fatalf("short-extension pair computed %d cells", r.Cells)
	}
	benchXDrop(b, s, u, 6000, 6000, 17, 7)
}
