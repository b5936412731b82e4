package kmer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMinimizers selects per-window minima by brute force over the
// reference scanner's k-mers.
func naiveMinimizers(seq []byte, k, w int, readID uint32) []Extracted {
	kms := referenceExtract(seq, k, readID)
	if len(kms) == 0 {
		return nil
	}
	if w <= 1 {
		return kms
	}
	chosen := make(map[int]bool)
	var order []int
	pick := func(lo, hi int) {
		best := lo
		bestH := kms[lo].Kmer.Hash()
		for i := lo + 1; i < hi; i++ {
			if h := kms[i].Kmer.Hash(); h < bestH {
				best, bestH = i, h
			}
		}
		if !chosen[best] {
			chosen[best] = true
			order = append(order, best)
		}
	}
	if len(kms) < w {
		pick(0, len(kms))
	} else {
		for lo := 0; lo+w <= len(kms); lo++ {
			pick(lo, lo+w)
		}
	}
	out := make([]Extracted, len(order))
	for i, idx := range order {
		out[i] = kms[idx]
	}
	return out
}

// Property: the deque implementation matches brute force exactly.
func TestMinimizersMatchNaive(t *testing.T) {
	f := func(seed int64, nRaw, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 120
		w := int(wRaw)%12 + 1
		seq := randomSeq(rng, n)
		got := Minimizers(seq, 7, w, 3)
		want := naiveMinimizers(seq, 7, w, 3)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestMinimizersW1IsAllKmers: w=1 (and w=0) degenerate to exact seeding —
// every k-mer occurrence, element for element, for both the materializing
// and counting implementations.
func TestMinimizersW1IsAllKmers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{0, 1} {
		seq := randomSeq(rng, 50)
		all := ExtractAll(seq, 9, 7)
		got := Minimizers(seq, 9, w, 7)
		if len(got) != len(all) {
			t.Fatalf("w=%d selected %d of %d", w, len(got), len(all))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("w=%d minimizer %d is %+v, want %+v", w, i, got[i], all[i])
			}
		}
		if n := MinimizerCount(seq, 9, w); n != len(all) {
			t.Errorf("w=%d MinimizerCount=%d, want %d", w, n, len(all))
		}
	}
}

// TestMinimizersShortRead covers sequences shorter than k+w-1 (fewer than
// w k-mers): one global minimizer, agreeing with MinimizerCount; below k
// there is nothing to emit at all.
func TestMinimizersShortRead(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const k, w = 9, 10
	// 4 k-mers at k=9: shorter than the k+w-1 = 18 bases a full window needs.
	seq := randomSeq(rng, 12)
	got := Minimizers(seq, k, w, 0)
	if len(got) != 1 {
		t.Fatalf("short read emitted %d minimizers", len(got))
	}
	if n := MinimizerCount(seq, k, w); n != 1 {
		t.Errorf("short read MinimizerCount=%d, want 1", n)
	}
	// Exactly one k-mer: it is its own global minimizer.
	one := randomSeq(rng, k)
	if got := Minimizers(one, k, w, 0); len(got) != 1 || got[0].Occ.Pos != 0 {
		t.Errorf("k-length read: %+v, want its single k-mer", got)
	}
	// Shorter than k: no k-mers, no minimizers.
	for _, n := range []int{0, 1, k - 1} {
		sub := randomSeq(rng, n)
		if Minimizers(sub, k, w, 0) != nil {
			t.Errorf("%d-base read should emit nothing", n)
		}
		if c := MinimizerCount(sub, k, w); c != 0 {
			t.Errorf("%d-base read MinimizerCount=%d, want 0", n, c)
		}
	}
	// Exactly w k-mers: the boundary where windowing starts.
	exact := randomSeq(rng, k+w-1)
	if want := len(Minimizers(exact, k, w, 0)); MinimizerCount(exact, k, w) != want {
		t.Errorf("boundary read: count disagrees with materialization")
	}
}

func TestMinimizerDensity(t *testing.T) {
	// Empirical density on random sequence should track 2/(w+1).
	rng := rand.New(rand.NewSource(3))
	seq := randomSeq(rng, 20000)
	const k = 15
	for _, w := range []int{5, 10, 19} {
		got := float64(len(Minimizers(seq, k, w, 0))) / float64(Count(len(seq), k))
		want := MinimizerDensity(w)
		if math.Abs(got-want)/want > 0.2 {
			t.Errorf("w=%d: density %.4f, want ~%.4f", w, got, want)
		}
	}
	if MinimizerDensity(1) != 1 || MinimizerDensity(0) != 1 {
		t.Error("degenerate density wrong")
	}
}

// The property overlap detection relies on: reads sharing a long exact
// region share at least one minimizer, at identical offsets into the
// shared region.
func TestSharedRegionSharesMinimizer(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const k, w = 15, 10
	for trial := 0; trial < 30; trial++ {
		shared := randomSeq(rng, w+k-1+rng.Intn(200)) // >= w+k-1 guarantees sharing
		a := append(randomSeq(rng, rng.Intn(100)), shared...)
		b := append(randomSeq(rng, rng.Intn(100)), shared...)
		setA := make(map[Kmer]bool)
		for _, ex := range Minimizers(a, k, w, 0) {
			setA[ex.Kmer] = true
		}
		found := false
		for _, ex := range Minimizers(b, k, w, 1) {
			if setA[ex.Kmer] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("trial %d: no shared minimizer over a %d-base shared region",
				trial, len(shared))
		}
	}
}

func BenchmarkMinimizers(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	seq := randomSeq(rng, 10000)
	b.SetBytes(int64(len(seq)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Minimizers(seq, 17, 10, 0)
	}
}

// TestMinimizerCountMatchesMinimizers pins the streaming counter to the
// materializing implementation across lengths, windows, and ambiguous
// bases (short reads, empty reads, and runs split by 'N' included).
func TestMinimizerCountMatchesMinimizers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const alphabet = "ACGTACGTACGTN" // sparse Ns
	const k = 7
	for trial := 0; trial < 300; trial++ {
		seq := make([]byte, rng.Intn(220))
		for i := range seq {
			seq[i] = alphabet[rng.Intn(len(alphabet))]
		}
		for _, w := range []int{1, 2, 3, 5, 9, 16} {
			want := len(Minimizers(seq, k, w, 0))
			if got := MinimizerCount(seq, k, w); got != want {
				t.Fatalf("len=%d w=%d: MinimizerCount=%d, len(Minimizers)=%d (seq %q)",
					len(seq), w, got, want, seq)
			}
		}
	}
}
