package bella

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProbKmerCorrect(t *testing.T) {
	if got := ProbKmerCorrect(0, 17); got != 1 {
		t.Errorf("zero error rate: %v", got)
	}
	got := ProbKmerCorrect(0.15, 17)
	if math.Abs(got-math.Pow(0.85, 17)) > 1e-12 {
		t.Errorf("ProbKmerCorrect = %v", got)
	}
}

func TestProbSharedCorrectKmer(t *testing.T) {
	// Below k bases of overlap nothing can be shared.
	if ProbSharedCorrectKmer(0.1, 17, 16) != 0 {
		t.Error("overlap < k should give 0")
	}
	// Perfect reads sharing >= k bases always share a correct k-mer.
	if got := ProbSharedCorrectKmer(0, 17, 17); got != 1 {
		t.Errorf("e=0: %v", got)
	}
	// Monotone increasing in overlap, decreasing in k.
	p1 := ProbSharedCorrectKmer(0.15, 17, 1000)
	p2 := ProbSharedCorrectKmer(0.15, 17, 3000)
	if p2 <= p1 {
		t.Error("probability not monotone in overlap")
	}
	p3 := ProbSharedCorrectKmer(0.15, 25, 1000)
	if p3 >= p1 {
		t.Error("probability not decreasing in k")
	}
}

// Property: probabilities stay in [0,1].
func TestProbSharedBounds(t *testing.T) {
	f := func(eRaw, kRaw, ovRaw uint16) bool {
		e := float64(eRaw%90) / 100
		k := int(kRaw)%28 + 5
		ov := int(ovRaw) % 20000
		p := ProbSharedCorrectKmer(e, k, ov)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOptimalKPaperRegime(t *testing.T) {
	// PacBio-like: e=15%, min overlap 2 kb, E. coli genome. The paper says
	// 17-mers are typical; accept a small neighborhood.
	k, err := OptimalK(0.15, 2000, 0.9, 4.64e6)
	if err != nil {
		t.Fatal(err)
	}
	if k < 14 || k > 20 {
		t.Errorf("OptimalK = %d, want ~17", k)
	}
	// Short-read-like: e=1% admits far longer k (paper: 51 for short reads,
	// capped at 32 here by the packed representation).
	k2, err := OptimalK(0.01, 2000, 0.9, 4.64e6)
	if err != nil {
		t.Fatal(err)
	}
	if k2 != 32 {
		t.Errorf("low-error OptimalK = %d, want 32 (cap)", k2)
	}
}

func TestOptimalKErrors(t *testing.T) {
	if _, err := OptimalK(-0.1, 2000, 0.9, 1e6); err == nil {
		t.Error("negative error rate accepted")
	}
	if _, err := OptimalK(0.15, 2000, 1.5, 1e6); err == nil {
		t.Error("bad target probability accepted")
	}
	// Hopeless regime: extreme error rate, tiny overlap.
	if _, err := OptimalK(0.8, 100, 0.99, 1e9); err == nil {
		t.Error("unsatisfiable regime should error")
	}
}

func TestMinKForUniqueness(t *testing.T) {
	// 4^11 = 4.2M > E. coli's 4.64M needs k=12 with margin 1.
	if got := MinKForUniqueness(4.64e6, 1); got != 12 {
		t.Errorf("MinKForUniqueness = %d, want 12", got)
	}
	if got := MinKForUniqueness(0, 1); got < 0 {
		t.Errorf("degenerate genome: %d", got)
	}
}

func TestPoissonCDF(t *testing.T) {
	if PoissonCDF(5, -1) != 0 {
		t.Error("CDF(-1) != 0")
	}
	if PoissonCDF(0, 0) != 1 {
		t.Error("lambda=0 CDF != 1")
	}
	// P(X<=lambda) is near 0.5 + a bit for Poisson.
	got := PoissonCDF(20, 20)
	if got < 0.5 || got > 0.60 {
		t.Errorf("PoissonCDF(20,20) = %v", got)
	}
	// CDF approaches 1.
	if PoissonCDF(20, 60) < 0.999999 {
		t.Error("tail not converging")
	}
	// Monotone in m.
	prev := 0.0
	for m := 0; m < 40; m++ {
		cur := PoissonCDF(10, m)
		if cur < prev {
			t.Fatalf("CDF not monotone at m=%d", m)
		}
		prev = cur
	}
}

func TestReliableUpperBound(t *testing.T) {
	// λ = 30 * 0.85^17 ≈ 1.9; with allowance 2 -> λ' ≈ 3.8; m lands well
	// below the coverage depth but above the mean.
	m := ReliableUpperBound(0.15, 17, 30, 2, 1e-4)
	if m < 5 || m > 25 {
		t.Errorf("m = %d, want O(10)", m)
	}
	// Higher coverage must raise the cutoff.
	m100 := ReliableUpperBound(0.15, 17, 100, 2, 1e-4)
	if m100 <= m {
		t.Errorf("m(100x)=%d not above m(30x)=%d", m100, m)
	}
	// Tighter epsilon raises the cutoff.
	if ReliableUpperBound(0.15, 17, 30, 2, 1e-8) < m {
		t.Error("tighter epsilon lowered m")
	}
}

// The startup derivation: k from OptimalK, then m from ReliableUpperBound
// at that k, with the arguments pipeline.Config uses.
func TestDerive(t *testing.T) {
	k, err := OptimalK(0.15, 2000, 0.9, 4.64e6)
	if err != nil {
		t.Fatal(err)
	}
	m := ReliableUpperBound(0.15, k, 30, 2, 1e-4)
	if k < 14 || k > 20 || m < 5 {
		t.Errorf("k=%d m=%d", k, m)
	}
	if _, err := OptimalK(0.9, 100, 0.999, 1e6); err == nil {
		t.Error("unsatisfiable derivation should error")
	}
}

func TestReliableUpperBoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("epsilon=0 did not panic")
		}
	}()
	ReliableUpperBound(0.15, 17, 30, 2, 0)
}

func TestEstimateSingletonFraction(t *testing.T) {
	// Long-read regime: the paper reports up to 98% singletons vs 60-85%
	// for short reads.
	long := EstimateSingletonFraction(0.15, 17, 30)
	if long < 0.88 || long > 1.0 {
		t.Errorf("long-read singleton fraction %v, want >= 0.88", long)
	}
	short := EstimateSingletonFraction(0.005, 17, 30)
	if short > long {
		t.Error("short reads should have fewer singletons")
	}
}
