package main

import (
	"math"
	"sort"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its argument in place")
	}
	if got := quantile([]float64{7}, 0.25); got != 7 {
		t.Errorf("one sample: p25 = %v, want 7", got)
	}
	if got := quantile([]float64{1, 2}, 0.25); got != 1.25 {
		t.Errorf("two samples: p25 = %v, want 1.25 (interpolated)", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("no samples must give NaN, so a missing measurement cannot pass for a number")
	}
}

func TestSummarizeKeepsCountAndSamples(t *testing.T) {
	s := summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Median != 2 || s.Max != 3 || len(s.Samples) != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.Min > s.P10 || s.P10 > s.P25 || s.P25 > s.Median || s.Median > s.P75 || s.P75 > s.P90 || s.P90 > s.Max {
		t.Errorf("quantiles out of order: %+v", s)
	}
}

func TestRoundOrderIsARotatingPermutation(t *testing.T) {
	const n = 4
	followers := make(map[[2]int]int) // (workload, the one run right before it) -> rounds
	for round := 0; round < 2*n; round++ {
		order := roundOrder(round, n)
		sorted := append([]int(nil), order...)
		sort.Ints(sorted)
		for i, v := range sorted {
			if v != i {
				t.Fatalf("round %d: %v is not a permutation of 0..%d", round, order, n-1)
			}
		}
		if order[0] != round%n {
			t.Errorf("round %d starts with %d, want %d", round, order[0], round%n)
		}
		for i := 1; i < n; i++ {
			followers[[2]int{order[i], order[i-1]}]++
		}
	}
	// Every workload leads a round equally often: none always inherits
	// the cache and host state its neighbour left.
	for w := 0; w < n; w++ {
		leads := 0
		for round := 0; round < 2*n; round++ {
			if roundOrder(round, n)[0] == w {
				leads++
			}
		}
		if leads != 2 {
			t.Errorf("workload %d leads %d of %d rounds, want 2", w, leads, 2*n)
		}
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(2, 2.2, false); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 2 -> 2.2: %v, want +0.1", got)
	}
	if got := worseBy(2, 2.2, true); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-is-better 2 -> 2.2: %v, want -0.1", got)
	}
	if !math.IsInf(worseBy(0, 1, false), 1) {
		t.Error("a zero base must never compare as within bound")
	}
}

func TestUndisturbed(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if w, c := undisturbed(2, 3, 0, 2); w != 2 || c != 3 {
		t.Errorf("nothing stolen: %v %v, want the samples back", w, c)
	}
	// 0.5 s stolen of a 1.5 s round on 2 CPUs: a sixth of the vCPU time.
	if w, c := undisturbed(1.5, 1.2, 0.5, 2); !near(w, 1) || !near(c, 1) {
		t.Errorf("wall 1.5 cpu 1.2 stolen 0.5: %v %v, want 1 1", w, c)
	}
	// Both vCPUs taken at once: more stolen than passed. Wall stays above
	// the corrected CPU time spread over both CPUs.
	if w, c := undisturbed(2, 1, 3, 2); !near(c, 0.25) || !near(w, 0.125) {
		t.Errorf("wall 2 cpu 1 stolen 3: %v %v, want 0.125 0.25", w, c)
	}
}

func TestSettled(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 50, 60}
	quiet := []bool{true, true, true, true, false, false}
	if got := settled(xs, quiet, 0.25); got != 1.75 {
		t.Errorf("four quiet rounds: %v, want their lower quartile 1.75", got)
	}
	quiet[0] = false
	if got := settled(xs, quiet, 0.25); got != 3.5 {
		t.Errorf("three quiet rounds: %v, want the median of all, 3.5", got)
	}
}
