// Package bella implements the statistical parameter theory diBELLA
// inherits from BELLA (Guidi et al., 2018): choosing the k-mer length k
// from the data's error rate so that overlapping reads share at least one
// correct k-mer with high probability, and choosing the high-frequency
// cutoff m above which k-mers are considered repeat-induced and discarded.
//
// Model assumptions (as in BELLA): sequencing errors are independent and
// uniform with per-base probability e; a k-mer instance is "correct" when
// all k bases are error-free, which happens with probability (1-e)^k; two
// reads overlapping in a region of length L share L-k+1 k-mer positions,
// and a shared position yields a detectable seed when both copies are
// correct, probability (1-e)^{2k}.
package bella

import (
	"fmt"
	"math"
)

// ProbKmerCorrect returns the probability that a single k-mer instance is
// error-free under per-base error rate e.
func ProbKmerCorrect(e float64, k int) float64 {
	return math.Pow(1-e, float64(k))
}

// ProbSharedCorrectKmer returns the probability that two reads overlapping
// over `overlap` bases share at least one k-mer that is correct in both:
// 1 - (1 - (1-e)^{2k})^{overlap-k+1}.
func ProbSharedCorrectKmer(e float64, k, overlap int) float64 {
	if overlap < k {
		return 0
	}
	pBoth := math.Pow(1-e, 2*float64(k))
	n := float64(overlap - k + 1)
	// log1p formulation keeps precision when pBoth is tiny.
	return -math.Expm1(n * math.Log1p(-pBoth))
}

// MinKForUniqueness returns the smallest k such that a random k-mer is
// expected to occur less than once by chance in a genome of the given
// size: 4^k > genomeSize * margin.
func MinKForUniqueness(genomeSize, margin float64) int {
	if genomeSize < 1 {
		genomeSize = 1
	}
	return int(math.Ceil(math.Log(genomeSize*margin) / math.Log(4)))
}

// OptimalK returns the largest k in [MinKForUniqueness, 32] for which the
// probability of a shared correct k-mer over minOverlap bases still meets
// targetProb, mirroring BELLA's trade-off: k short enough to survive the
// error rate, long enough to avoid repeated genomic k-mers. For PacBio-like
// inputs (e≈0.15, overlap≥2000) this lands at the paper's typical 17.
func OptimalK(e float64, minOverlap int, targetProb, genomeSize float64) (int, error) {
	if e < 0 || e >= 1 {
		return 0, fmt.Errorf("bella: error rate %v out of [0,1)", e)
	}
	if targetProb <= 0 || targetProb >= 1 {
		return 0, fmt.Errorf("bella: target probability %v out of (0,1)", targetProb)
	}
	lo := MinKForUniqueness(genomeSize, 4)
	if lo < 5 {
		lo = 5
	}
	best := 0
	for k := lo; k <= 32; k++ {
		if ProbSharedCorrectKmer(e, k, minOverlap) >= targetProb {
			best = k
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("bella: no k in [%d,32] reaches probability %v at error rate %v",
			lo, targetProb, e)
	}
	return best, nil
}

// ExpectedCorrectCoverage returns λ, the expected number of error-free
// instances of a unique genomic k-mer in a data set with per-base coverage
// depth d: λ = d · (1-e)^k.
func ExpectedCorrectCoverage(e float64, k int, d float64) float64 {
	return d * ProbKmerCorrect(e, k)
}

// PoissonCDF returns P(X <= m) for X ~ Poisson(lambda), evaluated by the
// stable iterative sum.
func PoissonCDF(lambda float64, m int) float64 {
	if m < 0 {
		return 0
	}
	if lambda <= 0 {
		return 1
	}
	term := math.Exp(-lambda)
	sum := term
	for i := 1; i <= m; i++ {
		term *= lambda / float64(i)
		sum += term
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// ReliableUpperBound computes the high-frequency cutoff m: the smallest
// count such that a k-mer from a (possibly two-copy) genomic locus exceeds
// it with probability below epsilon, modeling observed multiplicity as
// Poisson with mean repeatAllowance·λ. k-mers seen more often than m are
// presumed to come from high-copy repeats and are discarded (Section 2 of
// the paper).
func ReliableUpperBound(e float64, k int, d, repeatAllowance, epsilon float64) int {
	if epsilon <= 0 || epsilon >= 1 {
		panic(fmt.Sprintf("bella: epsilon %v out of (0,1)", epsilon))
	}
	lambda := repeatAllowance * ExpectedCorrectCoverage(e, k, d)
	m := int(math.Ceil(lambda))
	if m < 2 {
		m = 2
	}
	for PoissonCDF(lambda, m) < 1-epsilon {
		m++
		if m > 1<<20 {
			panic("bella: reliable upper bound failed to converge")
		}
	}
	return m
}

// EstimateSingletonFraction predicts the fraction of k-mer *instances*
// expected to be singletons. An instance is erroneous with probability
// 1-(1-e)^k; erroneous k-mers are effectively unique (the 4^k space dwarfs
// the data), so they are almost all singletons. Correct instances of a
// unique locus are singletons only when that locus was sequenced
// error-free exactly once: P(X=1|X≥1)·weight under X ~ Poisson(λ).
//
// For PacBio-like parameters (e=0.15, k=17, d=30) this predicts ≳90%,
// matching the paper's "up to 98% of k-mers from long reads are
// singletons".
func EstimateSingletonFraction(e float64, k int, d float64) float64 {
	pErr := 1 - ProbKmerCorrect(e, k)
	lambda := ExpectedCorrectCoverage(e, k, d)
	// Fraction of correct instances that are lone sightings of their locus:
	// a locus yields X ~ Poisson(λ) correct instances; instances living in
	// X=1 loci are singletons among the correct population.
	pLoneInstance := math.Exp(-lambda) * lambda // P(X=1)
	correctInstanceMass := lambda               // E[X]
	fracCorrectSingleton := 0.0
	if correctInstanceMass > 0 {
		fracCorrectSingleton = pLoneInstance / correctInstanceMass // = e^{-λ}
	}
	return pErr + (1-pErr)*fracCorrectSingleton
}
