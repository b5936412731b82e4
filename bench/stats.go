package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs need not be sorted; empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// summary is the quantile sheet of one sampled quantity, with the raw
// samples kept so the output file can show what is behind each number.
type summary struct {
	N       int       `json:"n"`
	Min     float64   `json:"min"`
	P10     float64   `json:"p10"`
	P25     float64   `json:"p25"`
	Median  float64   `json:"median"`
	P75     float64   `json:"p75"`
	P90     float64   `json:"p90"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

func summarize(xs []float64) summary {
	return summary{
		N:   len(xs),
		Min: quantile(xs, 0), P10: quantile(xs, 0.1), P25: quantile(xs, 0.25), Median: quantile(xs, 0.5),
		P75: quantile(xs, 0.75), P90: quantile(xs, 0.9), Max: quantile(xs, 1),
		Samples: xs,
	}
}

// A round is quiet when the hypervisor took no more than quietShare of its
// wall time from the guest's vCPUs; settled wants minQuiet such rounds.
const (
	quietShare = 0.10
	minQuiet   = 4
)

// lowQ is the quantile over a run's rounds that names a timed metric. A
// shared host's noise is one-sided (neighbours only slow a round down) and
// comes in phases of tens of seconds in which every round is 10-40% slower
// with nothing in /proc to show for it. The lower decile needs only a sixth
// of the run undisturbed where the lower quartile needs a third: under a
// bursty neighbour, ten 30 s runs spread by 20% (lower decile) against 50%
// (lower quartile) on longread_align, and on a quiet host the two are
// equally steady (README, "Host noise").
const lowQ = 0.10

// undisturbed removes from one round's wall and CPU seconds the time the
// hypervisor gave to other guests while this one had work: stolen seconds,
// summed over the guest's CPUs (/proc/stat's steal column). Measured on the
// sizing host (README): a run's ranks wait for each other, so time stolen
// from either vCPU delays the run by about as much — wall less stolen time
// stays flat while wall doubles — and the kernel charges a running process
// for the stolen share of its vCPU's time. Wall cannot drop below the
// corrected CPU time spread over every CPU, which keeps a round in which
// both vCPUs were taken at once (stolen > wall) from going negative.
func undisturbed(wall, cpu, stolen, ncpu float64) (w, c float64) {
	c = cpu * (1 - min(1, stolen/(ncpu*wall)))
	return max(wall-stolen, c/ncpu), c
}

// settled is the q-quantile of xs over the quiet rounds, and when fewer
// than minQuiet rounds were quiet — the hypervisor was busy elsewhere for
// the whole run — the median of all: the correction errs in both
// directions, so there the noise is two-sided.
func settled(xs []float64, quiet []bool, q float64) float64 {
	var calm []float64
	for i, x := range xs {
		if quiet[i] {
			calm = append(calm, x)
		}
	}
	if len(calm) >= minQuiet {
		return quantile(calm, q)
	}
	return quantile(xs, 0.5)
}

// roundOrder is the order workloads run in during one round: round-robin,
// rotated by the round number so that no workload always runs right after
// the same neighbour (a slow host phase then spreads over all of them).
func roundOrder(round, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = (round + i) % n
	}
	return order
}

// worseBy returns how much worse b is than a as a share of a, signed so
// that positive means worse: for a lower-is-better metric (b-a)/a, for a
// higher-is-better one (a-b)/a.
func worseBy(a, b float64, higherBetter bool) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if higherBetter {
		return -d
	}
	return d
}
