package evalx

import (
	"fmt"
	"sort"

	"dibella/internal/seqgen"
)

// Pair is an unordered read pair with A < B.
type Pair struct {
	A, B uint32
}

// Canon orders a pair.
func Canon(a, b uint32) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// Result scores a prediction set against ground truth.
type Result struct {
	MinOverlap     int
	TruePairs      int // ground-truth pairs (overlap >= MinOverlap)
	Predicted      int // distinct predicted pairs
	TruePositives  int
	FalsePositives int // predicted pairs with *no* genomic overlap at all
	// NearMisses are predictions whose reads do overlap, but by less than
	// MinOverlap — counted separately because they are not errors in the
	// usual sense (the detector found a real, short overlap).
	NearMisses int
}

// Recall returns TP / truth.
func (r Result) Recall() float64 {
	if r.TruePairs == 0 {
		return 0
	}
	return float64(r.TruePositives) / float64(r.TruePairs)
}

// Precision returns (TP + near misses) / predicted: the fraction of
// predictions corresponding to genuine genomic overlap of any length.
func (r Result) Precision() float64 {
	if r.Predicted == 0 {
		return 0
	}
	return float64(r.TruePositives+r.NearMisses) / float64(r.Predicted)
}

// F1 returns the harmonic mean of Recall and Precision.
func (r Result) F1() float64 {
	p, c := r.Precision(), r.Recall()
	if p+c == 0 {
		return 0
	}
	return 2 * p * c / (p + c)
}

// String summarizes the evaluation.
func (r Result) String() string {
	return fmt.Sprintf(
		"truth=%d predicted=%d TP=%d FP=%d near=%d recall=%.3f precision=%.3f F1=%.3f",
		r.TruePairs, r.Predicted, r.TruePositives, r.FalsePositives, r.NearMisses,
		r.Recall(), r.Precision(), r.F1())
}

// Evaluate scores predicted pairs against the data set's origins.
func Evaluate(ds *seqgen.Dataset, predicted []Pair, minOverlap int) Result {
	res := Result{MinOverlap: minOverlap}
	truth := make(map[Pair]bool)
	for _, p := range ds.TrueOverlaps(minOverlap) {
		truth[Pair{A: p[0], B: p[1]}] = true
	}
	res.TruePairs = len(truth)

	seen := make(map[Pair]bool)
	for _, p := range predicted {
		if p.A > p.B {
			p = Pair{A: p.B, B: p.A}
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		res.Predicted++
		switch {
		case truth[p]:
			res.TruePositives++
		case int(p.A) < len(ds.Origins) && int(p.B) < len(ds.Origins) &&
			ds.Origins[p.A].Overlap(ds.Origins[p.B]) > 0:
			res.NearMisses++
		default:
			res.FalsePositives++
		}
	}
	return res
}

// RecallByOverlapLength bins ground-truth pairs by overlap length and
// reports recall per bin — BELLA's analysis of detectability versus
// overlap length (longer overlaps must be recalled at higher rates, since
// P[shared correct k-mer] grows with length).
func RecallByOverlapLength(ds *seqgen.Dataset, predicted []Pair, bins []int) []BinRecall {
	if len(bins) == 0 {
		return nil
	}
	sorted := append([]int(nil), bins...)
	sort.Ints(sorted)

	found := make(map[Pair]bool, len(predicted))
	for _, p := range predicted {
		if p.A > p.B {
			p = Pair{A: p.B, B: p.A}
		}
		found[p] = true
	}
	out := make([]BinRecall, len(sorted))
	for i, lo := range sorted {
		hi := int(^uint(0) >> 1)
		if i+1 < len(sorted) {
			hi = sorted[i+1]
		}
		out[i] = BinRecall{MinLen: lo, MaxLen: hi}
	}
	for _, pr := range ds.TrueOverlaps(sorted[0]) {
		ov := ds.Origins[pr[0]].Overlap(ds.Origins[pr[1]])
		idx := sort.SearchInts(sorted, ov+1) - 1
		if idx < 0 {
			continue
		}
		out[idx].Truth++
		if found[Pair{A: pr[0], B: pr[1]}] {
			out[idx].Found++
		}
	}
	return out
}

// BinRecall is recall within one overlap-length bin [MinLen, MaxLen).
type BinRecall struct {
	MinLen, MaxLen int
	Truth, Found   int
}

// Recall returns the bin's recall (0 when empty).
func (b BinRecall) Recall() float64 {
	if b.Truth == 0 {
		return 0
	}
	return float64(b.Found) / float64(b.Truth)
}
