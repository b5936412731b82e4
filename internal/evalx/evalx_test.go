package evalx

import (
	"strings"
	"testing"

	"dibella/internal/seqgen"
)

// synthetic builds a dataset with hand-placed origins so truth is obvious.
func synthetic() *seqgen.Dataset {
	return &seqgen.Dataset{
		Origins: []seqgen.Origin{
			{Start: 0, End: 1000},    // 0
			{Start: 500, End: 1500},  // 1: overlaps 0 by 500
			{Start: 900, End: 2000},  // 2: overlaps 0 by 100, 1 by 600
			{Start: 5000, End: 6000}, // 3: disjoint
		},
	}
}

func TestCanon(t *testing.T) {
	if Canon(5, 2) != (Pair{2, 5}) || Canon(2, 5) != (Pair{2, 5}) {
		t.Error("Canon failed")
	}
}

func TestEvaluateCounts(t *testing.T) {
	ds := synthetic()
	// Truth at minOverlap=400: (0,1) 500, (1,2) 600. Pair (0,2) overlaps
	// only 100 -> near miss. (0,3) disjoint -> FP.
	pred := []Pair{{0, 1}, {2, 0}, {0, 3}, {1, 0}} // includes dup + unordered
	res := Evaluate(ds, pred, 400)
	if res.TruePairs != 2 {
		t.Errorf("TruePairs = %d", res.TruePairs)
	}
	if res.Predicted != 3 { // dup collapsed
		t.Errorf("Predicted = %d", res.Predicted)
	}
	if res.TruePositives != 1 || res.NearMisses != 1 || res.FalsePositives != 1 {
		t.Errorf("TP/near/FP = %d/%d/%d", res.TruePositives, res.NearMisses, res.FalsePositives)
	}
	if res.Recall() != 0.5 {
		t.Errorf("Recall = %v", res.Recall())
	}
	if res.Precision() != 2.0/3 {
		t.Errorf("Precision = %v", res.Precision())
	}
	if res.F1() <= 0 || res.F1() > 1 {
		t.Errorf("F1 = %v", res.F1())
	}
	if !strings.Contains(res.String(), "recall=0.500") {
		t.Errorf("String = %q", res.String())
	}
}

func TestEvaluateEmpty(t *testing.T) {
	ds := synthetic()
	res := Evaluate(ds, nil, 400)
	if res.Recall() != 0 || res.Precision() != 0 || res.F1() != 0 {
		t.Errorf("empty prediction: %+v", res)
	}
	empty := Evaluate(&seqgen.Dataset{}, []Pair{{0, 1}}, 400)
	if empty.TruePairs != 0 {
		t.Errorf("empty truth: %+v", empty)
	}
}

func TestRecallByOverlapLength(t *testing.T) {
	ds := synthetic()
	// Bins: [100,500) and [500,inf). Truth>=100: (0,1)=500, (1,2)=600,
	// (0,2)=100.
	pred := []Pair{{0, 1}, {0, 2}}
	bins := RecallByOverlapLength(ds, pred, []int{100, 500})
	if len(bins) != 2 {
		t.Fatalf("got %d bins", len(bins))
	}
	// Bin [100,500): only (0,2), found.
	if bins[0].Truth != 1 || bins[0].Found != 1 || bins[0].Recall() != 1 {
		t.Errorf("bin0 = %+v", bins[0])
	}
	// Bin [500,inf): (0,1) found, (1,2) missed.
	if bins[1].Truth != 2 || bins[1].Found != 1 || bins[1].Recall() != 0.5 {
		t.Errorf("bin1 = %+v", bins[1])
	}
	if RecallByOverlapLength(ds, pred, nil) != nil {
		t.Error("nil bins should give nil")
	}
	var zero BinRecall
	if zero.Recall() != 0 {
		t.Error("empty bin recall should be 0")
	}
}

func TestEvaluateOnGeneratedData(t *testing.T) {
	ds, err := seqgen.Generate(seqgen.Config{
		GenomeLen: 20000, Seed: 5, Coverage: 10, MeanReadLen: 1500,
		MinReadLen: 400, ErrorRate: 0, BothStrands: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Perfect predictor: feed truth back in; expect recall = precision = 1.
	var pred []Pair
	for _, p := range ds.TrueOverlaps(500) {
		pred = append(pred, Pair{A: p[0], B: p[1]})
	}
	res := Evaluate(ds, pred, 500)
	if res.Recall() != 1 || res.Precision() != 1 {
		t.Errorf("perfect predictor scored %v", res)
	}
}
