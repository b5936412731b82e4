package overlap

import (
	"testing"
	"testing/quick"
)

func TestPairBoundsBasics(t *testing.T) {
	lo, hi := PairBounds(100, 4)
	if lo != 100 {
		t.Errorf("lo = %d", lo)
	}
	if hi != 100*6 { // m(m-1)/2 = 6
		t.Errorf("hi = %d", hi)
	}
	if lo, hi := PairBounds(-1, 4); lo != 0 || hi != 0 {
		t.Error("negative retained should zero out")
	}
	if lo, hi := PairBounds(10, 1); lo != 0 || hi != 0 {
		t.Error("m<2 should zero out")
	}
}

// Property: lo <= hi always, and hi grows quadratically in m.
func TestPairBoundsOrdering(t *testing.T) {
	f := func(retRaw uint16, mRaw uint8) bool {
		ret := int64(retRaw)
		m := int(mRaw)%30 + 2
		lo, hi := PairBounds(ret, m)
		if lo > hi {
			return false
		}
		lo2, hi2 := PairBounds(ret, m+1)
		return lo2 == lo && hi2 >= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParallelComplexity(t *testing.T) {
	if ParallelComplexity(1000, 10, 10) != 1000*100/10 {
		t.Error("Eq. 5 arithmetic wrong")
	}
	if ParallelComplexity(1000, 10, 0) != 0 {
		t.Error("p=0 should give 0")
	}
}

// The measured pair counts of a real run must respect Eq. 3's upper bound.
func TestMeasuredPairsWithinBounds(t *testing.T) {
	seqs := overlappingReads(8)
	const m = 10
	tasks, st := buildTasksMaxFreq(t, seqs, 2, Config{K: 17, Mode: OneSeed}, m)
	var retained, generated int64
	for _, s := range st {
		retained += s.RetainedScanned
		generated += s.PairsGenerated
	}
	_, hi := PairBounds(retained, m)
	if generated > hi {
		t.Errorf("generated %d pairs exceeds Eq. 3 bound %d", generated, hi)
	}
	if generated == 0 || len(tasks) == 0 {
		t.Fatal("degenerate run")
	}
}

// buildTasksMaxFreq is buildTasks with a custom frequency cutoff.
func buildTasksMaxFreq(t *testing.T, seqs [][]byte, p int, cfg Config, maxFreq int) ([]Task, []Stats) {
	t.Helper()
	return buildTasksWith(t, seqs, p, cfg, maxFreq)
}
