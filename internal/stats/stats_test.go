package stats

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestBreakdownTotals(t *testing.T) {
	b := Breakdown{
		PackVirtual: 1, LocalVirtual: 2, ExchangeVirtual: 3,
		PackWall: time.Second, LocalWall: 2 * time.Second, ExchangeWall: 3 * time.Second,
	}
	if b.TotalVirtual() != 6 {
		t.Errorf("TotalVirtual = %v", b.TotalVirtual())
	}
	if b.TotalWall() != 6*time.Second {
		t.Errorf("TotalWall = %v", b.TotalWall())
	}
}

func TestBreakdownAdd(t *testing.T) {
	a := Breakdown{PackVirtual: 1, LocalWall: time.Second}
	a.Add(Breakdown{PackVirtual: 2, LocalWall: time.Second, ExchangeVirtual: 5})
	if a.PackVirtual != 3 || a.LocalWall != 2*time.Second || a.ExchangeVirtual != 5 {
		t.Errorf("Add result: %+v", a)
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance(nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := Imbalance([]float64{5, 5, 5}); got != 1 {
		t.Errorf("balanced = %v", got)
	}
	if got := Imbalance([]float64{1, 1, 4}); got != 2 {
		t.Errorf("imbalanced = %v", got)
	}
	if got := Imbalance([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero = %v", got)
	}
}

// Property: imbalance is always >= 1 for non-negative non-empty input with
// a positive mean.
func TestImbalanceAtLeastOne(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		positive := false
		for i, r := range raw {
			vals[i] = float64(r)
			if r > 0 {
				positive = true
			}
		}
		if !positive {
			return Imbalance(vals) == 1
		}
		return Imbalance(vals) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMax(t *testing.T) {
	if Max(nil) != 0 {
		t.Error("empty Max not 0")
	}
	if Max([]float64{1, 5, 3}) != 5 {
		t.Error("Max wrong")
	}
}

func TestEfficiency(t *testing.T) {
	// Perfect scaling: halved time on doubled nodes.
	if got := Efficiency(10, 1, 5, 2); got != 1 {
		t.Errorf("perfect = %v", got)
	}
	// No scaling: same time on doubled nodes -> 0.5.
	if got := Efficiency(10, 1, 10, 2); got != 0.5 {
		t.Errorf("flat = %v", got)
	}
	if Efficiency(10, 1, 0, 2) != 0 {
		t.Error("zero time should give 0")
	}
	// Superlinear: more than halved.
	if got := Efficiency(10, 1, 4, 2); got <= 1 {
		t.Errorf("superlinear = %v", got)
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]string{"a", "longheader"}, [][]string{
		{"xxxx", "1"},
		{"y", "2"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	// All rows align to the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("misaligned header/separator: %q vs %q", lines[0], lines[1])
	}
	if !strings.HasPrefix(lines[2], "xxxx") {
		t.Errorf("row = %q", lines[2])
	}
}

// boundedBreakdown maps arbitrary fuzz bytes into a well-formed
// breakdown: non-negative buckets, overlap no larger than the exchange
// cost it hides. Small integral values keep float arithmetic exact, so
// the merge properties below can assert equality without tolerances.
func boundedBreakdown(raw [8]uint8) Breakdown {
	b := Breakdown{
		PackVirtual:     float64(raw[0]),
		LocalVirtual:    float64(raw[1]),
		ExchangeVirtual: float64(raw[2]),
		PackWall:        time.Duration(raw[4]) * time.Millisecond,
		LocalWall:       time.Duration(raw[5]) * time.Millisecond,
		ExchangeWall:    time.Duration(raw[6]) * time.Millisecond,
		OverlapWall:     time.Duration(raw[7]) * time.Millisecond,
	}
	if b.ExchangeVirtual > 0 {
		b.OverlapVirtual = float64(raw[3] % raw[2])
	}
	return b
}

// Property: merging breakdowns is commutative and has the zero value as
// identity — the invariants Report aggregation relies on when it folds
// per-rank, per-stage breakdowns in gather order.
func TestBreakdownMergeCommutes(t *testing.T) {
	f := func(ra, rb [8]uint8) bool {
		a, b := boundedBreakdown(ra), boundedBreakdown(rb)
		ab, ba := a, b
		ab.Add(b)
		ba.Add(a)
		if ab != ba {
			return false
		}
		id := a
		id.Add(Breakdown{})
		return id == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: totals distribute over merge — the total of a merged
// breakdown equals the sum of the parts' totals, virtual and wall. This
// is what makes per-rank accumulation order-independent.
func TestBreakdownMergeTotalsAdd(t *testing.T) {
	f := func(ra, rb, rc [8]uint8) bool {
		a, b, c := boundedBreakdown(ra), boundedBreakdown(rb), boundedBreakdown(rc)
		merged := a
		merged.Add(b)
		merged.Add(c)
		return merged.TotalVirtual() == a.TotalVirtual()+b.TotalVirtual()+c.TotalVirtual() &&
			merged.TotalWall() == a.TotalWall()+b.TotalWall()+c.TotalWall()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the overlap fraction is a fraction — within [0, 1] for any
// well-formed breakdown and any merge of them (overlap cannot exceed
// the exchange cost it hides).
func TestBreakdownOverlapFractionBounded(t *testing.T) {
	f := func(ra, rb [8]uint8) bool {
		a, b := boundedBreakdown(ra), boundedBreakdown(rb)
		merged := a
		merged.Add(b)
		for _, x := range []Breakdown{a, b, merged} {
			if frac := x.OverlapFraction(); frac < 0 || frac > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
