package pipeline

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dibella/internal/stats"
)

// syntheticReport builds a report from deterministic pseudo-random rank
// accounting, so aggregation invariants can be checked against
// independently computed expectations.
func syntheticReport(seed int64, ranks int) *Report {
	rng := rand.New(rand.NewSource(seed))
	rep := &Report{Ranks: ranks}
	for r := 0; r < ranks; r++ {
		rr := RankReport{Rank: r}
		mk := func() stats.Breakdown {
			ex := float64(rng.Intn(100))
			return stats.Breakdown{
				PackVirtual:     float64(rng.Intn(100)),
				LocalVirtual:    float64(rng.Intn(100)),
				ExchangeVirtual: ex,
				OverlapVirtual:  ex * rng.Float64(),
			}
		}
		rr.Bloom.Breakdown = mk()
		rr.Hash.Breakdown = mk()
		rr.Overlap.Breakdown = mk()
		rr.Align.Breakdown = mk()
		rr.Bloom.BytesPacked = int64(rng.Intn(1 << 20))
		rr.Hash.BytesPacked = int64(rng.Intn(1 << 20))
		rr.Overlap.BytesPacked = int64(rng.Intn(1 << 20))
		rr.Align.BytesPacked = int64(rng.Intn(1 << 20))
		rr.MemPeak = StageMem{
			Bloom:   int64(rng.Intn(1 << 30)),
			Hash:    int64(rng.Intn(1 << 30)),
			Overlap: int64(rng.Intn(1 << 30)),
			Align:   int64(rng.Intn(1 << 30)),
		}
		rep.PerRank = append(rep.PerRank, rr)
	}
	return rep
}

// TestReportAggregation pins the aggregation semantics of the report:
// exchange bytes sum over ranks, modeled stage times and memory peaks
// are maxima (BSP semantics — the slowest or largest rank decides), and
// the per-stage totals compose into the run totals.
func TestReportAggregation(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rep := syntheticReport(seed, 1+int(seed)%7)
		for _, s := range Stages {
			var wantBytes int64
			var wantVirt float64
			var wantMem int64
			for i := range rep.PerRank {
				rr := &rep.PerRank[i]
				wantBytes += rr.bytesPackedOf(s)
				if v := rr.breakdownOf(s).TotalVirtual(); v > wantVirt {
					wantVirt = v
				}
				if m := rr.MemPeak.of(s); m > wantMem {
					wantMem = m
				}
			}
			if got := rep.StageExchangeBytes(s); got != wantBytes {
				t.Errorf("seed %d %s: StageExchangeBytes %d, want sum %d", seed, s, got, wantBytes)
			}
			if got := rep.StageVirtual(s); got != wantVirt {
				t.Errorf("seed %d %s: StageVirtual %v, want max %v", seed, s, got, wantVirt)
			}
			if got := rep.StageMemPeak(s); got != wantMem {
				t.Errorf("seed %d %s: StageMemPeak %d, want max %d", seed, s, got, wantMem)
			}
		}
		var wantTotal int64
		var wantVirtTotal float64
		for _, s := range Stages {
			wantTotal += rep.StageExchangeBytes(s)
			wantVirtTotal += rep.StageVirtual(s)
		}
		if got := rep.ExchangeBytes(); got != wantTotal {
			t.Errorf("seed %d: ExchangeBytes %d, want %d", seed, got, wantTotal)
		}
		if got := rep.TotalVirtual(); got != wantVirtTotal {
			t.Errorf("seed %d: TotalVirtual %v, want %v", seed, got, wantVirtTotal)
		}
		if frac := rep.OverlapFraction(); frac < 0 || frac > 1 {
			t.Errorf("seed %d: OverlapFraction %v out of [0,1]", seed, frac)
		}
	}
}

// TestReportRoundTrip serializes a report the way the bench harness and
// config shipping do (JSON) and checks every aggregate survives — the
// breakdown, byte, and memory accounting must not depend on anything
// serialization drops.
func TestReportRoundTrip(t *testing.T) {
	rep := syntheticReport(42, 5)
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	for _, s := range Stages {
		if back.StageExchangeBytes(s) != rep.StageExchangeBytes(s) {
			t.Errorf("%s: exchange bytes changed across round-trip", s)
		}
		if back.StageVirtual(s) != rep.StageVirtual(s) {
			t.Errorf("%s: stage virtual changed across round-trip", s)
		}
		if back.StageMemPeak(s) != rep.StageMemPeak(s) {
			t.Errorf("%s: memory peak changed across round-trip", s)
		}
		if back.StageOverlapVirtual(s) != rep.StageOverlapVirtual(s) {
			t.Errorf("%s: overlap virtual changed across round-trip", s)
		}
	}
	if back.OverlapFraction() != rep.OverlapFraction() {
		t.Error("overlap fraction changed across round-trip")
	}
}

// A stage's wait is its wall less its local and pack walls, rank by rank,
// and DescribeWait prints it for every stage in pipeline order: on a report
// whose ranks waited known amounts, each amount appears after its stage's
// name, in rank order.
func TestDescribeWait(t *testing.T) {
	rep := &Report{Ranks: 2}
	for r := range 2 {
		rr := RankReport{Rank: r}
		for k, b := range []*stats.Breakdown{&rr.Bloom.Breakdown, &rr.Hash.Breakdown, &rr.Overlap.Breakdown, &rr.Align.Breakdown} {
			b.PackWall = time.Duration(r+1) * time.Millisecond
			b.LocalWall = 7 * time.Millisecond
			b.ExchangeWall = time.Duration(10*k+r) * time.Microsecond
		}
		rep.PerRank = append(rep.PerRank, rr)
	}
	for k, s := range Stages {
		for r := range 2 {
			if got, want := rep.stageWait(s, r), time.Duration(10*k+r)*time.Microsecond; got != want {
				t.Errorf("%s rank %d: wait %v, want %v", s, r, got, want)
			}
		}
	}
	want := "wait (stage wall - local - pack), by rank: " + strings.Join([]string{
		string(Stages[0]) + " 0s 1µs", string(Stages[1]) + " 10µs 11µs",
		string(Stages[2]) + " 20µs 21µs", string(Stages[3]) + " 30µs 31µs"}, ", ")
	if got := DescribeWait(rep); got != want {
		t.Errorf("DescribeWait:\n got %q\nwant %q", got, want)
	}
}
