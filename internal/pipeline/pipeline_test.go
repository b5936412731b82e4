package pipeline

import (
	"bytes"
	"testing"

	"dibella/internal/align"
	"dibella/internal/fastq"
	"dibella/internal/machine"
	"dibella/internal/overlap"
	"dibella/internal/paf"
)

// keptRun is recallInput on two ranks at the defaults, alignments kept.
func keptRun(t *testing.T) *Report {
	t.Helper()
	return sharedRun(t, recallInput, 2, Config{K: 17, KeepAlignments: true})
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{ErrorRate: 0.15, Coverage: 30, GenomeEst: 4.64e6}
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.K < 14 || cfg.K > 20 || cfg.MaxFreq < 5 || cfg.XDrop != 7 {
		t.Errorf("derived config: %+v", cfg)
	}
	// No k reaches the seed-detection target at 90% error.
	if hopeless := (Config{ErrorRate: 0.9, Coverage: 30, GenomeEst: 1e6}); hopeless.setDefaults() == nil {
		t.Error("unsatisfiable k derivation accepted")
	}
	if cfg.Scoring != align.DefaultScoring {
		t.Error("default scoring not applied")
	}
	bad := Config{} // nothing to derive from
	if err := bad.setDefaults(); err == nil {
		t.Error("underivable config accepted")
	}
	neg := Config{K: 17, XDrop: -3}
	if err := neg.setDefaults(); err == nil {
		t.Error("negative xdrop accepted")
	}
	// Scores the int32 x-drop kernel cannot hold are a config error here,
	// not a panic in the alignment stage.
	big := Config{K: 17, Scoring: align.Scoring{Match: align.MaxScoreMagnitude + 1, Mismatch: -1, Gap: -1}}
	if err := big.setDefaults(); err == nil {
		t.Error("oversized match score accepted")
	}
	edge := Config{K: 17, Scoring: align.Scoring{Match: align.MaxScoreMagnitude, Mismatch: -1, Gap: -1}}
	if err := edge.setDefaults(); err != nil {
		t.Errorf("match score at the bound rejected: %v", err)
	}
}

func TestExecuteModelShapeMismatch(t *testing.T) {
	ds := input(t, recallInput)
	mdl, err := machine.NewModel(machine.Cori, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(8, mdl, ds.Reads, Config{K: 17}); err == nil {
		t.Error("rank/model mismatch accepted")
	}
}

func TestPipelineEndToEndRecall(t *testing.T) {
	// The scientific acceptance test: on synthetic reads with known
	// origins, the pipeline must recover the bulk of true overlaps long
	// enough for the k-choice to guarantee a shared correct k-mer.
	ds := input(t, recallInput)
	cfg := Config{
		K: 17, SeedMode: overlap.MinDistance, MinDist: 700,
		ErrorRate: 0.10, Coverage: 15,
		KeepAlignments: true, XDrop: 20,
	}
	for _, p := range []int{1, 4} {
		rep, err := Execute(p, nil, ds.Reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Alignments == 0 || rep.Pairs == 0 {
			t.Fatalf("p=%d: no work done: %s", p, rep.Summary())
		}

		found := make(map[[2]uint32]bool)
		for _, a := range rep.Records {
			x, y := a.A, a.B
			if x > y {
				x, y = y, x
			}
			found[[2]uint32{x, y}] = true
		}
		truth := ds.TrueOverlaps(2000)
		if len(truth) == 0 {
			t.Fatal("degenerate ground truth")
		}
		hit := 0
		for _, pr := range truth {
			if found[pr] {
				hit++
			}
		}
		recall := float64(hit) / float64(len(truth))
		if recall < 0.70 {
			t.Errorf("p=%d: recall %.2f (%d/%d true overlaps >= 2 kb)", p, recall, hit, len(truth))
		}
	}
}

func TestPipelineDeterministicAcrossRankCounts(t *testing.T) {
	// The set of aligned pairs must not depend on the rank count.
	ds := input(t, recallInput)
	cfg := Config{K: 17, SeedMode: overlap.OneSeed, KeepAlignments: true}
	pairSet := func(p int) map[[2]uint32]bool {
		rep, err := Execute(p, nil, ds.Reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[[2]uint32]bool)
		for _, a := range rep.Records {
			out[[2]uint32{a.A, a.B}] = true
		}
		return out
	}
	p1 := pairSet(1)
	p3 := pairSet(3)
	if len(p1) == 0 {
		t.Fatal("no pairs found")
	}
	if len(p1) != len(p3) {
		t.Fatalf("pair sets differ: %d vs %d", len(p1), len(p3))
	}
	for pr := range p1 {
		if !p3[pr] {
			t.Fatalf("pair %v missing at p=3", pr)
		}
	}
}

func TestPipelineWithModelBreakdowns(t *testing.T) {
	ds := input(t, recallInput)
	mdl, err := machine.NewModel(machine.Edison, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(8, mdl, ds.Reads, Config{K: 17, SeedMode: overlap.OneSeed})
	if err != nil {
		t.Fatal(err)
	}
	if rep.VirtualTime <= 0 {
		t.Fatal("no virtual time accumulated")
	}
	var sum float64
	for _, s := range Stages {
		v := rep.StageVirtual(s)
		if v <= 0 {
			t.Errorf("stage %s has zero modeled time", s)
		}
		if rep.StageExchangeVirtual(s) <= 0 {
			t.Errorf("stage %s has zero exchange time", s)
		}
		if rep.StageWall(s) <= 0 {
			t.Errorf("stage %s has zero wall time", s)
		}
		sum += v
	}
	// Stage times must approximately account for the total clock.
	if sum < rep.VirtualTime*0.5 || sum > rep.VirtualTime*2 {
		t.Errorf("stage sum %.4f vs clock %.4f", sum, rep.VirtualTime)
	}
	if rep.TotalVirtual() != sum {
		t.Error("TotalVirtual disagrees with stage sum")
	}
	if rep.ExchangeVirtual() <= 0 || rep.ExchangeVirtual() >= sum {
		t.Errorf("exchange fraction out of range: %v of %v", rep.ExchangeVirtual(), sum)
	}
}

func TestTaskCountBalance(t *testing.T) {
	// Fig. 8's companion claim: the number of alignments per rank is
	// nearly perfectly balanced by the odd/even heuristic.
	ds := input(t, recallInput)
	rep, err := Execute(8, nil, ds.Reads, Config{K: 17, SeedMode: overlap.OneSeed})
	if err != nil {
		t.Fatal(err)
	}
	if imb := rep.TaskImbalance(); imb > 1.5 {
		t.Errorf("task-count imbalance %.3f too high for uniform reads", imb)
	}
	if imb := rep.AlignImbalance(); imb < 1.0 {
		t.Errorf("alignment-time imbalance %.3f below 1", imb)
	}
}

func TestMinAlignScoreFilters(t *testing.T) {
	ds := input(t, recallInput)
	loose := keptRun(t)
	strict, err := Execute(2, nil, ds.Reads, Config{K: 17, KeepAlignments: true, MinAlignScore: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Records) >= len(loose.Records) {
		t.Errorf("score filter kept %d of %d", len(strict.Records), len(loose.Records))
	}
	for _, a := range strict.Records {
		if a.Score < 500 {
			t.Fatalf("record with score %d survived filter", a.Score)
		}
	}
}

func TestPAFOutput(t *testing.T) {
	ds := input(t, recallInput)
	rep := keptRun(t)
	recs := rep.PAFRecords(ds.Reads)
	if len(recs) != len(rep.Records) {
		t.Fatalf("PAF count %d != %d", len(recs), len(rep.Records))
	}
	for i := range recs {
		if err := recs[i].Validate(); err != nil {
			t.Fatalf("record %d invalid: %v (%+v)", i, err, recs[i])
		}
	}
	var buf bytes.Buffer
	if err := paf.Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := paf.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatal("PAF roundtrip lost records")
	}
}

func TestReverseStrandOverlapsFound(t *testing.T) {
	// With BothStrands data, a healthy fraction of alignments must be on
	// the '-' strand — exercising the canonical-k-mer orientation logic.
	rep := keptRun(t)
	var plus, minus int
	for _, a := range rep.Records {
		if a.Strand == '+' {
			plus++
		} else {
			minus++
		}
	}
	if minus == 0 || plus == 0 {
		t.Errorf("strand mix degenerate: +%d -%d", plus, minus)
	}
}

func TestNoDuplicatePairsUnderStreaming(t *testing.T) {
	// Regression: with many small streaming rounds, occurrence lists
	// arrive out of read-ID order, so the same unordered pair used to
	// surface as (a,b) and (b,a), route to two owners, and be aligned
	// twice. Pair counts must be independent of the round size.
	ds := input(t, recallInput)
	run := func(batch int) *Report {
		rep, err := Execute(4, nil, ds.Reads, Config{
			K: 17, SeedMode: overlap.OneSeed, MaxKmersPerRound: batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	big := run(1 << 20)
	small := run(1 << 10) // forces dozens of interleaved rounds
	if big.Pairs != small.Pairs {
		t.Errorf("pair count depends on round size: %d vs %d", big.Pairs, small.Pairs)
	}
	if big.Alignments != small.Alignments {
		t.Errorf("alignment count depends on round size: %d vs %d",
			big.Alignments, small.Alignments)
	}
}

func TestMinimizerModeTradesRecallForVolume(t *testing.T) {
	run := func(w int) (*Report, int64) {
		rep := sharedRun(t, recallInput, 4, oneSeedConfig(w))
		var parsed int64
		for _, rr := range rep.PerRank {
			parsed += rr.Bloom.KmersParsed
		}
		return rep, parsed
	}
	full, fullParsed := run(0)
	mins, minParsed := run(10)
	// Volume drops by roughly the minimizer density 2/(w+1).
	ratio := float64(minParsed) / float64(fullParsed)
	if ratio > 0.4 {
		t.Errorf("minimizers kept %.2f of k-mer volume, want < 0.4", ratio)
	}
	if mins.Pairs == 0 {
		t.Fatal("minimizer mode found no pairs")
	}
	// Recall against full-mode pairs stays high: shared regions >= w+k-1
	// still share a minimizer.
	fullPairs := make(map[[2]uint32]bool)
	for _, a := range full.Records {
		fullPairs[[2]uint32{a.A, a.B}] = true
	}
	hit := 0
	for _, a := range mins.Records {
		if fullPairs[[2]uint32{a.A, a.B}] {
			hit++
		}
	}
	minPairs := make(map[[2]uint32]bool)
	for _, a := range mins.Records {
		minPairs[[2]uint32{a.A, a.B}] = true
	}
	recall := float64(len(minPairs)) / float64(len(fullPairs))
	if recall < 0.5 {
		t.Errorf("minimizer mode retained %.2f of pairs", recall)
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	// No reads at all.
	rep, err := Execute(4, nil, nil, Config{K: 17})
	if err != nil {
		t.Fatalf("empty input: %v", err)
	}
	if rep.Alignments != 0 || rep.Pairs != 0 {
		t.Errorf("empty input produced work: %s", rep.Summary())
	}
	// A single read cannot overlap anything.
	one := []*fastq.Record{{Name: "solo", Seq: bytes.Repeat([]byte("ACGT"), 500)}}
	rep, err = Execute(4, nil, one, Config{K: 17})
	if err != nil {
		t.Fatalf("single read: %v", err)
	}
	if rep.Pairs != 0 {
		t.Errorf("single read produced %d pairs", rep.Pairs)
	}
	// Reads shorter than k.
	short := []*fastq.Record{
		{Name: "a", Seq: []byte("ACGT")},
		{Name: "b", Seq: []byte("ACGT")},
	}
	rep, err = Execute(2, nil, short, Config{K: 17})
	if err != nil {
		t.Fatalf("short reads: %v", err)
	}
	if rep.Pairs != 0 {
		t.Errorf("sub-k reads produced pairs")
	}
	// More ranks than reads.
	pairable := []*fastq.Record{
		{Name: "a", Seq: bytes.Repeat([]byte("ACGTTGCATT"), 30)},
		{Name: "b", Seq: bytes.Repeat([]byte("ACGTTGCATT"), 30)},
	}
	rep, err = Execute(16, nil, pairable, Config{K: 17, MaxFreq: 500})
	if err != nil {
		t.Fatalf("p >> reads: %v", err)
	}
	if rep.Pairs == 0 {
		t.Error("identical reads should pair even with p >> reads")
	}
}

func TestIdenticalReadsPairPerfectly(t *testing.T) {
	// Two identical error-free reads must be found and align end to end.
	seq := bytes.Repeat([]byte("ACGTTGCA"), 200)
	reads := []*fastq.Record{
		{Name: "a", Seq: seq},
		{Name: "b", Seq: append([]byte(nil), seq...)},
	}
	rep, err := Execute(2, nil, reads, Config{
		K: 17, MaxFreq: 2000, KeepAlignments: true, SeedMode: overlap.OneSeed, XDrop: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 1 {
		t.Fatalf("got %d records", len(rep.Records))
	}
	a := rep.Records[0]
	if a.Score != len(seq) {
		t.Errorf("identical reads scored %d, want %d", a.Score, len(seq))
	}
	if a.AStart != 0 || a.AEnd != len(seq) || a.BStart != 0 || a.BEnd != len(seq) {
		t.Errorf("span [%d,%d)/[%d,%d)", a.AStart, a.AEnd, a.BStart, a.BEnd)
	}
}

func TestSummaryString(t *testing.T) {
	if keptRun(t).Summary() == "" {
		t.Error("empty summary")
	}
}
