package daligner

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dibella/internal/align"
	"dibella/internal/dht"
	"dibella/internal/kmer"
	"dibella/internal/overlap"
	"dibella/internal/pipeline"
	"dibella/internal/seqgen"
)

func TestRadixSortMatchesStdSort(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw) % 2000
		rng := rand.New(rand.NewSource(seed))
		ts := make([]tuple, n)
		for i := range ts {
			ts[i] = tuple{km: kmer.Kmer(rng.Uint64()), occ: dht.MakeOcc(uint32(i), 0, true)}
		}
		want := append([]tuple(nil), ts...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].km < want[j].km })
		radixSort(ts)
		for i := range ts {
			if ts[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRadixSortStability(t *testing.T) {
	// Equal keys must keep input order (occ.Read ascending here).
	ts := []tuple{
		{km: 5, occ: dht.MakeOcc(0, 0, true)},
		{km: 3, occ: dht.MakeOcc(1, 0, true)},
		{km: 5, occ: dht.MakeOcc(2, 0, true)},
		{km: 3, occ: dht.MakeOcc(3, 0, true)},
	}
	radixSort(ts)
	if ts[0].occ.Read != 1 || ts[1].occ.Read != 3 || ts[2].occ.Read != 0 || ts[3].occ.Read != 2 {
		t.Errorf("unstable sort: %+v", ts)
	}
}

func TestRadixSortSmall(t *testing.T) {
	radixSort(nil)
	one := []tuple{{km: 42}}
	radixSort(one)
	if one[0].km != 42 {
		t.Error("single-element sort broke")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(nil, Config{K: 0, MaxFreq: 8}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Run(nil, Config{K: 17, MaxFreq: 1}); err == nil {
		t.Error("m=1 accepted")
	}
	huge := align.Scoring{Match: align.MaxScoreMagnitude + 1, Mismatch: -1, Gap: -1}
	if _, err := Run(nil, Config{K: 17, MaxFreq: 8, Scoring: huge}); err == nil {
		t.Error("oversized match score accepted")
	}
}

func smallDataset(t *testing.T, seed int64) *seqgen.Dataset {
	t.Helper()
	ds, err := seqgen.Generate(seqgen.Config{
		GenomeLen: 20000, Seed: seed, Coverage: 12, MeanReadLen: 1500,
		MinReadLen: 400, ErrorRate: 0.10, BothStrands: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBaselineMatchesPipelinePairs(t *testing.T) {
	// The sort-based baseline and the hash-based pipeline must discover
	// the identical set of candidate read pairs (same k, same m filter).
	ds := smallDataset(t, 21)
	const k, m = 17, 10

	base, err := Run(ds.Reads, Config{K: k, MaxFreq: m, SeedMode: overlap.OneSeed})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pipeline.Execute(3, nil, ds.Reads, pipeline.Config{
		K: k, MaxFreq: m, SeedMode: overlap.OneSeed, KeepAlignments: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Pairs != rep.Pairs {
		t.Fatalf("pair counts differ: baseline %d, pipeline %d", base.Pairs, rep.Pairs)
	}
	basePairs := make(map[[2]uint32]bool)
	for _, o := range base.Records {
		basePairs[[2]uint32{o.A, o.B}] = true
	}
	pipePairs := make(map[[2]uint32]bool)
	for _, a := range rep.Records {
		pipePairs[[2]uint32{a.A, a.B}] = true
	}
	if len(basePairs) != len(pipePairs) {
		t.Fatalf("aligned pair sets differ in size: %d vs %d", len(basePairs), len(pipePairs))
	}
	for pr := range pipePairs {
		if !basePairs[pr] {
			t.Fatalf("pair %v only found by pipeline", pr)
		}
	}
	// One-seed mode: alignment counts agree too.
	if base.Alignments != rep.Alignments {
		t.Errorf("alignment counts differ: %d vs %d", base.Alignments, rep.Alignments)
	}
}

func TestBlockModeEquivalence(t *testing.T) {
	// Block decomposition must not change the discovered pairs, only the
	// phase costs.
	ds := smallDataset(t, 22)
	const k, m = 17, 10
	whole, err := Run(ds.Reads, Config{K: k, MaxFreq: m, SeedMode: overlap.OneSeed})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := Run(ds.Reads, Config{K: k, MaxFreq: m, SeedMode: overlap.OneSeed, Blocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if whole.Pairs != blocked.Pairs {
		t.Fatalf("block mode changed pairs: %d vs %d", whole.Pairs, blocked.Pairs)
	}
	if whole.Alignments != blocked.Alignments {
		t.Fatalf("block mode changed alignments: %d vs %d", whole.Alignments, blocked.Alignments)
	}
}

func TestBlockModeCostsMore(t *testing.T) {
	// The paper's point about DALIGNER's distribution: block pairs re-sort
	// the same tuples repeatedly, so sort volume grows with block count.
	ds := smallDataset(t, 23)
	const k, m = 17, 10
	whole, err := Run(ds.Reads, Config{K: k, MaxFreq: m})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := Run(ds.Reads, Config{K: k, MaxFreq: m, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 4 blocks -> 10 block-pairs, each sorting ~2/4 of tuples: ~5x volume.
	if blocked.SortTime <= whole.SortTime {
		t.Skipf("timing noise: blocked %v vs whole %v", blocked.SortTime, whole.SortTime)
	}
}

func TestThreadCountInvariance(t *testing.T) {
	ds := smallDataset(t, 24)
	one, err := Run(ds.Reads, Config{K: 17, MaxFreq: 10, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(ds.Reads, Config{K: 17, MaxFreq: 10, Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if one.Alignments != many.Alignments || one.Cells != many.Cells {
		t.Errorf("thread count changed results: %d/%d vs %d/%d",
			one.Alignments, one.Cells, many.Alignments, many.Cells)
	}
	if len(one.Records) != len(many.Records) {
		t.Errorf("record counts differ: %d vs %d", len(one.Records), len(many.Records))
	}
	for i := range one.Records {
		if one.Records[i] != many.Records[i] {
			t.Fatal("record order depends on thread count")
		}
	}
}

func TestResultTotal(t *testing.T) {
	ds := smallDataset(t, 25)
	res, err := Run(ds.Reads, Config{K: 17, MaxFreq: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() <= 0 || res.Tuples == 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	if res.Total() != res.ExtractTime+res.SortTime+res.ScanTime+res.AlignTime {
		t.Error("Total() inconsistent")
	}
}

func BenchmarkBaseline(b *testing.B) {
	ds, err := seqgen.Generate(seqgen.Config{
		GenomeLen: 30000, Seed: 1, Coverage: 10, MeanReadLen: 1500,
		MinReadLen: 400, ErrorRate: 0.12, BothStrands: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ds.Reads, Config{K: 17, MaxFreq: 10}); err != nil {
			b.Fatal(err)
		}
	}
}
