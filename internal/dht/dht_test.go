package dht

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dibella/internal/fastq"
	"dibella/internal/kmer"
	"dibella/internal/machine"
	"dibella/internal/seqgen"
	"dibella/internal/spmd"
	"dibella/internal/stats"
)

func TestOccPacking(t *testing.T) {
	o := MakeOcc(12345, 67890, true)
	if o.Read != 12345 || o.Pos() != 67890 || !o.Forward() {
		t.Errorf("occ = %+v pos=%d fwd=%v", o, o.Pos(), o.Forward())
	}
	o2 := MakeOcc(1, 0, false)
	if o2.Pos() != 0 || o2.Forward() {
		t.Errorf("occ2 pos=%d fwd=%v", o2.Pos(), o2.Forward())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{K: 0, MaxFreq: 8},
		{K: 40, MaxFreq: 8},
		{K: 17, MaxFreq: 1},
		{K: 17, MaxFreq: 8, BloomFP: 1.5},
	}
	for i, cfg := range bad {
		err := spmd.Run(1, func(c *spmd.Comm) error {
			_, _, err := Build(c, nil, LocalReads{}, cfg)
			return err
		})
		if err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// naiveRetained computes the ground-truth retained k-mer map sequentially.
func naiveRetained(seqs [][]byte, k, maxFreq int) map[kmer.Kmer][]Occ {
	counts := make(map[kmer.Kmer][]Occ)
	for id, s := range seqs {
		for _, ex := range kmer.ExtractAll(s, k, uint32(id)) {
			counts[ex.Kmer] = append(counts[ex.Kmer],
				MakeOcc(ex.Occ.ReadID, ex.Occ.Pos, ex.Occ.Forward))
		}
	}
	for km, occs := range counts {
		if len(occs) < 2 || len(occs) > maxFreq {
			delete(counts, km)
		}
	}
	return counts
}

// buildDistributed runs Build over p ranks on a block-distributed read set
// and merges the partitions for verification.
func buildDistributed(t *testing.T, seqs [][]byte, p, k, maxFreq int, cfg Config) (map[kmer.Kmer][]Occ, []BuildStats) {
	t.Helper()
	store := fastq.NewReadStore(recordsOf(seqs), p)
	cfg.K = k
	cfg.MaxFreq = maxFreq

	var mu sync.Mutex
	merged := make(map[kmer.Kmer][]Occ)
	allStats := make([]BuildStats, p)
	err := spmd.Run(p, func(c *spmd.Comm) error {
		part, stats, err := Build(c, nil, localReadsOf(store, c.Rank()), cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		allStats[c.Rank()] = stats
		part.ForEach(func(km kmer.Kmer, occs []Occ) {
			if _, dup := merged[km]; dup {
				t.Errorf("k-mer %v present in two partitions", km)
			}
			merged[km] = occs
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return merged, allStats
}

// localReadsOf is rank's block of the store, as Build takes it.
func localReadsOf(store *fastq.ReadStore, rank int) LocalReads {
	start, end := store.LocalIDs(rank)
	local := LocalReads{IDStart: start}
	for id := start; id < end; id++ {
		local.Seqs = append(local.Seqs, store.Seq(id))
	}
	return local
}

func recordsOf(seqs [][]byte) []*fastq.Record {
	recs := make([]*fastq.Record, len(seqs))
	for i, s := range seqs {
		recs[i] = &fastq.Record{Name: fmt.Sprintf("r%d", i), Seq: s}
	}
	return recs
}

func randReads(rng *rand.Rand, n, minLen, maxLen int) [][]byte {
	seqs := make([][]byte, n)
	for i := range seqs {
		l := minLen + rng.Intn(maxLen-minLen+1)
		s := make([]byte, l)
		for j := range s {
			s[j] = "ACGT"[rng.Intn(4)]
		}
		seqs[i] = s
	}
	return seqs
}

func TestBuildMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Overlapping reads from a common template guarantee shared k-mers.
	template := randReads(rng, 1, 3000, 3000)[0]
	var seqs [][]byte
	for i := 0; i+400 <= len(template); i += 150 {
		seqs = append(seqs, template[i:i+400])
	}
	seqs = append(seqs, randReads(rng, 5, 200, 600)...)

	const k, m = 17, 8
	want := naiveRetained(seqs, k, m)
	if len(want) == 0 {
		t.Fatal("test data produced no retained k-mers")
	}
	for _, p := range []int{1, 2, 5} {
		got, _ := buildDistributed(t, seqs, p, k, m, Config{})
		if len(got) != len(want) {
			t.Fatalf("p=%d: %d retained k-mers, want %d", p, len(got), len(want))
		}
		for km, wocc := range want {
			gocc, ok := got[km]
			if !ok {
				t.Fatalf("p=%d: k-mer %q missing", p, km.Bytes(k))
			}
			if len(gocc) != len(wocc) {
				t.Fatalf("p=%d: k-mer %q has %d occs, want %d", p, km.Bytes(k), len(gocc), len(wocc))
			}
			// Occurrence multisets must match (order may differ).
			seen := make(map[Occ]int)
			for _, o := range gocc {
				seen[o]++
			}
			for _, o := range wocc {
				seen[o]--
				if seen[o] < 0 {
					t.Fatalf("p=%d: unexpected occurrence %+v", p, o)
				}
			}
		}
	}
}

func TestHighFrequencyFiltering(t *testing.T) {
	// A k-mer occurring more than m times must vanish.
	rng := rand.New(rand.NewSource(3))
	motif := randReads(rng, 1, 20, 20)[0]
	var seqs [][]byte
	for i := 0; i < 12; i++ {
		pad := randReads(rng, 1, 50, 80)[0]
		seqs = append(seqs, append(append([]byte{}, pad...), motif...))
	}
	const k = 17
	const m = 6
	got, stats := buildDistributed(t, seqs, 2, k, m, Config{})
	for _, ex := range kmer.ExtractAll(motif, k, 0) {
		if _, ok := got[ex.Kmer]; ok {
			t.Errorf("high-frequency k-mer %q survived", ex.Kmer.Bytes(k))
		}
	}
	totalHF := 0
	for _, s := range stats {
		totalHF += s.PrunedHighFreq
	}
	if totalHF == 0 {
		t.Error("no high-frequency prunes recorded")
	}
}

func TestSingletonElimination(t *testing.T) {
	// Fully random disjoint reads: essentially everything is a singleton.
	rng := rand.New(rand.NewSource(4))
	seqs := randReads(rng, 20, 300, 500)
	got, stats := buildDistributed(t, seqs, 2, 21, 8, Config{})
	want := naiveRetained(seqs, 21, 8)
	if len(got) != len(want) {
		t.Fatalf("retained %d, want %d", len(got), len(want))
	}
	// The Bloom pass must have kept the table tiny relative to the bag.
	var parsed int64
	var entries int
	for _, s := range stats {
		parsed += s.Bloom.KmersParsed
		entries += s.TableEntries
	}
	if entries > int(parsed)/4 {
		t.Errorf("bloom pass admitted %d of %d k-mers", entries, parsed)
	}
}

func TestStreamingRoundsMatchSingleRound(t *testing.T) {
	// Tiny MaxKmersPerRound forces many exchange rounds; results must not
	// change.
	rng := rand.New(rand.NewSource(5))
	template := randReads(rng, 1, 1500, 1500)[0]
	var seqs [][]byte
	for i := 0; i+250 <= len(template); i += 100 {
		seqs = append(seqs, template[i:i+250])
	}
	const k, m = 13, 10
	oneRound, statsA := buildDistributed(t, seqs, 3, k, m, Config{MaxKmersPerRound: 1 << 20})
	manyRounds, statsB := buildDistributed(t, seqs, 3, k, m, Config{MaxKmersPerRound: 64})
	if statsB[0].Bloom.Rounds <= statsA[0].Bloom.Rounds {
		t.Fatalf("expected more rounds: %d vs %d", statsB[0].Bloom.Rounds, statsA[0].Bloom.Rounds)
	}
	if len(oneRound) != len(manyRounds) {
		t.Fatalf("round slicing changed results: %d vs %d", len(oneRound), len(manyRounds))
	}
	for km := range oneRound {
		if _, ok := manyRounds[km]; !ok {
			t.Fatalf("k-mer lost under streaming")
		}
	}
}

func TestEmptyInput(t *testing.T) {
	got, _ := buildDistributed(t, nil, 3, 17, 8, Config{})
	if len(got) != 0 {
		t.Errorf("empty input retained %d k-mers", len(got))
	}
}

func TestReadsShorterThanK(t *testing.T) {
	seqs := [][]byte{[]byte("ACGT"), []byte("GGG")}
	got, _ := buildDistributed(t, seqs, 2, 17, 8, Config{})
	if len(got) != 0 {
		t.Errorf("short reads retained %d k-mers", len(got))
	}
}

func TestOccurrenceCapAtMaxFreq(t *testing.T) {
	// Entries stop growing their occurrence lists past m+1 even though
	// counting continues (memory bound).
	rng := rand.New(rand.NewSource(6))
	motif := randReads(rng, 1, 30, 30)[0]
	var seqs [][]byte
	for i := 0; i < 20; i++ {
		seqs = append(seqs, append(append([]byte{}, randReads(rng, 1, 40, 60)[0]...), motif...))
	}
	recs := make([]*fastq.Record, len(seqs))
	for i, s := range seqs {
		recs[i] = &fastq.Record{Seq: s}
	}
	err := spmd.Run(1, func(c *spmd.Comm) error {
		local := LocalReads{IDStart: 0, Seqs: seqs}
		part := &Partition{}
		cfg := Config{K: 17, MaxFreq: 5}
		var stats BuildStats
		var e error
		part, stats, e = Build(c, nil, local, cfg)
		if e != nil {
			return e
		}
		_ = stats
		part.ForEach(func(km kmer.Kmer, occs []Occ) {
			if len(occs) > 5 {
				t.Errorf("occurrence list of length %d exceeds m", len(occs))
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuildWithModelProducesVirtualTime(t *testing.T) {
	ds, err := seqgen.Generate(seqgen.Config{
		GenomeLen: 8000, Seed: 7, Coverage: 12, MeanReadLen: 800,
		MinReadLen: 200, ErrorRate: 0.1, BothStrands: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := fastq.NewReadStore(ds.Reads, 4)
	mdl, err := machine.NewModel(machine.Cori, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = spmd.RunWithModel(4, mdl, func(c *spmd.Comm) error {
		_, stats, err := Build(c, mdl, localReadsOf(store, c.Rank()), Config{K: 17, MaxFreq: 10, ErrorRate: 0.1})
		if err != nil {
			return err
		}
		if stats.Bloom.LocalVirtual <= 0 || stats.Bloom.ExchangeVirtual <= 0 {
			return fmt.Errorf("bloom stage virtual times not recorded: %+v", stats.Bloom)
		}
		if stats.Hash.LocalVirtual <= 0 || stats.Hash.PackVirtual <= 0 {
			return fmt.Errorf("hash stage virtual times not recorded: %+v", stats.Hash)
		}
		if c.Now() <= 0 {
			return fmt.Errorf("virtual clock did not advance")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// naiveMinimizerRetained is naiveRetained over the minimizer stream.
func naiveMinimizerRetained(seqs [][]byte, k, w, maxFreq int) map[kmer.Kmer][]Occ {
	counts := make(map[kmer.Kmer][]Occ)
	for id, s := range seqs {
		for _, ex := range kmer.Minimizers(s, k, w, uint32(id)) {
			counts[ex.Kmer] = append(counts[ex.Kmer],
				MakeOcc(ex.Occ.ReadID, ex.Occ.Pos, ex.Occ.Forward))
		}
	}
	for km, occs := range counts {
		if len(occs) < 2 || len(occs) > maxFreq {
			delete(counts, km)
		}
	}
	return counts
}

func TestBuildWithMinimizersMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	template := randReads(rng, 1, 2500, 2500)[0]
	var seqs [][]byte
	for i := 0; i+400 <= len(template); i += 150 {
		seqs = append(seqs, template[i:i+400])
	}
	const k, w, m = 15, 8, 12
	want := naiveMinimizerRetained(seqs, k, w, m)
	if len(want) == 0 {
		t.Fatal("no retained minimizers in test data")
	}
	got, _ := buildDistributed(t, seqs, 3, k, m, Config{MinimizerWindow: w})
	if len(got) != len(want) {
		t.Fatalf("retained %d minimizer k-mers, want %d", len(got), len(want))
	}
	for km, wocc := range want {
		if len(got[km]) != len(wocc) {
			t.Fatalf("k-mer %q occurrence count %d, want %d",
				km.Bytes(k), len(got[km]), len(wocc))
		}
	}
	// Volume reduction sanity: the minimizer table is far smaller than the
	// full-k-mer table.
	full, _ := buildDistributed(t, seqs, 3, k, m, Config{})
	if len(got)*2 > len(full) {
		t.Errorf("minimizers retained %d of %d full k-mers", len(got), len(full))
	}
}

// TestMinimizerRoundCountMatchesStream checks that minimizer runs agree
// on the round count from the minimizer density, not the full k-mer bag:
// the old kmer.Count-based agreement scheduled ~(w+1)/2 empty all-to-all
// rounds per pass.
func TestMinimizerRoundCountMatchesStream(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	seqs := randReads(rng, 12, 900, 1400)
	const k, w, m = 15, 9, 12
	cfg := Config{MinimizerWindow: w, MaxKmersPerRound: 512}
	_, allStats := buildDistributed(t, seqs, 3, k, m, cfg)

	// The busiest rank's streamable minimizer count bounds the rounds
	// (recompute the byte-balanced block distribution buildDistributed's
	// read store uses).
	recs := make([]*fastq.Record, len(seqs))
	for i, s := range seqs {
		recs[i] = &fastq.Record{Name: fmt.Sprintf("r%d", i), Seq: s}
	}
	maxUnits := 0
	for _, rg := range fastq.PartitionByBytes(recs, 3) {
		units := 0
		for i := rg[0]; i < rg[1]; i++ {
			units += kmer.MinimizerCount(seqs[i], k, w)
		}
		if units > maxUnits {
			maxUnits = units
		}
	}
	wantRounds := (maxUnits + 511) / 512
	if wantRounds == 0 {
		t.Fatal("degenerate test data: no minimizers")
	}
	for r, st := range allStats {
		if st.Bloom.Rounds != wantRounds {
			t.Errorf("rank %d: %d bloom rounds, want %d (streamable minimizers, not full k-mer bag)",
				r, st.Bloom.Rounds, wantRounds)
		}
		if st.Hash.Rounds != wantRounds {
			t.Errorf("rank %d: %d hash rounds, want %d", r, st.Hash.Rounds, wantRounds)
		}
	}
}

// TestBuildAsyncMatchesSync checks the pipelined (non-blocking) round
// schedule constructs exactly the same partition as the bulk-synchronous
// one, and that exchange time is reported as overlapped.
func TestBuildAsyncMatchesSync(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seqs := randReads(rng, 16, 700, 1200)
	const k, m = 15, 20
	syncGot, _ := buildDistributed(t, seqs, 4, k, m, Config{MaxKmersPerRound: 1024})
	asyncGot, asyncStats := buildDistributed(t, seqs, 4, k, m, Config{MaxKmersPerRound: 1024, Async: true})
	if len(asyncGot) != len(syncGot) {
		t.Fatalf("async retained %d k-mers, sync %d", len(asyncGot), len(syncGot))
	}
	for km, wocc := range syncGot {
		gocc := asyncGot[km]
		if len(gocc) != len(wocc) {
			t.Fatalf("k-mer %q: async %d occurrences, sync %d", km.Bytes(k), len(gocc), len(wocc))
		}
		for i := range wocc {
			if gocc[i] != wocc[i] {
				t.Fatalf("k-mer %q occurrence %d differs: %+v vs %+v", km.Bytes(k), i, gocc[i], wocc[i])
			}
		}
	}
	overlapped := false
	for _, st := range asyncStats {
		if st.Bloom.OverlapWall > 0 || st.Hash.OverlapWall > 0 {
			overlapped = true
		}
	}
	if !overlapped {
		t.Error("async build reported no overlapped exchange time on any rank")
	}
}

func TestStageStatsTotals(t *testing.T) {
	s := StageStats{Breakdown: stats.Breakdown{PackVirtual: 1, LocalVirtual: 2, ExchangeVirtual: 3}}
	if s.TotalVirtual() != 6 {
		t.Errorf("TotalVirtual = %v", s.TotalVirtual())
	}
}

// sparseReads tiles a random genome with reads that overlap their
// neighbours by a tenth: most k-mers are singletons, as in a low-depth
// long-read sample, so the build's cost is its two exchanges.
func sparseReads(seed int64, genome int) [][]byte {
	template := randReads(rand.New(rand.NewSource(seed)), 1, genome, genome)[0]
	var seqs [][]byte
	for i := 0; i+2000 <= len(template); i += 1800 {
		seqs = append(seqs, template[i:i+2000])
	}
	return seqs
}

// buildCost is what a 2-rank Build allocated, process-wide, next to what it
// had reason to: the ring both passes exchange out of, what it keeps (the
// final partitions, and the Bloom filter it holds between the passes), and
// for scale what it shipped.
type buildCost struct {
	allocated, mallocs  int64
	ring, kept, shipped int64
	table               int64 // the partitions' share of kept
}

func buildAllocs(t *testing.T, seqs [][]byte, cfg Config) buildCost {
	t.Helper()
	store := fastq.NewReadStore(recordsOf(seqs), 2)
	locals := []LocalReads{localReadsOf(store, 0), localReadsOf(store, 1)}
	perRank := make([]buildCost, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := spmd.Run(2, func(c *spmd.Comm) error {
		part, st, err := Build(c, nil, locals[c.Rank()], cfg)
		if err == nil {
			perRank[c.Rank()] = buildCost{
				ring:    st.ExchangeMemBytes,
				kept:    part.MemBytes() + int64(st.BloomBits/8),
				table:   part.MemBytes(),
				shipped: st.Bloom.BytesPacked + st.Hash.BytesPacked,
			}
		}
		return err
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return buildCost{
		allocated: int64(after.TotalAlloc - before.TotalAlloc),
		mallocs:   int64(after.Mallocs - before.Mallocs),
		ring:      perRank[0].ring + perRank[1].ring,
		kept:      perRank[0].kept + perRank[1].kept,
		table:     perRank[0].table + perRank[1].table,
		shipped:   perRank[0].shipped + perRank[1].shipped,
	}
}

// TestBuildAllocationBudget is the noise-free form of the build's memory
// claim: both passes exchange out of one ring of 2·depth row sets and the
// table is three arrays, so a build allocates its ring, what it keeps and
// the arrays the table outgrew on the way (doubling: at most the final
// table's size again) in a few hundred objects however many rounds it runs. What it allocates therefore falls as the
// same data is cut into more, smaller rounds, and twice the data costs the
// growth of what is kept and nothing per k-mer shipped.
func TestBuildAllocationBudget(t *testing.T) {
	seqs := sparseReads(11, 800000) // seven default rounds a pass: the ring of four sets is full
	cfg := Config{K: 17, MaxFreq: 8, Async: true}
	base := buildAllocs(t, seqs, cfg)
	budget := base.ring + base.kept + base.table
	t.Logf("default round: allocated %d bytes in %d objects; ring %d + kept %d + outgrown <= %d (%.2fx), shipped %d",
		base.allocated, base.mallocs, base.ring, base.kept, base.table, float64(base.allocated)/float64(budget), base.shipped)
	if float64(base.allocated) > 1.05*float64(budget) {
		t.Errorf("build allocated %d bytes, budget 1.05 x (ring %d + kept %d + outgrown table %d)", base.allocated, base.ring, base.kept, base.table)
	}
	if base.mallocs > 500 {
		t.Errorf("build allocated %d objects, budget 500: something allocates per key or per round again", base.mallocs)
	}

	prev := buildAllocs(t, seqs, Config{K: 17, MaxFreq: 8, Async: true, MaxKmersPerRound: 1 << 20})
	t.Logf("one round: allocated %d bytes", prev.allocated)
	for _, rounds := range []int{4, 32} {
		cfg.MaxKmersPerRound = len(seqs) / 2 * 2000 / rounds
		sliced := buildAllocs(t, seqs, cfg)
		t.Logf("~%d rounds: allocated %d bytes in %d objects (ring %d)", rounds, sliced.allocated, sliced.mallocs, sliced.ring)
		if sliced.allocated >= prev.allocated {
			t.Errorf("~%d rounds allocated %d bytes, fewer rounds %d: allocation does not fall with the round size", rounds, sliced.allocated, prev.allocated)
		}
		if sliced.mallocs > base.mallocs+50 {
			t.Errorf("~%d rounds allocated %d objects, the default round %d: a round allocates", rounds, sliced.mallocs, base.mallocs)
		}
		prev = sliced
	}

	double := buildAllocs(t, sparseReads(11, 1600000), Config{K: 17, MaxFreq: 8, Async: true})
	grew := double.kept - base.kept
	t.Logf("twice the reads: allocated %d bytes (+%d), kept +%d, shipped +%d",
		double.allocated, double.allocated-base.allocated, grew, double.shipped-base.shipped)
	if double.ring != base.ring {
		t.Errorf("ring %d bytes for twice the reads, %d before: the ring follows the input", double.ring, base.ring)
	}
	if extra := double.allocated - base.allocated; float64(extra) > 2.5*float64(grew) {
		t.Errorf("twice the reads allocated %d more bytes for %d more kept: allocation follows the k-mer bag", extra, grew)
	}
}

// TestIndexFormAllocsIndependentOfKeys: forming a serve index
// (KeepSingletons: every distinct k-mer gets an entry) costs a number of
// allocations that does not follow the number of keys — the map it
// replaced paid two per key — nor, with twice the reads being twice the
// rounds, the number of rounds. Twice the reads, well under 1.2x the objects.
func TestIndexFormAllocsIndependentOfKeys(t *testing.T) {
	cfg := Config{K: 17, MaxFreq: 8, Async: true, KeepSingletons: true}
	small := buildAllocs(t, sparseReads(13, 200000), cfg).mallocs
	large := buildAllocs(t, sparseReads(13, 400000), cfg).mallocs
	t.Logf("mallocs: %d for 200 kb of reads, %d for 400 kb (%.2fx)", small, large, float64(large)/float64(small))
	if float64(large) >= 1.2*float64(small) {
		t.Errorf("twice the reads took %d allocations against %d: allocation count follows the key count", large, small)
	}
}

// TestBuildIndependentOfBloomFP is the written-down reason a change to the
// Bloom filter (its layout, its hash, its sizing) cannot reach the PAF: a
// false positive only ever admits a key whose count stays below 2, and the
// prune removes it. Filters from near-exact to one-in-three-wrong must
// leave identical partitions and differ only in how much the prune removed.
func TestBuildIndependentOfBloomFP(t *testing.T) {
	seqs := sparseReads(12, 60000)
	for _, p := range []int{1, 2, 4} {
		var want map[kmer.Kmer][]Occ
		pruned := map[int]bool{}
		for _, fp := range []float64{0.001, 0.01, 0.3} {
			got, stats := buildDistributed(t, seqs, p, 17, 8, Config{BloomFP: fp})
			n := 0
			for _, st := range stats {
				n += st.PrunedSingleton
			}
			pruned[n] = true
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("p=%d: BloomFP %v changed the retained partition", p, fp)
			}
		}
		if len(want) == 0 || len(pruned) != 3 {
			t.Errorf("p=%d: %d retained k-mers; pruned-singleton counts %v should differ per FP rate", p, len(want), pruned)
		}
	}
}
