package overlap

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"dibella/internal/dht"
	"dibella/internal/fastq"
	"dibella/internal/kmer"
	"dibella/internal/spmd"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{K: 0},
		{K: 17, MinDist: -1},
		{K: 17, MaxSeeds: -2},
	}
	for i, cfg := range bad {
		c := cfg
		if err := (&c).setDefaults(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	good := Config{K: 17}
	if err := (&good).setDefaults(); err != nil || good.MinDist != 1000 {
		t.Errorf("defaults: %+v err=%v", good, err)
	}
}

func TestSeedSameStrand(t *testing.T) {
	if !(Seed{FwdA: true, FwdB: true}).SameStrand() {
		t.Error("ff should be same strand")
	}
	if (Seed{FwdA: true, FwdB: false}).SameStrand() {
		t.Error("fr should not be same strand")
	}
}

func TestTaskOwnerMatchesAlgorithm1(t *testing.T) {
	owner := func(r uint32) int { return int(r) } // identity for inspection
	cases := []struct {
		ra, rb uint32
		want   int
	}{
		// ra even and ra > rb+1 -> owner(ra)
		{4, 1, 4},
		// ra even but ra <= rb+1 -> owner(rb)
		{4, 3, 3},
		{4, 9, 9},
		// ra odd and ra < rb+1 -> owner(ra)
		{3, 7, 3},
		{3, 3 - 1 + 1, 3}, // ra < rb+1 with rb=3: 3 < 4 -> owner(ra)
		// ra odd and ra >= rb+1 -> owner(rb)
		{7, 2, 2},
	}
	for _, c := range cases {
		if got := oddEvenOwner(c.ra, c.rb, owner); got != c.want {
			t.Errorf("oddEvenOwner(%d,%d) = %d, want %d", c.ra, c.rb, got, c.want)
		}
	}
}

// Property: the chosen owner always owns one of the two reads.
func TestTaskOwnerLocality(t *testing.T) {
	f := func(ra, rb uint32, pRaw uint8) bool {
		p := int(pRaw)%8 + 1
		owner := func(r uint32) int { return int(r) % p }
		got := oddEvenOwner(ra, rb, owner)
		return got == owner(ra) || got == owner(rb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTaskOwnerBalance(t *testing.T) {
	// For uniformly random pairs, the heuristic should route a near-equal
	// number of tasks to each rank.
	const p = 8
	const n = 40000
	owner := func(r uint32) int { return int(r) % p }
	counts := make([]int, p)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		ra, rb := rng.Uint32()%100000, rng.Uint32()%100000
		if ra == rb {
			continue
		}
		counts[oddEvenOwner(ra, rb, owner)]++
	}
	for r, c := range counts {
		frac := float64(c) * p / n
		if frac < 0.85 || frac > 1.15 {
			t.Errorf("rank %d receives %.2fx its fair share", r, frac)
		}
	}
}

func TestNormalize(t *testing.T) {
	msg := PairMsg{RA: 9, RB: 3,
		PFA: dht.MakeOcc(9, 100, true).PosFlag,
		PFB: dht.MakeOcc(3, 50, false).PosFlag}
	pair, seed := normalize(msg)
	if pair.A != 3 || pair.B != 9 {
		t.Errorf("pair = %+v", pair)
	}
	if seed.PosA != 50 || seed.PosB != 100 || seed.FwdA || !seed.FwdB {
		t.Errorf("seed = %+v", seed)
	}
}

func TestFilterSeedsOneSeed(t *testing.T) {
	seeds := []Seed{{PosA: 500}, {PosA: 10}, {PosA: 100}}
	kept := FilterSeeds(seeds, Config{K: 17, Mode: OneSeed})
	if len(kept) != 1 || kept[0].PosA != 10 {
		t.Errorf("kept = %+v", kept)
	}
}

func TestFilterSeedsMinDistance(t *testing.T) {
	seeds := []Seed{
		{PosA: 0}, {PosA: 400}, {PosA: 999}, {PosA: 1000}, {PosA: 2500},
	}
	kept := FilterSeeds(seeds, Config{K: 17, Mode: MinDistance, MinDist: 1000})
	want := []uint32{0, 1000, 2500}
	if len(kept) != len(want) {
		t.Fatalf("kept %d seeds: %+v", len(kept), kept)
	}
	for i, w := range want {
		if kept[i].PosA != w {
			t.Errorf("kept[%d].PosA = %d, want %d", i, kept[i].PosA, w)
		}
	}
}

func TestFilterSeedsAllSeeds(t *testing.T) {
	seeds := []Seed{
		{PosA: 0}, {PosA: 5}, {PosA: 17}, {PosA: 30}, {PosA: 46},
	}
	kept := FilterSeeds(seeds, Config{K: 17, Mode: AllSeeds})
	want := []uint32{0, 17, 46}
	if len(kept) != len(want) {
		t.Fatalf("kept %d seeds: %+v", len(kept), kept)
	}
	for i, w := range want {
		if kept[i].PosA != w {
			t.Errorf("kept[%d].PosA = %d, want %d", i, kept[i].PosA, w)
		}
	}
}

func TestFilterSeedsMaxSeedsCap(t *testing.T) {
	var seeds []Seed
	for i := 0; i < 100; i++ {
		seeds = append(seeds, Seed{PosA: uint32(i * 2000)})
	}
	kept := FilterSeeds(seeds, Config{K: 17, Mode: MinDistance, MinDist: 1000, MaxSeeds: 5})
	if len(kept) != 5 {
		t.Errorf("cap ignored: kept %d", len(kept))
	}
	if FilterSeeds(nil, Config{K: 17}) != nil {
		t.Error("empty seeds should filter to nil")
	}
}

// Property: filtered seeds are sorted, respect spacing, and form a subset
// of the input.
func TestFilterSeedsInvariants(t *testing.T) {
	f := func(raw []uint16, mode uint8) bool {
		cfg := Config{K: 17, MinDist: 300, Mode: SeedMode(mode % 3)}
		seeds := make([]Seed, len(raw))
		inSet := make(map[uint32]bool)
		for i, r := range raw {
			seeds[i] = Seed{PosA: uint32(r), PosB: uint32(r) + 7}
			inSet[uint32(r)] = true
		}
		kept := FilterSeeds(seeds, cfg)
		if len(seeds) == 0 {
			return kept == nil
		}
		if len(kept) == 0 {
			return false
		}
		var dist uint32
		switch cfg.Mode {
		case OneSeed:
			return len(kept) == 1 && inSet[kept[0].PosA]
		case MinDistance:
			dist = 300
		case AllSeeds:
			dist = 17
		}
		for i, s := range kept {
			if !inSet[s.PosA] {
				return false
			}
			if i > 0 && s.PosA-kept[i-1].PosA < dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// buildTasks runs the dht + overlap stages over p ranks and returns all
// tasks merged, with the per-rank counts.
func buildTasks(t *testing.T, seqs [][]byte, p int, cfg Config) ([]Task, []Stats) {
	t.Helper()
	return buildTasksWith(t, seqs, p, cfg, 50)
}

// buildTasksWith is buildTasks with an explicit frequency cutoff.
func buildTasksWith(t *testing.T, seqs [][]byte, p int, cfg Config, maxFreq int) ([]Task, []Stats) {
	t.Helper()
	recs := make([]*fastq.Record, len(seqs))
	for i, s := range seqs {
		recs[i] = &fastq.Record{Name: fmt.Sprintf("r%d", i), Seq: s}
	}
	store := fastq.NewReadStore(recs, p)
	var mu sync.Mutex
	var all []Task
	allStats := make([]Stats, p)
	err := spmd.Run(p, func(c *spmd.Comm) error {
		start, end := store.LocalIDs(c.Rank())
		local := dht.LocalReads{IDStart: start}
		for id := start; id < end; id++ {
			local.Seqs = append(local.Seqs, store.Seq(id))
		}
		part, _, err := dht.Build(c, nil, local, dht.Config{K: cfg.K, MaxFreq: maxFreq})
		if err != nil {
			return err
		}
		tasks, st, err := Run(c, nil, part, store.Owner, cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		all = append(all, tasks...)
		allStats[c.Rank()] = st
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return all, allStats
}

// naivePairs computes the expected pair set sequentially: all read pairs
// sharing at least one retained k-mer.
func naivePairs(seqs [][]byte, k, maxFreq int) map[Pair]bool {
	occs := make(map[kmer.Kmer][]uint32)
	for id, s := range seqs {
		for _, ex := range kmer.ExtractAll(s, k, uint32(id)) {
			occs[ex.Kmer] = append(occs[ex.Kmer], ex.Occ.ReadID)
		}
	}
	pairs := make(map[Pair]bool)
	for _, reads := range occs {
		if len(reads) < 2 || len(reads) > maxFreq {
			continue
		}
		for i := 0; i < len(reads); i++ {
			for j := i + 1; j < len(reads); j++ {
				a, b := reads[i], reads[j]
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				pairs[Pair{a, b}] = true
			}
		}
	}
	return pairs
}

func overlappingReads(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	template := make([]byte, 4000)
	for i := range template {
		template[i] = "ACGT"[rng.Intn(4)]
	}
	var seqs [][]byte
	for i := 0; i+600 <= len(template); i += 250 {
		seqs = append(seqs, template[i:i+600])
	}
	return seqs
}

func TestOverlapMatchesNaive(t *testing.T) {
	seqs := overlappingReads(1)
	const k = 17
	want := naivePairs(seqs, k, 50)
	if len(want) == 0 {
		t.Fatal("no expected pairs")
	}
	// Neither the world size (where odd/even places a task) nor the seed
	// mode changes which pairs are discovered.
	for _, mode := range []SeedMode{AllSeeds, OneSeed} {
		for _, p := range []int{1, 2, 4} {
			tasks, _ := buildTasks(t, seqs, p, Config{K: k, Mode: mode})
			got := make(map[Pair]bool)
			for _, task := range tasks {
				if got[task.Pair] {
					t.Fatalf("mode=%d p=%d: pair %+v consolidated on two ranks", mode, p, task.Pair)
				}
				got[task.Pair] = true
				if len(task.Seeds) == 0 {
					t.Fatalf("mode=%d p=%d: pair %+v has no seeds", mode, p, task.Pair)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("mode=%d p=%d: %d pairs, want %d", mode, p, len(got), len(want))
			}
			for pr := range want {
				if !got[pr] {
					t.Fatalf("mode=%d p=%d: missing pair %+v", mode, p, pr)
				}
			}
		}
	}
}

func TestOneSeedYieldsSingleSeedTasks(t *testing.T) {
	seqs := overlappingReads(2)
	tasks, st := buildTasks(t, seqs, 3, Config{K: 17, Mode: OneSeed})
	if len(tasks) == 0 {
		t.Fatal("no tasks")
	}
	for _, task := range tasks {
		if len(task.Seeds) != 1 {
			t.Fatalf("one-seed task has %d seeds", len(task.Seeds))
		}
	}
	var kept, dropped int64
	for _, s := range st {
		kept += s.SeedsKept
		dropped += s.SeedsDropped
	}
	if kept != int64(len(tasks)) {
		t.Errorf("SeedsKept=%d, tasks=%d", kept, len(tasks))
	}
	if dropped == 0 {
		t.Error("adjacent shared k-mers should have been dropped")
	}
}

func TestSeedModesOrdering(t *testing.T) {
	// More permissive modes keep at least as many seeds.
	seqs := overlappingReads(3)
	count := func(mode SeedMode, minDist int) int64 {
		_, st := buildTasks(t, seqs, 2, Config{K: 17, Mode: mode, MinDist: minDist})
		var kept int64
		for _, s := range st {
			kept += s.SeedsKept
		}
		return kept
	}
	one := count(OneSeed, 0)
	dist := count(MinDistance, 300)
	all := count(AllSeeds, 0)
	if !(one <= dist && dist <= all) {
		t.Errorf("seed counts not ordered: one=%d dist=%d all=%d", one, dist, all)
	}
	if one == all {
		t.Error("expected AllSeeds to keep more seeds than OneSeed on dense overlaps")
	}
}

func TestTasksSortedDeterministically(t *testing.T) {
	seqs := overlappingReads(4)
	for trial := 0; trial < 2; trial++ {
		tasks, _ := buildTasks(t, seqs, 4, Config{K: 17, Mode: OneSeed})
		for i := 1; i < len(tasks); i++ {
			a, b := tasks[i-1].Pair, tasks[i].Pair
			if a.A > b.A || (a.A == b.A && a.B >= b.B) {
				// Tasks from different ranks were merged; only per-rank
				// order is guaranteed. Check per-rank monotonicity is not
				// possible after the merge, so just check pairs are unique.
				seen := make(map[Pair]bool)
				for _, task := range tasks {
					if seen[task.Pair] {
						t.Fatal("duplicate pair across ranks")
					}
					seen[task.Pair] = true
				}
				return
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	seqs := overlappingReads(5)
	_, st := buildTasks(t, seqs, 2, Config{K: 17, Mode: AllSeeds})
	var generated, received int64
	for _, s := range st {
		generated += s.PairsGenerated
		received += s.TasksReceived
	}
	if generated == 0 {
		t.Fatal("no pairs generated")
	}
	if generated != received {
		t.Errorf("generated %d != received %d", generated, received)
	}
}
