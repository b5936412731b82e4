// Package daligner implements a single-node, sort-based long-read
// overlapper in the style of DALIGNER (Myers 2014), the comparator of the
// paper's Table 2.
//
// Where diBELLA hashes k-mers into a distributed table, DALIGNER sorts
// (k-mer, read, position) tuples and merge-scans runs of equal k-mers to
// find read pairs with common seeds. This reproduction follows that
// structure — tuple extraction, an LSD radix sort on the packed k-mer, a
// run scan with the same [2, m] frequency filter, seed consolidation — and
// then reuses the identical x-drop kernel, so the Table 2 comparison
// isolates the candidate-discovery strategy exactly as the paper intends.
//
// The paper notes DALIGNER reaches beyond-single-node scale only through
// script-generated block decomposition with heavy re-reading of blocks;
// Blocks > 1 emulates that mode: the tuple set is split into B blocks and
// every block pair is scanned independently, trading memory for repeated
// passes.
package daligner

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dibella/internal/align"
	"dibella/internal/dht"
	"dibella/internal/dna"
	"dibella/internal/fastq"
	"dibella/internal/kmer"
	"dibella/internal/overlap"
)

// Config controls a baseline run.
type Config struct {
	K        int
	MaxFreq  int // frequency filter upper bound (as diBELLA's m)
	SeedMode overlap.SeedMode
	MinDist  int
	MaxSeeds int
	XDrop    int
	Scoring  align.Scoring
	Threads  int // alignment workers (default: GOMAXPROCS)
	Blocks   int // >1 emulates DALIGNER's block decomposition
	// MinAlignScore filters output records.
	MinAlignScore int
}

func (cfg *Config) setDefaults() error {
	if !kmer.ValidK(cfg.K) {
		return fmt.Errorf("daligner: invalid k %d", cfg.K)
	}
	if cfg.MaxFreq < 2 {
		return fmt.Errorf("daligner: max frequency %d must be >= 2", cfg.MaxFreq)
	}
	if cfg.XDrop == 0 {
		cfg.XDrop = 7
	}
	if cfg.Scoring == (align.Scoring{}) {
		cfg.Scoring = align.DefaultScoring
	}
	if err := cfg.Scoring.Validate(); err != nil {
		return err
	}
	if cfg.Threads <= 0 {
		cfg.Threads = runtime.GOMAXPROCS(0)
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = 1
	}
	if cfg.MinDist == 0 {
		cfg.MinDist = 1000
	}
	return nil
}

// Overlap is one computed alignment record.
type Overlap struct {
	A, B         uint32
	Strand       byte
	Score        int
	AStart, AEnd int
	BStart, BEnd int
	Cells        int64
}

// Result reports the run with DALIGNER's phase structure.
type Result struct {
	Tuples     int64
	Pairs      int64
	Alignments int64
	Cells      int64
	Records    []Overlap

	ExtractTime time.Duration
	SortTime    time.Duration
	ScanTime    time.Duration
	AlignTime   time.Duration
}

// Total returns the end-to-end runtime (excluding I/O, as Table 2 does).
func (r *Result) Total() time.Duration {
	return r.ExtractTime + r.SortTime + r.ScanTime + r.AlignTime
}

type tuple struct {
	km  kmer.Kmer
	occ dht.Occ
}

// Run executes the baseline on a read set.
func Run(reads []*fastq.Record, cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	res := &Result{}

	// Phase 1: tuple extraction (canonical k-mers, as diBELLA).
	t0 := time.Now()
	var tuples []tuple
	for id, rec := range reads {
		sc := kmer.NewScanner(rec.Seq, cfg.K, uint32(id))
		for {
			ex, ok := sc.Next()
			if !ok {
				break
			}
			tuples = append(tuples, tuple{
				km:  ex.Kmer,
				occ: dht.MakeOcc(ex.Occ.ReadID, ex.Occ.Pos, ex.Occ.Forward),
			})
		}
	}
	res.Tuples = int64(len(tuples))
	res.ExtractTime = time.Since(t0)

	// Phase 2+3: sort and merge-scan, per block pair when emulating the
	// block mode.
	byPair := make(map[overlap.Pair][]overlap.Seed)
	if cfg.Blocks == 1 {
		t0 = time.Now()
		radixSort(tuples)
		res.SortTime = time.Since(t0)
		t0 = time.Now()
		scanRuns(tuples, cfg, byPair)
		res.ScanTime = time.Since(t0)
	} else {
		blocks := splitBlocks(tuples, cfg.Blocks)
		for i := range blocks {
			// Each block is re-sorted for every pairing, mirroring the
			// re-reading cost of DALIGNER's scripted distribution.
			for j := i; j < len(blocks); j++ {
				t0 = time.Now()
				merged := make([]tuple, 0, len(blocks[i])+len(blocks[j]))
				merged = append(merged, blocks[i]...)
				if j != i {
					merged = append(merged, blocks[j]...)
				}
				radixSort(merged)
				res.SortTime += time.Since(t0)
				t0 = time.Now()
				scanRuns(merged, cfg, byPair)
				res.ScanTime += time.Since(t0)
			}
		}
	}
	res.Pairs = int64(len(byPair))

	// Phase 4: seed filtering + parallel alignment with the same kernel.
	t0 = time.Now()
	res.Records, res.Alignments, res.Cells = alignAll(reads, byPair, cfg)
	res.AlignTime = time.Since(t0)
	return res, nil
}

// splitBlocks partitions tuples round-robin by read ID to mimic
// DALIGNER's database blocks.
func splitBlocks(tuples []tuple, b int) [][]tuple {
	out := make([][]tuple, b)
	for _, t := range tuples {
		i := int(t.occ.Read) % b
		out[i] = append(out[i], t)
	}
	return out
}

// scanRuns walks sorted tuples, emitting all pairs within each k-mer run
// that passes the [2, MaxFreq] filter. Duplicate seeds from block-pair
// rescans are deduplicated by the pair map's seed identity.
func scanRuns(sorted []tuple, cfg Config, byPair map[overlap.Pair][]overlap.Seed) {
	i := 0
	for i < len(sorted) {
		j := i + 1
		for j < len(sorted) && sorted[j].km == sorted[i].km {
			j++
		}
		run := sorted[i:j]
		if len(run) >= 2 && len(run) <= cfg.MaxFreq {
			for a := 0; a < len(run); a++ {
				for b := a + 1; b < len(run); b++ {
					oa, ob := run[a].occ, run[b].occ
					if oa.Read == ob.Read {
						continue
					}
					if oa.Read > ob.Read {
						oa, ob = ob, oa
					}
					pair := overlap.Pair{A: oa.Read, B: ob.Read}
					seed := overlap.Seed{
						PosA: oa.Pos(), PosB: ob.Pos(),
						FwdA: oa.Forward(), FwdB: ob.Forward(),
					}
					if !containsSeed(byPair[pair], seed) {
						byPair[pair] = append(byPair[pair], seed)
					}
				}
			}
		}
		i = j
	}
}

// containsSeed reports seed-identity duplicates (possible only in block
// mode, where a run may be rescanned).
func containsSeed(seeds []overlap.Seed, s overlap.Seed) bool {
	for _, x := range seeds {
		if x == s {
			return true
		}
	}
	return false
}

// alignAll filters seeds and computes every alignment with a worker pool.
func alignAll(reads []*fastq.Record, byPair map[overlap.Pair][]overlap.Seed, cfg Config) ([]Overlap, int64, int64) {
	type task struct {
		pair  overlap.Pair
		seeds []overlap.Seed
	}
	tasks := make([]task, 0, len(byPair))
	ocfg := overlap.Config{K: cfg.K, Mode: cfg.SeedMode, MinDist: cfg.MinDist, MaxSeeds: cfg.MaxSeeds}
	for pair, seeds := range byPair {
		tasks = append(tasks, task{pair: pair, seeds: overlap.FilterSeeds(seeds, ocfg)})
	}
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].pair.A != tasks[j].pair.A {
			return tasks[i].pair.A < tasks[j].pair.A
		}
		return tasks[i].pair.B < tasks[j].pair.B
	})

	results := make([][]Overlap, len(tasks))
	cells := make([]int64, cfg.Threads)
	aligns := make([]int64, cfg.Threads)
	var wg sync.WaitGroup
	next := make(chan int, len(tasks))
	for i := range tasks {
		next <- i
	}
	close(next)
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for idx := range next {
				tk := tasks[idx]
				seqA := reads[tk.pair.A].Seq
				seqB := reads[tk.pair.B].Seq
				var rcB []byte
				for _, seed := range tk.seeds {
					posA, posB := int(seed.PosA), int(seed.PosB)
					strand := byte('+')
					tgt := seqB
					if !seed.SameStrand() {
						if rcB == nil {
							rcB = dna.ReverseComplement(seqB)
						}
						tgt = rcB
						posB = len(seqB) - cfg.K - posB
						strand = '-'
					}
					if posA < 0 || posB < 0 || posA+cfg.K > len(seqA) || posB+cfg.K > len(tgt) {
						continue
					}
					r := align.XDrop(seqA, tgt, posA, posB, cfg.K, cfg.Scoring, cfg.XDrop)
					aligns[worker]++
					cells[worker] += r.Cells
					if r.Score < cfg.MinAlignScore {
						continue
					}
					o := Overlap{
						A: tk.pair.A, B: tk.pair.B, Strand: strand,
						Score: r.Score, Cells: r.Cells,
						AStart: r.SStart, AEnd: r.SEnd,
					}
					if strand == '+' {
						o.BStart, o.BEnd = r.TStart, r.TEnd
					} else {
						o.BStart, o.BEnd = len(seqB)-r.TEnd, len(seqB)-r.TStart
					}
					results[idx] = append(results[idx], o)
				}
			}
		}(w)
	}
	wg.Wait()

	var out []Overlap
	var totalAligns, totalCells int64
	for _, rs := range results {
		out = append(out, rs...)
	}
	for w := 0; w < cfg.Threads; w++ {
		totalAligns += aligns[w]
		totalCells += cells[w]
	}
	return out, totalAligns, totalCells
}
