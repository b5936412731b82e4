// Package overlap implements diBELLA's overlap stage (§8, Algorithm 1):
// from each hash-table partition, enumerate all pairs of reads that share a
// retained k-mer, route each resulting alignment task to the owner of one
// of the pair's reads via the paper's odd/even heuristic (maximizing
// locality for the alignment stage), and consolidate per-pair shared-seed
// lists on the receiving side.
//
// Consolidation is a grouping by the tree's one grouping sort, RadixSort,
// which the serve-mode query probe and the DALIGNER baseline share: one
// record a pair message, keyed by the pair, sorted once; a run is a task.
//
// After consolidation the seed lists are filtered by the paper's
// "exploration" parameters: exactly one seed per pair (the one-seed
// minimum-intensity configuration), all seeds separated by at least a
// minimum distance (1 Kbp in the paper's intermediate configuration), or
// all seeds separated by at least k (the maximum, d=k).
package overlap

import (
	"cmp"
	"fmt"
	"slices"

	"dibella/internal/dht"
	"dibella/internal/kmer"
	"dibella/internal/machine"
	"dibella/internal/spmd"
	"dibella/internal/stats"
	"dibella/internal/walltime"
)

// Pair identifies an unordered read pair, stored with A < B.
type Pair struct {
	A, B uint32
}

// Seed is one shared k-mer between the two reads of a pair: the k-mer's
// position in each read and, per read, whether the canonical k-mer matched
// the read's forward strand.
type Seed struct {
	PosA, PosB uint32
	FwdA, FwdB bool
}

// SameStrand reports whether the two reads see the seed in the same
// orientation (true: forward-forward alignment; false: read B must be
// reverse-complemented).
func (s Seed) SameStrand() bool { return s.FwdA == s.FwdB }

// Task is one consolidated alignment task: a read pair and its filtered
// seed list.
type Task struct {
	Pair  Pair
	Seeds []Seed
}

// SeedMode selects the seed-exploration constraint (§8, §9).
type SeedMode int

// Seed exploration modes.
const (
	// OneSeed aligns exactly one seed per pair (the paper's
	// minimum-computational-intensity configuration).
	OneSeed SeedMode = iota
	// MinDistance aligns all seeds pairwise separated by at least MinDist
	// bases (the paper uses 1000).
	MinDistance
	// AllSeeds aligns all seeds separated by at least k bases (d=k).
	AllSeeds
)

// Config controls the overlap stage.
type Config struct {
	K       int
	Mode    SeedMode
	MinDist int // used by MinDistance (default 1000)
}

func (cfg *Config) setDefaults() error {
	if cfg.K <= 0 {
		return fmt.Errorf("overlap: k %d must be positive", cfg.K)
	}
	if cfg.MinDist == 0 {
		cfg.MinDist = 1000
	}
	if cfg.MinDist < 0 {
		return fmt.Errorf("overlap: min seed distance %d must be non-negative", cfg.MinDist)
	}
	return nil
}

// Stats is the overlap stage's per-rank accounting.
type Stats struct {
	RetainedScanned int64 // retained k-mers traversed (Fig. 6's rate unit)
	PairsGenerated  int64 // tasks emitted by Algorithm 1 on this rank
	TasksReceived   int64 // tasks arriving after the exchange
	Pairs           int64 // distinct read pairs after consolidation
	SeedsKept       int64
	SeedsDropped    int64
	BytesPacked     int64
	stats.Breakdown
}

// OwnerFunc maps a global read ID to its owning rank (the read-store block
// distribution).
type OwnerFunc func(read uint32) int

// PairMsg is the wire record for one discovered pair: 16 bytes. Exported
// for the serve-mode query path, which generates the same records against
// the resident partition and consolidates them with Consolidate.
type PairMsg struct {
	RA, RB   uint32
	PFA, PFB uint32 // packed position+orientation, as in dht.Occ
}

// Run executes the overlap stage collectively and returns this rank's
// consolidated alignment tasks, sorted by (A, B) for determinism.
func Run(c *spmd.Comm, model *machine.Model, part *dht.Partition, owner OwnerFunc, cfg Config) ([]Task, Stats, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, Stats{}, err
	}
	st := Stats{}

	// Algorithm 1: enumerate occurrence pairs per retained k-mer and
	// buffer each task for the owner chosen by the odd/even heuristic.
	t0 := walltime.Now()
	send := make([][]PairMsg, c.Size())
	part.ForEach(func(_ kmer.Kmer, occs []dht.Occ) {
		st.RetainedScanned++
		for i := 0; i < len(occs); i++ {
			for j := i + 1; j < len(occs); j++ {
				ra, rb := occs[i].Read, occs[j].Read
				pfa, pfb := occs[i].PosFlag, occs[j].PosFlag
				if ra == rb {
					continue // a repeat within one read is not an overlap
				}
				// Canonicalize the pair before choosing an owner:
				// occurrence lists arrive in exchange order, so the same
				// unordered pair can surface as (a,b) via one k-mer and
				// (b,a) via another; without normalization the two copies
				// would route to different owners and the pair would be
				// consolidated (and aligned) twice.
				if ra > rb {
					ra, rb = rb, ra
					pfa, pfb = pfb, pfa
				}
				dst := oddEvenOwner(ra, rb, owner)
				send[dst] = append(send[dst], PairMsg{
					RA: ra, RB: rb, PFA: pfa, PFB: pfb,
				})
				st.PairsGenerated++
			}
		}
	})
	st.LocalVirtual += stats.Price(c, model, float64(st.RetainedScanned), machine.RateOverlapScan, 0) +
		stats.Price(c, model, float64(st.PairsGenerated), machine.RatePairGen, 0)
	st.LocalWall += walltime.Since(t0)

	t0 = walltime.Now()
	st.BytesPacked = st.PairsGenerated * 16
	st.PackVirtual += stats.Price(c, model, float64(st.BytesPacked), machine.RatePack, 0)
	st.PackWall += walltime.Since(t0)

	// Irregular all-to-all of buffered tasks.
	pre := c.Stats()
	recv := spmd.Alltoallv(c, send)
	st.AddComm(pre, c.Stats())

	// Consolidate per-pair seed lists, filter, and emit deterministic
	// task order.
	t0 = walltime.Now()
	tasks := consolidate(recv, cfg, &st)
	st.LocalVirtual += stats.Price(c, model, float64(st.TasksReceived), machine.RatePairGen, 0) +
		stats.Price(c, model, float64(st.TasksReceived), machine.RateSeedPrep, 0)
	st.LocalWall += walltime.Since(t0)
	return tasks, st, nil
}

// consolidate merges received pair messages into per-pair seed lists,
// applies the exploration filter, and returns the tasks in (A, B) order,
// accumulating counts into st. Each message becomes one record — the
// normalized pair A<<32|B its key, the seed's packed positions PFA<<32|PFB
// its value — and each batch is dropped once copied. One RadixSort later a
// run of one key is one task, its seeds in arrival order (the sort is
// stable; FilterSeeds depends only on the seed set anyway), and the runs
// come in taskOrder.
func consolidate(batches [][]PairMsg, cfg Config, st *Stats) []Task {
	n := 0
	for _, batch := range batches {
		n += len(batch)
	}
	recs := make([]KeyVal, 0, n)
	for i, batch := range batches {
		for _, m := range batch {
			if m.RA > m.RB {
				m.RA, m.RB, m.PFA, m.PFB = m.RB, m.RA, m.PFB, m.PFA
			}
			recs = append(recs, KeyVal{Key: uint64(m.RA)<<32 | uint64(m.RB), Val: uint64(m.PFA)<<32 | uint64(m.PFB)})
		}
		batches[i] = nil
	}
	recs, _ = RadixSort(recs, nil)
	var tasks []Task
	var seeds []Seed
	for run := range Runs(recs) {
		seeds = seeds[:0]
		for _, r := range run {
			a, b := dht.Occ{PosFlag: uint32(r.Val >> 32)}, dht.Occ{PosFlag: uint32(r.Val)}
			seeds = append(seeds, Seed{PosA: a.Pos(), PosB: b.Pos(), FwdA: a.Forward(), FwdB: b.Forward()})
		}
		kept := FilterSeeds(seeds, cfg)
		st.SeedsKept += int64(len(kept))
		tasks = append(tasks, Task{Pair: Pair{A: uint32(run[0].Key >> 32), B: uint32(run[0].Key)}, Seeds: kept})
	}
	st.TasksReceived += int64(len(recs))
	st.Pairs += int64(len(tasks))
	st.SeedsDropped = st.TasksReceived - st.SeedsKept
	return tasks
}

// taskOrder orders tasks by read pair, A then B. Each pair has one task, so
// the order is total and any sort gives the same list.
func taskOrder(a, b Task) int {
	return cmp.Or(cmp.Compare(a.Pair.A, b.Pair.A), cmp.Compare(a.Pair.B, b.Pair.B))
}

// Consolidate is the exported consolidation entry point for the
// serve-mode query path: each rank feeds the pair messages it received
// from every partition owner — the pairs whose indexed read it owns, plus
// its share of the batch's query×query pairs — through the same
// sort/walk/filter the batch overlap stage uses, so the served task lists
// together are bit-for-bit the batch task list restricted to
// query-involving pairs. Like consolidate it drops each batch of batches
// once copied. Returns the tasks, in (A, B) order, and the per-batch
// counts.
func Consolidate(batches [][]PairMsg, cfg Config) ([]Task, Stats, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	return consolidate(batches, cfg, &st), st, nil
}

// oddEvenOwner is Algorithm 1's odd/even heuristic: alternate which member
// of the pair hosts the task based on the parity of ra, so that for
// uniformly distributed read IDs each rank receives a near-equal task
// count while every task is local to one of its reads.
func oddEvenOwner(ra, rb uint32, owner OwnerFunc) int {
	switch {
	case ra%2 == 0 && ra > rb+1:
		return owner(ra)
	case ra%2 != 0 && ra < rb+1:
		return owner(ra)
	default:
		return owner(rb)
	}
}

// FilterSeeds applies the exploration constraint to a pair's seed list and
// returns the kept seeds sorted by (PosA, PosB) in a fresh slice. The input
// order is irrelevant.
func FilterSeeds(seeds []Seed, cfg Config) []Seed {
	if len(seeds) == 0 {
		return nil
	}
	var minDist uint32
	switch cfg.Mode {
	case OneSeed:
		// (PosA, PosB) fixes the seed's flags, so the minimum is unique.
		best := seeds[0]
		for _, s := range seeds[1:] {
			if s.PosA < best.PosA || s.PosA == best.PosA && s.PosB < best.PosB {
				best = s
			}
		}
		return []Seed{best}
	case MinDistance:
		minDist = uint32(cfg.MinDist)
	case AllSeeds:
		minDist = uint32(cfg.K)
	default:
		panic(fmt.Sprintf("overlap: unknown seed mode %d", cfg.Mode))
	}
	sorted := slices.Clone(seeds)
	slices.SortFunc(sorted, func(a, b Seed) int {
		return cmp.Or(cmp.Compare(a.PosA, b.PosA), cmp.Compare(a.PosB, b.PosB))
	})
	kept := sorted[:1]
	for _, s := range sorted[1:] {
		if s.PosA-kept[len(kept)-1].PosA >= minDist {
			kept = append(kept, s)
		}
	}
	return kept
}
