package pipeline

import (
	"context"
	"fmt"
	"sort"

	"dibella/internal/dht"
	"dibella/internal/kmer"
	"dibella/internal/machine"
	"dibella/internal/overlap"
	"dibella/internal/paf"
	"dibella/internal/spmd"
	"dibella/internal/stats"
	"dibella/internal/trace"
	"dibella/internal/walltime"
)

// QueryRead is one read of a served query batch. Query reads take the
// virtual IDs base, base+1, ... (base = the store's read count), exactly
// the IDs they would hold appended to the indexed input — which is what
// makes a served batch comparable byte-for-byte against a batch-mode run
// over the concatenated read set.
type QueryRead struct {
	Name string
	Seq  []byte
}

// QueryStats accumulates the query path's per-rank accounting across
// every batch a world has served.
type QueryStats struct {
	Batches     int64 // batches served (collectively identical)
	KmersRouted int64 // query k-mer occurrences this rank routed
	PairsMade   int64 // query-involving pair messages this rank generated
	Tasks       int64 // consolidated tasks this rank aligned
	Alignments  int64 // x-drop extensions this rank executed
	stats.Breakdown
}

// probeBufs is the query probe's memory, reused by every batch a World
// serves: the occurrences a rank received, concatenated, and the scratch
// their sort runs through.
type probeBufs struct {
	occs, scratch []overlap.KeyVal
}

// group concatenates recv source by source — the arrival order — and sorts
// it by k-mer with the overlap stage's stable radix sort, so each run of one
// k-mer holds its occurrences in arrival order. An occurrence is a KeyVal
// of the k-mer and its kmer.Loc, read<<32 | position and strand.
func (b *probeBufs) group(recv [][]overlap.KeyVal) []overlap.KeyVal {
	b.occs = b.occs[:0]
	for _, src := range recv {
		b.occs = append(b.occs, src...)
	}
	b.occs, b.scratch = overlap.RadixSort(b.occs, b.scratch)
	return b.occs
}

// RunQuery answers one query batch against the resident partition. All
// ranks must call it collectively with the same root and batch (the
// serve loop broadcasts the batch before calling). The returned
// alignments are gathered and sorted on rank root only; other ranks
// return nil. Every caller passes 0: the parameter survives because
// bench/check.go spells the call with two arguments, and the next
// benchmark PR should drop it.
//
// The epoch is owner-computes, as the batch alignment stage is, and a
// task is placed by rule: an indexed×query pair is consolidated and
// aligned by the rank that owns the indexed read, a query×query pair by
// rank (the lower query read's index in the batch) mod p. Query
// sequences are resident everywhere, so no sequence travels: a rank
// posts three exchanges per batch (route, pairs, gather).
//
// The house invariant: the records equal a batch-mode run over the
// indexed reads plus the batch restricted to pairs involving at least
// one query read — every seed of a pair reaches one rank, consolidation
// sorts tasks, seed filtering depends on a pair's seed set alone, and the
// gathered records are sorted into the same total order batch mode uses.
//
// The epoch runs under the profiler labels stage=query.batch and the rank
// (trace.Do), its probe half (route, group, consolidate) under
// stage=query.probe and its align half under stage=query.align, so that
// `-tagfocus stage=query.align` reads the kernel's share of an epoch.
func (w *World) RunQuery(root int, batch []QueryRead) (out []Alignment, err error) {
	trace.Do(context.Background(), traceQuery, w.c.Rank(), func(ctx context.Context) { out, err = w.runQuery(ctx, root, batch) })
	return out, err
}

func (w *World) runQuery(ctx context.Context, root int, batch []QueryRead) ([]Alignment, error) {
	c, cfg := w.c, w.cfg
	p := c.Size()
	if w.part == nil {
		return nil, fmt.Errorf("pipeline: query against a world whose partition was dropped")
	}
	if cfg.MinimizerWindow > 1 {
		return nil, fmt.Errorf("pipeline: serve queries are not supported under minimizer seeding")
	}
	if root < 0 || root >= p {
		return nil, fmt.Errorf("pipeline: query gather root %d out of range (%d ranks)", root, p)
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("pipeline: empty query batch")
	}
	w.query.Batches++
	rec := trace.Rec(c.Rank())
	rec.Begin(traceQuery, c.Now())
	defer func() { rec.End(traceQuery, c.Now(), int64(len(batch))) }()

	preComm := c.Stats()
	var (
		tasks []overlap.Task
		recs  []Alignment
		err   error
	)
	trace.Do(ctx, traceQueryProbe, c.Rank(), func(context.Context) { tasks, err = w.probeQuery(batch) })
	if err != nil {
		return nil, err
	}
	trace.Do(ctx, traceQueryAlign, c.Rank(), func(context.Context) { recs = w.alignQuery(batch, tasks) })
	w.query.AddComm(preComm, c.Stats())

	all := spmd.GatherTo(c, recs, root)
	if c.Rank() != root {
		return nil, nil
	}
	var out []Alignment
	for _, rs := range all {
		out = append(out, rs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(&out[j]) })
	return out, nil
}

// probeQuery is the probe half of an epoch: it routes this rank's slice of
// the batch's k-mers, probes the resident partition, exchanges the pairs
// and consolidates this rank's share into tasks.
func (w *World) probeQuery(batch []QueryRead) ([]overlap.Task, error) {
	c, model, cfg := w.c, w.model, w.cfg
	p := c.Size()
	qs := &w.query
	base := uint32(w.store.NumReads())
	rec := trace.Rec(c.Rank())

	// Route this rank's slice of the batch's k-mer occurrences to their
	// partition owners — the hash pass's exchange, one round, with query
	// read IDs appended after the indexed ID space. Owner spreads the
	// slice's k-mers uniformly, so each destination is sized once, as the
	// build's rounds are.
	rec.Begin(traceQueryProbe, c.Now())
	t0 := walltime.Now()
	lo, hi := blockRange(len(batch), p, c.Rank())
	n := 0
	for j := lo; j < hi; j++ {
		n += kmer.Count(len(batch[j].Seq), cfg.K)
	}
	send := make([][]overlap.KeyVal, p)
	for dst := range send {
		send[dst] = make([]overlap.KeyVal, 0, min(n, n/p+n/(16*p)+32))
	}
	var (
		routed int64
		sc     kmer.Scanner
		keys   [512]kmer.Kmer
		locs   [512]kmer.Loc
	)
	for j := lo; j < hi; j++ {
		sc.Reset(batch[j].Seq, cfg.K, base+uint32(j))
		for n := sc.Fill(keys[:], locs[:]); n > 0; n = sc.Fill(keys[:], locs[:]) {
			for i, km := range keys[:n] {
				dst := km.Owner(p)
				send[dst] = append(send[dst], overlap.KeyVal{Key: uint64(km), Val: uint64(locs[i])})
			}
			routed += int64(n)
		}
	}
	qs.KmersRouted += routed
	qs.LocalVirtual += stats.Price(c, model, float64(routed), machine.RateParse, 0)
	qs.PackVirtual += stats.Price(c, model, float64(routed*16), machine.RatePack, 0)
	qs.LocalWall += walltime.Since(t0)

	recv := spmd.Alltoallv(c, send)

	// Probe the resident partition and emit every query-involving pair.
	// The combined count decides retention exactly as the batch prune
	// would: an entry's count covers the indexed occurrences (singletons
	// and high-frequency tombstones included — KeepSingletons keeps
	// both resident), the query occurrences are this batch's.
	//
	// The received occurrences are sorted by k-mer once (group) and
	// walked as runs of one k-mer, as diBELLA's overlap stage walks the
	// hash table. The sort is stable, so within a run the occurrences keep
	// their arrival order, which is (read, position) ascending — sources
	// hold ascending blocks of the batch and scan each read front to back.
	// The runs come in ascending k-mer order, and that order cannot reach
	// the output: Consolidate merges seeds by pair, FilterSeeds's result
	// depends on a pair's seed set alone, and tasks and gathered records
	// are sorted.
	t0 = walltime.Now()
	pairSend := make([][]overlap.PairMsg, p)
	var made, distinct int64
	for q := range overlap.Runs(w.groups.group(recv)) {
		distinct++
		count, indexed, _ := w.part.Lookup(kmer.Kmer(q[0].Key))
		combined := count + len(q)
		if combined < 2 || combined > w.part.MaxFreq {
			continue
		}
		for _, oi := range indexed {
			// Indexed and query ID spaces are disjoint, so the pair can
			// never be a same-read repeat. It goes where the indexed read
			// lives; the query read lives everywhere.
			dst := w.view.OwnerOf(oi.Read)
			for _, r := range q {
				oq := dht.LocOcc(kmer.Loc(r.Val))
				pairSend[dst] = append(pairSend[dst], overlap.PairMsg{
					RA: oi.Read, RB: oq.Read, PFA: oi.PosFlag, PFB: oq.PosFlag,
				})
				made++
			}
		}
		for i := range q {
			oi := dht.LocOcc(kmer.Loc(q[i].Val))
			for _, r := range q[i+1:] {
				oj := dht.LocOcc(kmer.Loc(r.Val))
				if oi.Read == oj.Read {
					continue // a repeat within one query read is not an overlap
				}
				// q is in arrival order, so oi is the pair's lower read.
				dst := int(oi.Read-base) % p
				pairSend[dst] = append(pairSend[dst], overlap.PairMsg{
					RA: oi.Read, RB: oj.Read, PFA: oi.PosFlag, PFB: oj.PosFlag,
				})
				made++
			}
		}
	}
	qs.PairsMade += made
	qs.LocalVirtual += stats.Price(c, model, float64(distinct), machine.RateOverlapScan, 0) +
		stats.Price(c, model, float64(made), machine.RatePairGen, 0)
	qs.PackVirtual += stats.Price(c, model, float64(made*16), machine.RatePack, 0)
	qs.LocalWall += walltime.Since(t0)

	pairRecv := spmd.Alltoallv(c, pairSend)

	// Consolidate this rank's share — the batch stage's merge/filter/sort,
	// so task and seed order are placement-independent.
	t0 = walltime.Now()
	tasks, ovStats, err := overlap.Consolidate(pairRecv, cfg.overlapConfig())
	rec.End(traceQueryProbe, c.Now(), made)
	if err != nil {
		return nil, err
	}
	qs.Tasks += int64(len(tasks))
	qs.LocalVirtual += stats.Price(c, model, float64(ovStats.TasksReceived), machine.RatePairGen, 0) +
		stats.Price(c, model, float64(ovStats.SeedsKept+ovStats.SeedsDropped), machine.RateSeedPrep, 0)
	qs.LocalWall += walltime.Since(t0)
	return tasks, nil
}

// alignQuery is the align half of an epoch: it aligns this rank's tasks
// and returns their records.
func (w *World) alignQuery(batch []QueryRead, tasks []overlap.Task) []Alignment {
	c := w.c
	base := uint32(w.store.NumReads())
	rec := trace.Rec(c.Rank())
	rec.Begin(traceQueryAlign, c.Now())

	// Align where the tasks landed. Every task has both reads resident
	// here — the query read everywhere, the indexed read by placement —
	// so there is nothing to request and no exchange to run.
	seq := func(id uint32) []byte {
		if id >= base {
			return batch[id-base].Seq
		}
		return w.view.Seq(id)
	}
	var alStats AlignStats
	al := newAligner(c, w.model, seq, w.cfg, &alStats, tasks)
	al.alignBatch(tasks)
	w.query.Alignments += alStats.Alignments
	rec.End(traceQueryAlign, c.Now(), alStats.Alignments)
	return al.out
}

// QueryPAF renders served alignments as PAF using the store's names for
// indexed reads and the batch's names for query reads — the names a
// batch-mode run over the concatenated input would print.
func (w *World) QueryPAF(batch []QueryRead, recs []Alignment) []paf.Record {
	base := uint32(w.store.NumReads())
	name := func(id uint32) string {
		if id >= base {
			return batch[id-base].Name
		}
		return w.store.Name(id)
	}
	return pafFromAlignments(recs, name)
}

// blockRange returns rank r's [lo, hi) slice of n items block-distributed
// over p ranks.
func blockRange(n, p, r int) (int, int) {
	return n * r / p, n * (r + 1) / p
}
