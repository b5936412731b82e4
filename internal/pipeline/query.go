package pipeline

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"dibella/internal/dht"
	"dibella/internal/fastq"
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

// queryOcc routes one query k-mer occurrence to the k-mer's partition
// owner — the build pass's occMsg shape, 16 bytes on the wire.
type queryOcc struct {
	Km kmer.Kmer
	O  dht.Occ
}

// batchQueryView is the alignment stage's read access for a served
// batch: query sequences are resident on every rank (the serve loop
// broadcast the batch) and RunQuery places every task that touches an
// indexed read with that read, so the stage finds both reads of every
// task here and fetches nothing.
type batchQueryView struct {
	world *fastq.LocalView
	base  uint32
	batch []QueryRead
}

func (v *batchQueryView) Owns(id uint32) bool { return id >= v.base || v.world.Owns(id) }

func (v *batchQueryView) Seq(id uint32) []byte {
	if id >= v.base {
		return v.batch[id-v.base].Seq
	}
	return v.world.Seq(id)
}

func (v *batchQueryView) OwnedSeq(id uint32) []byte {
	if id >= v.base {
		return v.batch[id-v.base].Seq
	}
	return v.world.OwnedSeq(id)
}

// AddReplica is the alignment stage installing a fetched read: a served
// task that needed one was sent to the wrong rank.
func (v *batchQueryView) AddReplica(id uint32, _ []byte) {
	panic(fmt.Sprintf("pipeline: served batch fetched read %d; query tasks are placed with their indexed read", id))
}

func (v *batchQueryView) OwnerOf(id uint32) int { return v.world.OwnerOf(id) }

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
// sequences are resident everywhere, so no sequence travels.
//
// The house invariant: the records equal a batch-mode run over the
// indexed reads plus the batch restricted to pairs involving at least
// one query read — every seed of a pair reaches one rank, consolidation
// sorts tasks, seed filtering sorts seeds, and the gathered records are
// sorted into the same total order batch mode uses.
func (w *World) RunQuery(root int, batch []QueryRead) ([]Alignment, error) {
	c, model, cfg := w.c, w.model, w.cfg
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
	qs := &w.query
	qs.Batches++
	base := uint32(w.store.NumReads())
	rec := trace.Rec(c.Rank())
	rec.Begin(traceQuery, c.Now())
	defer func() { rec.End(traceQuery, c.Now(), int64(len(batch))) }()

	// Route this rank's slice of the batch's k-mer occurrences to their
	// partition owners — the hash pass's exchange, one round, with query
	// read IDs appended after the indexed ID space. Owner spreads the
	// slice's k-mers uniformly, so each destination is sized once, as the
	// build's rounds are.
	t0 := walltime.Now()
	lo, hi := blockRange(len(batch), p, c.Rank())
	n := 0
	for j := lo; j < hi; j++ {
		n += kmer.Count(len(batch[j].Seq), cfg.K)
	}
	send := make([][]queryOcc, p)
	for dst := range send {
		send[dst] = make([]queryOcc, 0, min(n, n/p+n/(16*p)+32))
	}
	var routed int64
	for j := lo; j < hi; j++ {
		sc := kmer.NewScanner(batch[j].Seq, cfg.K, base+uint32(j))
		for {
			ex, ok := sc.Next()
			if !ok {
				break
			}
			dst := ex.Kmer.Owner(p)
			send[dst] = append(send[dst], queryOcc{
				Km: ex.Kmer,
				O:  dht.MakeOcc(ex.Occ.ReadID, ex.Occ.Pos, ex.Occ.Forward),
			})
			routed++
		}
	}
	qs.KmersRouted += routed
	qs.LocalVirtual += price(c, model, float64(routed), machine.RateParse, 0)
	qs.PackVirtual += price(c, model, float64(routed*16), machine.RatePack, 0)
	qs.LocalWall += walltime.Since(t0)

	preComm := c.Stats()
	recv := spmd.Alltoallv(c, send)

	// Probe the resident partition and emit every query-involving pair.
	// The combined count decides retention exactly as the batch prune
	// would: an entry's count covers the indexed occurrences (singletons
	// and high-frequency tombstones included — KeepSingletons keeps
	// both resident), the query occurrences are this batch's.
	//
	// The received occurrences are sorted once and walked as runs of one
	// k-mer. (k-mer, read, position) is a total order and, within a k-mer,
	// the order they arrived in: sources hold ascending blocks of the batch
	// and scan each read front to back.
	t0 = walltime.Now()
	occs := slices.Concat(recv...)
	slices.SortFunc(occs, func(a, b queryOcc) int {
		if a.Km != b.Km {
			return cmp.Compare(a.Km, b.Km)
		}
		return cmp.Compare(uint64(a.O.Read)<<32|uint64(a.O.PosFlag), uint64(b.O.Read)<<32|uint64(b.O.PosFlag))
	})
	pairSend := make([][]overlap.PairMsg, p)
	var made, distinct int64
	for len(occs) > 0 {
		km := occs[0].Km
		end := 1
		for end < len(occs) && occs[end].Km == km {
			end++
		}
		q := occs[:end]
		occs = occs[end:]
		distinct++
		count, indexed, _ := w.part.Lookup(km)
		combined := count + len(q)
		if combined < 2 || combined > w.part.MaxFreq {
			continue
		}
		for _, oi := range indexed {
			// Indexed and query ID spaces are disjoint, so the pair can
			// never be a same-read repeat. It goes where the indexed read
			// lives; the query read lives everywhere.
			dst := w.view.OwnerOf(oi.Read)
			for _, oq := range q {
				pairSend[dst] = append(pairSend[dst], overlap.PairMsg{
					RA: oi.Read, RB: oq.O.Read, PFA: oi.PosFlag, PFB: oq.O.PosFlag,
				})
				made++
			}
		}
		for i := 0; i < len(q); i++ {
			for j := i + 1; j < len(q); j++ {
				if q[i].O.Read == q[j].O.Read {
					continue // a repeat within one query read is not an overlap
				}
				// q is sorted by read, so q[i] is the pair's lower read.
				dst := int(q[i].O.Read-base) % p
				pairSend[dst] = append(pairSend[dst], overlap.PairMsg{
					RA: q[i].O.Read, RB: q[j].O.Read, PFA: q[i].O.PosFlag, PFB: q[j].O.PosFlag,
				})
				made++
			}
		}
	}
	qs.PairsMade += made
	qs.LocalVirtual += price(c, model, float64(distinct), machine.RateOverlapScan, 0) +
		price(c, model, float64(made), machine.RatePairGen, 0)
	qs.PackVirtual += price(c, model, float64(made*16), machine.RatePack, 0)
	qs.LocalWall += walltime.Since(t0)

	pairRecv := spmd.Alltoallv(c, pairSend)

	// Consolidate this rank's share — the batch stage's merge/filter/sort,
	// so task and seed order are placement-independent.
	t0 = walltime.Now()
	tasks, ovStats, err := overlap.Consolidate(pairRecv, cfg.overlapConfig())
	if err != nil {
		return nil, err
	}
	qs.Tasks += int64(len(tasks))
	qs.LocalVirtual += price(c, model, float64(ovStats.TasksReceived), machine.RatePairGen, 0) +
		price(c, model, float64(ovStats.SeedsKept+ovStats.SeedsDropped), machine.RateSeedPrep, 0)
	qs.LocalWall += walltime.Since(t0)

	// Align collectively, through the batch stage's schedule. Every task
	// has both reads resident where it landed, so the stage's request and
	// reply exchanges carry no sequence.
	qv := &batchQueryView{world: w.view, base: base, batch: batch}
	recs, alStats := alignStage(c, model, qv, tasks, cfg)
	qs.Alignments += alStats.Alignments
	qs.addComm(preComm, c.Stats())

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

// addComm accumulates the exchange/overlap deltas of the batch's
// collectives into the query accounting.
func (qs *QueryStats) addComm(pre, post spmd.Stats) {
	qs.ExchangeVirtual += post.ExchangeVirtual - pre.ExchangeVirtual
	qs.OverlapVirtual += post.OverlapVirtual - pre.OverlapVirtual
	qs.ExchangeWall += post.ExchangeWall - pre.ExchangeWall
	qs.OverlapWall += post.OverlapWall - pre.OverlapWall
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
