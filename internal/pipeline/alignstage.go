package pipeline

import (
	"fmt"
	"sort"

	"dibella/internal/align"
	"dibella/internal/dna"
	"dibella/internal/fastq"
	"dibella/internal/machine"
	"dibella/internal/overlap"
	"dibella/internal/spmd"
	"dibella/internal/stats"
	"dibella/internal/walltime"
)

// AlignStats is the alignment stage's per-rank accounting (§9).
type AlignStats struct {
	Tasks        int64 // consolidated read pairs assigned to this rank
	Alignments   int64 // x-drop extensions executed (one per explored seed)
	Cells        int64 // DP cells computed across all alignments
	ReadsFetched int64 // remote reads replicated to this rank
	FetchedBytes int64 // bytes of replicated sequence
	BytesPacked  int64 // exchange payload this rank packed (requests + replies)
	stats.Breakdown
}

// Alignment is one computed pairwise alignment, in the coordinates of each
// read's forward strand (strand '-' means read B aligned
// reverse-complemented).
type Alignment struct {
	A, B          uint32
	Strand        byte
	Score         int
	AStart, AEnd  int
	BStart, BEnd  int
	ALen, BLen    int
	Cells         int64
	SeedsConsumed int // seeds the pair carried (after filtering)
}

// aligner is the per-rank alignment state shared by the batch stage's
// synchronous and streamed schedules and the served query epoch: the
// sequence lookup, a reverse-complement cache (one RC per read, however
// many tasks touch it), and the accumulating output.
type aligner struct {
	c      *spmd.Comm
	model  *machine.Model
	seq    func(id uint32) []byte // nil for a read not resident on this rank
	cfg    Config
	st     *AlignStats
	rc     map[uint32][]byte // reverse complements by read ID
	rcNeed map[uint32]int    // tasks still needing each read's RC; at 0 the entry is evicted
	rcFree [][]byte          // evicted entries' buffers, taken last-in first-out by the next RC built
	out    []Alignment
}

// newAligner starts a stage over tasks: each opposite-strand task holds one
// claim on read B's reverse complement until alignTask releases it.
func newAligner(c *spmd.Comm, model *machine.Model, seq func(id uint32) []byte, cfg Config, st *AlignStats, tasks []overlap.Task) *aligner {
	al := &aligner{
		c: c, model: model, seq: seq, cfg: cfg, st: st,
		rc:     make(map[uint32][]byte),
		rcNeed: make(map[uint32]int),
		out:    make([]Alignment, 0, len(tasks)),
	}
	for _, task := range tasks {
		if needsRC(task) {
			al.rcNeed[task.Pair.B]++
		}
	}
	return al
}

// revComp returns (computing and caching on first use) the reverse
// complement of read id's sequence, built in a buffer an evicted entry left
// behind when there is one: the stage allocates as many as are ever live at
// once, not one per opposite-strand read.
func (al *aligner) revComp(id uint32, seq []byte) []byte {
	if rc, ok := al.rc[id]; ok {
		return rc
	}
	var buf []byte
	if n := len(al.rcFree); n > 0 {
		buf, al.rcFree = al.rcFree[n-1], al.rcFree[:n-1]
	}
	rc := dna.AppendReverseComplement(buf[:0], seq)
	al.st.LocalVirtual += stats.Price(al.c, al.model, float64(len(seq)), machine.RatePack, 0)
	al.rc[id] = rc
	return rc
}

// needsRC reports whether any seed aligns the pair on opposite strands
// (i.e. read B's reverse complement will be needed).
func needsRC(task overlap.Task) bool {
	for _, seed := range task.Seeds {
		if !seed.SameStrand() {
			return true
		}
	}
	return false
}

// alignTask runs one task's alignments and releases the task's claim on
// read B's reverse-complement cache entry. Each task started the stage
// counted in rcNeed, so the release must run on every exit path — the
// defensive missing-sequence return included — or the RC entry leaks for
// the rest of the stage.
func (al *aligner) alignTask(task overlap.Task) {
	seqA := al.seq(task.Pair.A)
	seqB := al.seq(task.Pair.B)
	if seqA != nil && seqB != nil {
		al.alignSeeds(task, seqA, seqB)
	}
	// A nil sequence is unreachable by construction; a logic error
	// surfaces as missing output rather than a crash, and falls through
	// to the release below.
	if needsRC(task) {
		// Last task touching B's reverse complement releases it, keeping
		// the cache bounded by concurrently-live RCs rather than every
		// opposite-strand read the stage ever saw.
		al.rcNeed[task.Pair.B]--
		if al.rcNeed[task.Pair.B] <= 0 {
			delete(al.rcNeed, task.Pair.B)
			if rc, ok := al.rc[task.Pair.B]; ok {
				al.rcFree = append(al.rcFree, rc)
				delete(al.rc, task.Pair.B)
			}
		}
	}
}

// alignSeeds runs every seed's x-drop extension for one task and appends
// the surviving alignments. Only the best-scoring alignment per (pair,
// strand) is kept — BELLA's semantics; a multi-seed pair otherwise emits
// duplicate overlapping records. Ties keep the earliest seed's alignment
// (seed lists arrive sorted by PosA), so the choice is deterministic and
// schedule-independent.
func (al *aligner) alignSeeds(task overlap.Task, seqA, seqB []byte) {
	cfg := &al.cfg
	var bestFwd, bestRev Alignment
	var haveFwd, haveRev bool
	var seedOps, cells int64
	for _, seed := range task.Seeds {
		seedOps++
		posA := int(seed.PosA)
		posB := int(seed.PosB)
		strand := byte('+')
		tgt := seqB
		if !seed.SameStrand() {
			tgt = al.revComp(task.Pair.B, seqB)
			posB = len(seqB) - cfg.K - posB
			strand = '-'
		}
		if posA < 0 || posB < 0 || posA+cfg.K > len(seqA) || posB+cfg.K > len(tgt) {
			continue // corrupted seed; skip defensively
		}
		r := align.XDrop(seqA, tgt, posA, posB, cfg.K, cfg.Scoring, cfg.XDrop)
		al.st.Alignments++
		al.st.Cells += r.Cells
		cells += r.Cells
		a := Alignment{
			A: task.Pair.A, B: task.Pair.B, Strand: strand,
			Score: r.Score, Cells: r.Cells,
			AStart: r.SStart, AEnd: r.SEnd,
			ALen: len(seqA), BLen: len(seqB),
			SeedsConsumed: len(task.Seeds),
		}
		if strand == '+' {
			a.BStart, a.BEnd = r.TStart, r.TEnd
		} else {
			// Map the span back to B's forward coordinates.
			a.BStart, a.BEnd = len(seqB)-r.TEnd, len(seqB)-r.TStart
		}
		if strand == '+' {
			if !haveFwd || a.Score > bestFwd.Score {
				bestFwd, haveFwd = a, true
			}
		} else if !haveRev || a.Score > bestRev.Score {
			bestRev, haveRev = a, true
		}
	}
	if haveFwd && bestFwd.Score >= cfg.MinAlignScore {
		al.out = append(al.out, bestFwd)
	}
	if haveRev && bestRev.Score >= cfg.MinAlignScore {
		al.out = append(al.out, bestRev)
	}
	al.st.LocalVirtual += stats.Price(al.c, al.model, float64(cells), machine.RateCell, 0) +
		stats.Price(al.c, al.model, float64(seedOps), machine.RateSeedPrep, 0)
}

// alignStage fetches non-local reads and computes every seed's x-drop
// alignment locally. All ranks must call it collectively (the read
// request/reply exchanges are all-to-alls). Config.Exchange picks one of
// two schedules over the same plan: the paper's bulk-synchronous reference
// (alignSync) or the overlapped, streamed one (alignStreamed). The emitted
// alignments are identical under both (records are sorted into a total
// order before output).
func alignStage(c *spmd.Comm, model *machine.Model, view *fastq.LocalView,
	tasks []overlap.Task, cfg Config) ([]Alignment, AlignStats) {

	st := AlignStats{Tasks: int64(len(tasks))}
	// Exchange/overlap accounting snapshots Comm stats once around the
	// stage: everything else here only ticks local time, so the stats
	// delta is exactly the two exchanges (posting costs included).
	preComm := c.Stats()
	al := newAligner(c, model, view.Seq, cfg, &st, tasks)
	reqs := al.planRequests(view, tasks)
	if cfg.Exchange == ExchangeSync {
		al.alignSync(view, reqs, tasks)
	} else {
		al.alignStreamed(view, reqs, tasks)
	}
	st.AddComm(preComm, c.Stats())
	return al.out, st
}

// planRequests identifies the remote reads this rank needs, deduplicated
// and sorted, per owner.
func (al *aligner) planRequests(view *fastq.LocalView, tasks []overlap.Task) [][]uint32 {
	st := al.st
	t0 := walltime.Now()
	needed := make(map[uint32]bool)
	for _, task := range tasks {
		if !view.Owns(task.Pair.A) {
			needed[task.Pair.A] = true
		}
		if !view.Owns(task.Pair.B) {
			needed[task.Pair.B] = true
		}
	}
	reqs := make([][]uint32, al.c.Size())
	for id := range needed {
		o := view.OwnerOf(id)
		reqs[o] = append(reqs[o], id)
	}
	for _, r := range reqs {
		sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
	}
	st.BytesPacked += int64(len(needed)) * 4 // request payload: one uint32 ID per wanted read
	st.LocalVirtual += stats.Price(al.c, al.model, float64(len(needed)), machine.RatePairGen, 0)
	st.LocalWall += walltime.Since(t0)
	return reqs
}

// packReplies packs the sequences each peer requested, in request order,
// so no IDs need to travel back.
func (al *aligner) packReplies(view *fastq.LocalView, incoming [][]uint32) []spmd.PackedBufs {
	st := al.st
	t0 := walltime.Now()
	replies := make([]spmd.PackedBufs, len(incoming))
	var packedBytes int64
	for src, ids := range incoming {
		for _, id := range ids {
			seq := view.OwnedSeq(id)
			replies[src].AppendItem(seq)
			packedBytes += int64(len(seq))
		}
	}
	st.BytesPacked += packedBytes // reply payload: the requested sequences
	st.PackVirtual += stats.Price(al.c, al.model, float64(packedBytes), machine.RatePack, 0)
	st.PackWall += walltime.Since(t0)
	return replies
}

// alignSync is the paper's bulk-synchronous schedule: request exchange,
// reply exchange, install every replica, then align every task.
func (al *aligner) alignSync(view *fastq.LocalView, reqs [][]uint32, tasks []overlap.Task) {
	st := al.st
	incoming := spmd.Alltoallv(al.c, reqs)
	got := spmd.AlltoallvPacked(al.c, al.packReplies(view, incoming))

	t0 := walltime.Now()
	for src := range got {
		items := got[src].Items()
		for i, id := range reqs[src] {
			view.AddReplica(id, items[i])
			st.ReadsFetched++
			st.FetchedBytes += int64(len(items[i]))
		}
	}
	st.LocalVirtual += stats.Price(al.c, al.model, float64(st.FetchedBytes), machine.RatePack, 0)
	for _, task := range tasks {
		al.alignTask(task)
	}
	st.LocalWall += walltime.Since(t0)
}

// alignStreamed is the overlapped schedule: tasks whose reads are both
// local align while the posted request exchange flies, and the reply
// exchange is streamed (streamReplies) so each remote task aligns the
// moment its last missing sequence is installed.
func (al *aligner) alignStreamed(view *fastq.LocalView, reqs [][]uint32, tasks []overlap.Task) {
	var remote []overlap.Task
	incoming := spmd.AlltoallvDuring(al.c, reqs, func() {
		t0 := walltime.Now()
		for _, task := range tasks {
			if view.Owns(task.Pair.A) && view.Owns(task.Pair.B) {
				al.alignTask(task)
			} else {
				remote = append(remote, task)
			}
		}
		al.st.LocalWall += walltime.Since(t0)
	})
	al.streamReplies(view, reqs, al.packReplies(view, incoming), remote)
}

// replicaSlab is the memory streamReplies copies replicas into at a time.
const replicaSlab = 1 << 20

// streamReplies is the readiness-driven reply schedule: the packed reply
// exchange is streamed in bounded chunks, and remote tasks — indexed by
// the replica IDs they are waiting on — align the moment their last
// missing sequence is installed. The alignment compute runs between chunk
// waits, so it hides the modeled (and wall) cost of the rounds still in
// flight; the blocking tail shrinks to whatever compute the final chunk
// leaves behind.
func (al *aligner) streamReplies(view *fastq.LocalView, reqs [][]uint32, replies []spmd.PackedBufs, remote []overlap.Task) {

	st := al.st
	// Index remote tasks by the reads they are missing. A task appears
	// once per missing read and carries a countdown; hitting zero means
	// its last sequence just landed.
	waitCount := make([]int, len(remote))
	waiting := make(map[uint32][]int)
	for ti, task := range remote {
		for _, id := range [2]uint32{task.Pair.A, task.Pair.B} {
			if !view.Owns(id) {
				waiting[id] = append(waiting[id], ti)
				waitCount[ti]++
			}
		}
	}
	// A delivered item is the stream's until deliver returns, so each
	// replica is copied into slabs the stage owns: the one receive-side copy.
	var slab []byte
	deliver := func(d spmd.StreamDelivery) {
		t0 := walltime.Now()
		var installed int64
		for i, item := range d.Items {
			if cap(slab)-len(slab) < len(item) {
				slab = make([]byte, 0, max(len(item), replicaSlab))
			}
			n := len(slab)
			slab = append(slab, item...)
			id := reqs[d.Src][d.First+i]
			view.AddReplica(id, slab[n:len(slab):len(slab)])
			st.ReadsFetched++
			st.FetchedBytes += int64(len(item))
			installed += int64(len(item))
			for _, ti := range waiting[id] {
				waitCount[ti]--
				if waitCount[ti] == 0 {
					al.alignTask(remote[ti])
				}
			}
			delete(waiting, id)
		}
		st.LocalVirtual += stats.Price(al.c, al.model, float64(installed), machine.RatePack, 0)
		st.LocalWall += walltime.Since(t0)
	}
	spmd.IAlltoallvStreamed(al.c, replies,
		spmd.StreamOpts{ChunkBytes: al.cfg.ReplyChunk, Depth: al.cfg.ReplyDepth}, deliver)
	// Every remote task must have aligned during the stream; a leftover
	// means the request bookkeeping diverged from the reply layout.
	for ti, n := range waitCount {
		if n != 0 {
			panic(fmt.Sprintf("pipeline: streamed reply left task %d waiting on %d read(s)", ti, n))
		}
	}
}
