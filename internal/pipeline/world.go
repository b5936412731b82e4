package pipeline

import (
	"dibella/internal/ckpt"
	"dibella/internal/dht"
	"dibella/internal/fastq"
	"dibella/internal/machine"
	"dibella/internal/overlap"
	"dibella/internal/spmd"
	"dibella/internal/trace"
)

// World is one rank's live pipeline state: the read view and the DHT
// partition formed by the load and build stages, plus the accumulated
// per-rank accounting. The batch driver (run) forms a world, runs the
// overlap stage dropping the partition, and aligns; serve mode forms a
// world once, keeps the partition resident, and answers query batches
// against it (RunQuery) for the daemon's lifetime.
type World struct {
	c     *spmd.Comm
	model *machine.Model
	store *fastq.ReadStore
	cfg   Config
	view  *fastq.LocalView
	part  *dht.Partition
	rr    RankReport
	query QueryStats
}

// FormWorld runs the load and build stages collectively and returns the
// formed world with its DHT partition resident. All ranks must call it
// collectively; cfg is resolved (setDefaults) inside. A serve-mode
// caller sets cfg.KeepSingletons so the resident index can reproduce
// pairs that a query occurrence lifts past the singleton cutoff.
func FormWorld(c *spmd.Comm, model *machine.Model, store *fastq.ReadStore, cfg Config) (*World, error) {
	return formWorld(c, model, store, cfg, nil, nil)
}

// formWorld is FormWorld with the checkpoint writer and resume state of
// the batch driver threaded through.
func formWorld(c *spmd.Comm, model *machine.Model, store *fastq.ReadStore, cfg Config,
	ck *ckptState, res *resumeState) (*World, error) {

	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	view := store.View(c.Rank())
	start, end := view.LocalIDRange()

	w := &World{
		c: c, model: model, store: store, cfg: cfg, view: view,
		rr: RankReport{Rank: c.Rank(), ReadsLocal: int(end - start), InputBytes: store.ParsedBytes},
	}

	// Load boundary: the sharded read store is durable; a restart can
	// skip parsing and reshuffling the input. Its I/O cost is charged to
	// the Bloom stage's packing account (the stage the snapshot delays).
	err := ck.snapshot(c, ckpt.StageLoad, func() []ckpt.Section { return storeSections(store, c.Rank()) }, &w.rr.Bloom.Breakdown)
	if err != nil {
		return nil, err
	}

	if res.resumedPast(ckpt.StageLoad) {
		w.part = res.part
		return w, nil
	}
	local := dht.LocalReads{IDStart: start}
	for id := start; id < end; id++ {
		local.Seqs = append(local.Seqs, store.Seq(id))
	}
	part, buildStats, err := dht.Build(c, model, local, dht.Config{
		K: cfg.K, MaxFreq: cfg.MaxFreq,
		MaxKmersPerRound: cfg.MaxKmersPerRound,
		BloomFP:          cfg.BloomFP,
		ErrorRate:        cfg.ErrorRate,
		MinimizerWindow:  cfg.MinimizerWindow,
		Async:            cfg.Exchange != ExchangeSync,
		BuildDepth:       cfg.BuildDepth,
		KeepSingletons:   cfg.KeepSingletons,
	})
	if err != nil {
		return nil, err
	}
	w.part = part
	w.rr.Bloom, w.rr.Hash, w.rr.Retained = buildStats.Bloom, buildStats.Hash, buildStats.Retained
	// Stage-end memory samples: Bloom's peak (filter + nascent table +
	// exchange buffers) was taken inside the build while the filter was
	// still alive; Hash is the world's footprint now that the table stands,
	// plus the exchange buffers the pass held until a moment ago. What stays
	// resident is the world alone.
	w.rr.MemPeak.Bloom = buildStats.BloomMemBytes
	w.rr.MemPeak.Hash = w.MemBytes() + buildStats.ExchangeMemBytes
	residentMemory.WithRank(c.Rank()).Set(w.MemBytes())
	stageExchangeBytes.With(string(StageBloom)).Add(buildStats.Bloom.BytesPacked)
	stageExchangeBytes.With(string(StageHash)).Add(buildStats.Hash.BytesPacked)

	// DHT boundary: partitions plus the read store, so the snapshot is
	// self-contained.
	err = ck.snapshot(c, ckpt.StageDHT, func() []ckpt.Section {
		return append(storeSections(store, c.Rank()), ckpt.Section{Name: sectionDHT, Data: part.Encode()})
	}, &w.rr.Hash.Breakdown)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// overlapStage runs the batch overlap stage against the resident
// partition. Unless retain is set the partition is dropped afterwards —
// the batch pipeline has no further use for it; a serve world never
// calls this (queries probe the partition directly).
func (w *World) overlapStage(ck *ckptState, res *resumeState, retain bool) ([]overlap.Task, error) {
	if res.resumedPast(ckpt.StageDHT) {
		return res.tasks, nil
	}
	rec := trace.Rec(w.c.Rank())
	rec.Begin(traceOverlap, w.c.Now())
	tasks, ovStats, err := overlap.Run(w.c, w.model, w.part, w.store.Owner, w.cfg.overlapConfig())
	if err != nil {
		return nil, err
	}
	w.rr.Overlap = ovStats
	rec.End(traceOverlap, w.c.Now(), ovStats.BytesPacked)
	stageExchangeBytes.With(string(StageOverlap)).Add(ovStats.BytesPacked)
	// Overlap's peak: the partition is still resident alongside the
	// consolidated tasks — sample before dropping it.
	w.rr.MemPeak.Overlap = w.MemBytes()
	if !retain {
		// The hash table is no longer needed once tasks exist.
		w.part = nil
	}

	// Overlap boundary: consolidated task sets plus the read store.
	err = ck.snapshot(w.c, ckpt.StageOverlap, func() []ckpt.Section {
		return append(storeSections(w.store, w.c.Rank()), ckpt.Section{Name: sectionTasks, Data: overlap.EncodeTasks(tasks)})
	}, &w.rr.Overlap.Breakdown)
	if err != nil {
		return nil, err
	}
	return tasks, nil
}

// alignTasks runs the batch alignment stage and closes out the rank's
// virtual-clock accounting.
func (w *World) alignTasks(tasks []overlap.Task) []Alignment {
	rec := trace.Rec(w.c.Rank())
	rec.Begin(traceAlign, w.c.Now())
	recs, alStats := alignStage(w.c, w.model, w.view, tasks, w.cfg)
	w.rr.Align = alStats
	w.rr.VirtualTotal = w.c.Now()
	rec.End(traceAlign, w.c.Now(), alStats.BytesPacked)
	stageExchangeBytes.With(string(StageAlign)).Add(alStats.BytesPacked)
	// Align's footprint: replicas fetched for remote tasks are installed
	// on the view; the partition is gone by now in batch runs.
	w.rr.MemPeak.Align = w.MemBytes()
	residentMemory.WithRank(w.c.Rank()).Set(w.rr.MemPeak.Align)
	return recs
}

// Comm returns the world's communicator (rank, size, and the virtual
// clock the serve frontend prices admission on).
func (w *World) Comm() *spmd.Comm { return w.c }

// Model returns the platform model the world was formed under (nil when
// unpriced).
func (w *World) Model() *machine.Model { return w.model }

// Store returns the global read store backing the world.
func (w *World) Store() *fastq.ReadStore { return w.store }

// Config returns the resolved pipeline configuration.
func (w *World) Config() Config { return w.cfg }

// Report returns a copy of this rank's accumulated accounting.
func (w *World) Report() RankReport { return w.rr }

// QueryStats returns a copy of this rank's accumulated query-path
// accounting.
func (w *World) QueryStats() QueryStats { return w.query }

// MemBytes estimates this rank's resident footprint: the DHT partition
// plus replicated sequences — the resident-memory gauge's value.
func (w *World) MemBytes() int64 {
	var n int64
	if w.part != nil {
		n += w.part.MemBytes()
	}
	n += int64(w.view.ReplicaBytes())
	return n
}

// GatherMemBytes allgathers every rank's MemBytes. All ranks must call
// it collectively; the serve daemon seeds its per-rank resident-memory
// gauge with the result at start-up.
func (w *World) GatherMemBytes() []int64 {
	return spmd.Allgather(w.c, w.MemBytes())
}
