// Package pipeline assembles diBELLA's four-stage distributed pipeline
// (§4): Bloom filter construction, hash table construction, overlap
// detection, and pairwise alignment, all over the spmd runtime's irregular
// all-to-all exchanges. The default schedule (ExchangeStreamed) keeps a
// window of those exchanges in flight under local work — spmd.Rounds in
// the two build passes, spmd.AlltoallvDuring and the chunked reply stream
// in the alignment stage; the paper's bulk-synchronous schedule
// (ExchangeSync) is kept as the reference, with byte-identical output.
//
// Each stage records a per-rank breakdown (packing / local processing /
// exchange) in both modeled platform seconds and measured host time; the
// Report gathers these across ranks into the quantities the paper plots:
// per-stage rates (Figs. 3, 5, 6, 7), per-stage runtime fractions
// (Figs. 9, 10), overall efficiency (Figs. 11, 12), overall
// alignments-per-second (Fig. 13), and alignment-stage load imbalance
// (Fig. 8).
package pipeline

import (
	"fmt"
	"sort"
	"time"

	"dibella/internal/walltime"

	"dibella/internal/align"
	"dibella/internal/bella"
	"dibella/internal/dht"
	"dibella/internal/fastq"
	"dibella/internal/machine"
	"dibella/internal/overlap"
	"dibella/internal/paf"
	"dibella/internal/spmd"
	"dibella/internal/stats"
	"dibella/internal/trace"
)

// ExchangeMode selects how the pipeline schedules its all-to-all
// exchanges.
type ExchangeMode int

const (
	// ExchangeStreamed (the default) posts exchanges as non-blocking
	// collectives (spmd.Rounds, spmd.AlltoallvDuring), overlapping them
	// with packing and processing, and streams the alignment stage's reply
	// exchange in chunks (spmd.IAlltoallvStreamed): remote tasks are
	// aligned the moment their last missing sequence lands, instead of
	// after every replica is installed. Output is byte-identical to the
	// synchronous schedule.
	ExchangeStreamed ExchangeMode = iota
	// ExchangeSync is the paper's bulk-synchronous schedule: pack →
	// blocking exchange → process. Retained as the reference the streamed
	// schedule is compared against.
	ExchangeSync
)

// String names the schedule the way Report.Summary prints it.
func (m ExchangeMode) String() string {
	switch m {
	case ExchangeStreamed:
		return "streamed"
	case ExchangeSync:
		return "sync"
	default:
		return fmt.Sprintf("ExchangeMode(%d)", int(m))
	}
}

// Config holds every runtime parameter of a pipeline execution.
type Config struct {
	K       int // k-mer length (0: derive via bella.OptimalK from ErrorRate)
	MaxFreq int // high-frequency cutoff m (0: derive via bella theory)

	SeedMode overlap.SeedMode
	MinDist  int // seed spacing for MinDistance mode (default 1000)
	MaxSeeds int // optional per-pair seed cap

	XDrop         int           // x-drop threshold (default 7, BELLA's)
	Scoring       align.Scoring // zero value: align.DefaultScoring
	MinAlignScore int           // drop alignments scoring below this

	MaxKmersPerRound int // streaming batch bound (default 1<<16, dht.Config)
	// MinimizerWindow > 1 seeds overlaps from (w,k)-minimizers only,
	// trading a little recall for ~(w+1)/2 less k-mer traffic (extension;
	// Minimap2-style, §11).
	MinimizerWindow int

	// Data-set characteristics for parameter derivation.
	ErrorRate float64
	Coverage  float64
	GenomeEst float64 // estimated genome size (for k derivation)

	// KeepAlignments retains alignment records in the Report (costs
	// memory on large runs).
	KeepAlignments bool

	// Exchange selects streamed (default) or bulk-synchronous exchange
	// scheduling. The schedules move identical data and produce
	// byte-identical PAF; only when and how long ranks block differs.
	Exchange ExchangeMode

	// ReplyChunk bounds the per-peer payload (bytes) of one chunk of the
	// alignment stage's streamed reply exchange (ExchangeStreamed only;
	// 0: spmd.DefaultChunkBytes).
	ReplyChunk int
	// ReplyDepth is how many reply chunk rounds are in flight while a
	// rank waits, as BuildDepth counts the build's rounds (ExchangeStreamed
	// only; 0: spmd.DefaultStreamDepth, capped at spmd.MaxStreamDepth; 1
	// is blocking chunk rounds, priced as the blocking exchanges they are).
	ReplyDepth int

	// BuildDepth is how many exchange rounds the hash-table build's
	// non-blocking round pipeline keeps in flight per pass (default 2 —
	// the post-one-ahead schedule; capped at spmd.MaxStreamDepth; 1
	// degenerates to the blocking schedule). Schedule-only: the built
	// table is identical at every depth.
	BuildDepth int

	// KeepSingletons retains singleton k-mers (and high-frequency
	// tombstone counts) in the DHT. Serve mode sets it when forming the
	// resident world: a query occurrence can lift an indexed singleton to
	// count 2 in the combined run served output is compared against, so
	// the index must keep them to reproduce those pairs.
	KeepSingletons bool
}

func (cfg *Config) setDefaults() error {
	if cfg.K == 0 {
		if cfg.ErrorRate <= 0 || cfg.GenomeEst <= 0 {
			return fmt.Errorf("pipeline: k not set and no error rate/genome estimate to derive it")
		}
		k, err := bella.OptimalK(cfg.ErrorRate, 2000, 0.9, cfg.GenomeEst)
		if err != nil {
			return err
		}
		cfg.K = k
	}
	if cfg.MaxFreq == 0 {
		if cfg.ErrorRate > 0 && cfg.Coverage > 0 {
			cfg.MaxFreq = bella.ReliableUpperBound(cfg.ErrorRate, cfg.K, cfg.Coverage, 2, 1e-4)
		} else {
			cfg.MaxFreq = 8
		}
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
	if cfg.XDrop < 0 {
		return fmt.Errorf("pipeline: negative x-drop %d", cfg.XDrop)
	}
	if cfg.ReplyChunk < 0 {
		return fmt.Errorf("pipeline: negative reply chunk size %d", cfg.ReplyChunk)
	}
	if cfg.ReplyDepth < 0 {
		return fmt.Errorf("pipeline: negative reply stream depth %d", cfg.ReplyDepth)
	}
	if cfg.MinimizerWindow < 0 {
		return fmt.Errorf("pipeline: negative minimizer window %d", cfg.MinimizerWindow)
	}
	if cfg.BuildDepth < 0 || cfg.BuildDepth > spmd.MaxStreamDepth {
		return fmt.Errorf("pipeline: build depth %d out of [0,%d]", cfg.BuildDepth, spmd.MaxStreamDepth)
	}
	return nil
}

// StageMem is one rank's estimated resident footprint per stage,
// sampled at each stage's end (Bloom inside the build, while the filter
// is still alive — its peak instant). It feeds the -breakdown peak-mem
// column and the resident-memory gauge.
type StageMem struct {
	Bloom   int64
	Hash    int64
	Overlap int64
	Align   int64
}

// of returns the stage's sample.
func (m *StageMem) of(s StageName) int64 {
	switch s {
	case StageBloom:
		return m.Bloom
	case StageHash:
		return m.Hash
	case StageOverlap:
		return m.Overlap
	case StageAlign:
		return m.Align
	default:
		panic(fmt.Sprintf("pipeline: unknown stage %q", s))
	}
}

// RankReport is one rank's complete accounting of a pipeline run. It is
// gathered across ranks into the Report.
type RankReport struct {
	Rank         int
	ReadsLocal   int
	InputBytes   int64 // input bytes this rank's process parsed (cooperative I/O counter)
	Bloom        dht.StageStats
	Hash         dht.StageStats
	Overlap      overlap.Stats
	Align        AlignStats
	Retained     int
	MemPeak      StageMem
	VirtualTotal float64 // rank's virtual clock at pipeline end
}

// Report is the gathered result of one pipeline execution.
type Report struct {
	Ranks   int
	Config  Config
	PerRank []RankReport
	Reads   int
	// Global counts.
	RetainedKmers int64
	Pairs         int64
	Alignments    int64
	Cells         int64
	// Elapsed virtual seconds (max over ranks) and host wall time.
	VirtualTime float64
	WallTime    time.Duration
	// Alignment records (only when Config.KeepAlignments).
	Records []Alignment
	// Flight-recorder snapshots, gathered to rank 0 at teardown (only
	// when tracing was enabled; nil on other ranks and untraced runs).
	Trace []trace.RankEvents
}

// StageName identifies a pipeline stage in reports.
type StageName string

// Pipeline stages in execution order.
const (
	StageBloom   StageName = "BloomFilter"
	StageHash    StageName = "HashTable"
	StageOverlap StageName = "Overlap"
	StageAlign   StageName = "Alignment"
)

// Stages lists the pipeline stages in order.
var Stages = []StageName{StageBloom, StageHash, StageOverlap, StageAlign}

// breakdownOf extracts a stage's breakdown from a rank report.
func (r *RankReport) breakdownOf(s StageName) stats.Breakdown {
	switch s {
	case StageBloom:
		return r.Bloom.Breakdown
	case StageHash:
		return r.Hash.Breakdown
	case StageOverlap:
		return r.Overlap.Breakdown
	case StageAlign:
		return r.Align.Breakdown
	default:
		panic(fmt.Sprintf("pipeline: unknown stage %q", s))
	}
}

// bytesPackedOf extracts a stage's exchange payload packed by this rank:
// the bytes it contributed to the stage's all-to-alls.
func (r *RankReport) bytesPackedOf(s StageName) int64 {
	switch s {
	case StageBloom:
		return r.Bloom.BytesPacked
	case StageHash:
		return r.Hash.BytesPacked
	case StageOverlap:
		return r.Overlap.BytesPacked
	case StageAlign:
		return r.Align.BytesPacked
	default:
		panic(fmt.Sprintf("pipeline: unknown stage %q", s))
	}
}

// StageExchangeBytes returns the stage's total exchange payload across all
// ranks — the wire volume the stage's all-to-alls moved. This is the
// quantity minimizer seeding shrinks; -breakdown prints it per stage.
func (rep *Report) StageExchangeBytes(s StageName) int64 {
	var total int64
	for i := range rep.PerRank {
		total += rep.PerRank[i].bytesPackedOf(s)
	}
	return total
}

// ExchangeBytes returns the run's total exchange payload across stages and
// ranks.
func (rep *Report) ExchangeBytes() int64 {
	var total int64
	for _, s := range Stages {
		total += rep.StageExchangeBytes(s)
	}
	return total
}

// StageVirtual returns the stage's modeled elapsed time: the max over
// ranks of the stage's virtual total (BSP semantics — the slowest rank
// sets the stage time).
func (rep *Report) StageVirtual(s StageName) float64 {
	vals := make([]float64, len(rep.PerRank))
	for i := range rep.PerRank {
		vals[i] = rep.PerRank[i].breakdownOf(s).TotalVirtual()
	}
	return stats.Max(vals)
}

// StageExchangeVirtual returns the stage's modeled exchange time (max over
// ranks).
func (rep *Report) StageExchangeVirtual(s StageName) float64 {
	vals := make([]float64, len(rep.PerRank))
	for i := range rep.PerRank {
		vals[i] = rep.PerRank[i].breakdownOf(s).ExchangeVirtual
	}
	return stats.Max(vals)
}

// StageOverlapVirtual returns the stage's modeled exchange time hidden
// under computation by non-blocking exchanges (max over ranks; zero for
// bulk-synchronous runs).
func (rep *Report) StageOverlapVirtual(s StageName) float64 {
	vals := make([]float64, len(rep.PerRank))
	for i := range rep.PerRank {
		vals[i] = rep.PerRank[i].breakdownOf(s).OverlapVirtual
	}
	return stats.Max(vals)
}

// OverlapFraction returns the share of the run's exchange cost that ran
// hidden under computation, aggregated over all ranks and stages: modeled
// when platform-priced, measured (overlapped vs. blocked host time)
// otherwise. Bulk-synchronous runs report 0.
func (rep *Report) OverlapFraction() float64 {
	var agg stats.Breakdown
	for i := range rep.PerRank {
		for _, s := range Stages {
			agg.Add(rep.PerRank[i].breakdownOf(s))
		}
	}
	return agg.OverlapFraction()
}

// StageMemPeak returns the stage's peak estimated resident bytes across
// ranks — the -breakdown peak-mem column.
func (rep *Report) StageMemPeak(s StageName) int64 {
	var m int64
	for i := range rep.PerRank {
		if v := rep.PerRank[i].MemPeak.of(s); v > m {
			m = v
		}
	}
	return m
}

// StageWall returns the stage's measured host time (max over ranks).
func (rep *Report) StageWall(s StageName) time.Duration {
	var m time.Duration
	for i := range rep.PerRank {
		if w := rep.PerRank[i].breakdownOf(s).TotalWall(); w > m {
			m = w
		}
	}
	return m
}

// TotalVirtual returns the summed per-stage modeled times (the figure
// harness's denominator; within rounding it equals VirtualTime).
func (rep *Report) TotalVirtual() float64 {
	t := 0.0
	for _, s := range Stages {
		t += rep.StageVirtual(s)
	}
	return t
}

// ExchangeVirtual returns the total modeled exchange time across stages.
func (rep *Report) ExchangeVirtual() float64 {
	t := 0.0
	for _, s := range Stages {
		t += rep.StageExchangeVirtual(s)
	}
	return t
}

// AlignImbalance returns the Fig. 8 metric: max over mean of the per-rank
// alignment-stage times. Virtual when modeled, host wall otherwise.
func (rep *Report) AlignImbalance() float64 {
	vals := make([]float64, len(rep.PerRank))
	virtual := rep.VirtualTime > 0
	for i := range rep.PerRank {
		if virtual {
			vals[i] = rep.PerRank[i].Align.TotalVirtual()
		} else {
			vals[i] = rep.PerRank[i].Align.TotalWall().Seconds()
		}
	}
	return stats.Imbalance(vals)
}

// TaskImbalance returns the imbalance in alignment *counts* per rank; the
// paper reports this below 0.002% from the odd/even heuristic.
func (rep *Report) TaskImbalance() float64 {
	vals := make([]float64, len(rep.PerRank))
	for i := range rep.PerRank {
		vals[i] = float64(rep.PerRank[i].Align.Alignments)
	}
	return stats.Imbalance(vals)
}

// overlapConfig builds the overlap stage's configuration (shared by the
// batch stage and the served query epoch's consolidation).
func (cfg *Config) overlapConfig() overlap.Config {
	return overlap.Config{K: cfg.K, Mode: cfg.SeedMode, MinDist: cfg.MinDist, MaxSeeds: cfg.MaxSeeds}
}

// run is the stage driver: optionally emitting stage-boundary
// snapshots (ck) and optionally starting from a restored stage boundary
// (res) instead of the beginning. All ranks call it collectively with
// the same ck/res shape. It composes the same stage objects serve mode
// holds resident (World), dropping the partition after the overlap
// stage as the batch pipeline always has.
func run(c *spmd.Comm, model *machine.Model, store *fastq.ReadStore, cfg Config,
	ck *ckptState, res *resumeState) (RankReport, []Alignment, error) {

	w, err := formWorld(c, model, store, cfg, ck, res)
	if err != nil {
		return RankReport{}, nil, err
	}
	tasks, err := w.overlapStage(ck, res, false)
	if err != nil {
		return RankReport{}, nil, err
	}
	recs := w.alignTasks(tasks)
	return w.rr, recs, nil
}

// ExecuteComm runs the full pipeline collectively on c's world — whatever
// transport backs it — and gathers the global Report with spmd collectives,
// so goroutine ranks and TCP worker processes share one code path. Every
// rank returns a report with identical global counts, but alignment
// Records are assembled on rank 0 only (the output-owning rank; skipping
// the copy and sort elsewhere keeps the gather's cost from scaling with
// ranks that immediately discard it). store must describe the same global
// read set on every rank: either the identical whole store, or each
// rank's endpoint of one cooperative sharded load (LoadStore). ck, when
// non-nil, snapshots the configured stage boundaries as the run passes
// them; nil runs without snapshots.
func ExecuteComm(c *spmd.Comm, model *machine.Model, store *fastq.ReadStore, cfg Config,
	ck *CkptOptions) (*Report, error) {

	// Derive parameters up front so the Report and the snapshot manifest
	// carry the resolved values; derivation is deterministic and identical
	// on every rank.
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	st, err := newCkptState(cfg, model, ck, "")
	if err != nil {
		return nil, err
	}
	return executeGather(c, model, store, cfg, st, nil)
}

// executeGather runs the stage driver on a resolved cfg — with the
// checkpoint writer (ck) and resume state (res) of ExecuteComm and
// ResumeComm threaded through — and gathers the Report.
func executeGather(c *spmd.Comm, model *machine.Model, store *fastq.ReadStore, cfg Config,
	ck *ckptState, res *resumeState) (*Report, error) {

	if model != nil && model.Ranks() != c.Size() {
		return nil, fmt.Errorf("pipeline: model is shaped for %d ranks, running %d", model.Ranks(), c.Size())
	}
	wall := walltime.Now()
	rr, recs, err := run(c, model, store, cfg, ck, res)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Ranks:   c.Size(),
		Config:  cfg,
		Reads:   store.NumReads(),
		PerRank: spmd.Allgather(c, rr),
	}
	if cfg.KeepAlignments {
		// Root gather: records travel to rank 0 only (the output-owning
		// rank), so wire traffic and decode cost don't scale with ranks
		// that would immediately discard them.
		all := spmd.GatherTo(c, recs, 0)
		if c.Rank() == 0 {
			for _, rs := range all {
				rep.Records = append(rep.Records, rs...)
			}
			// Total order over all fields: output must be byte-identical
			// across backends, rank counts, and gather arrival orders.
			sort.Slice(rep.Records, func(i, j int) bool {
				return rep.Records[i].less(&rep.Records[j])
			})
		}
	}
	for i := range rep.PerRank {
		prr := &rep.PerRank[i]
		rep.RetainedKmers += int64(prr.Retained)
		rep.Pairs += prr.Overlap.Pairs
		rep.Alignments += prr.Align.Alignments
		rep.Cells += prr.Align.Cells
		if prr.VirtualTotal > rep.VirtualTime {
			rep.VirtualTime = prr.VirtualTotal
		}
	}
	rep.WallTime = walltime.Since(wall)
	// Teardown trace gather: after every output- and clock-affecting
	// gather above (VirtualTime is already fixed from the rank reports),
	// so the flight recorder stays observability-only. Enabled() is not
	// rank-derived; every rank agrees on it before the world forms.
	if trace.Enabled() {
		if rep.Trace, err = GatherTrace(c); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// less is a total order on alignments so that sorted output is fully
// deterministic (ties on the leading keys are broken by every remaining
// field rather than left to sort instability).
func (a *Alignment) less(b *Alignment) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	if a.AStart != b.AStart {
		return a.AStart < b.AStart
	}
	if a.Strand != b.Strand {
		return a.Strand < b.Strand
	}
	if a.AEnd != b.AEnd {
		return a.AEnd < b.AEnd
	}
	if a.BStart != b.BStart {
		return a.BStart < b.BStart
	}
	if a.BEnd != b.BEnd {
		return a.BEnd < b.BEnd
	}
	return a.Score < b.Score
}

// InProcess runs fn collectively on p goroutine ranks over the in-process
// transport and keeps rank 0's result: the report and the store its PAF
// names come from. It is how one process runs a whole world — Execute, the
// mem-transport CLI, tests and the bench harness wrap ExecuteComm or
// ResumeComm in it. model may be nil (no platform pricing; host wall time
// is still measured).
func InProcess(p int, model *machine.Model,
	fn func(c *spmd.Comm) (*Report, *fastq.ReadStore, error)) (*Report, *fastq.ReadStore, error) {

	var comm spmd.CommModel
	if model != nil {
		comm = model
	}
	var rep *Report
	var store *fastq.ReadStore
	err := spmd.RunWithModel(p, comm, func(c *spmd.Comm) error {
		r, s, err := fn(c)
		if c.Rank() == 0 {
			rep, store = r, s // one writer; RunWithModel's join orders the read
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return rep, store, nil
}

// Execute runs the pipeline across p goroutine ranks over the in-process
// transport and gathers the global Report.
func Execute(p int, model *machine.Model, reads []*fastq.Record, cfg Config) (*Report, error) {
	store := fastq.NewReadStore(reads, p)
	rep, _, err := InProcess(p, model, func(c *spmd.Comm) (*Report, *fastq.ReadStore, error) {
		r, err := ExecuteComm(c, model, store, cfg, nil)
		return r, store, err
	})
	return rep, err
}

// PAFRecords converts kept alignment records into PAF lines using the
// read names from the original record set.
func (rep *Report) PAFRecords(reads []*fastq.Record) []paf.Record {
	return rep.pafRecords(func(id uint32) string { return reads[id].Name })
}

// PAFRecordsFromStore converts kept alignment records into PAF lines
// using the store's global name map — the form a sharded (cooperatively
// loaded) rank uses, where no single slice of records exists.
func (rep *Report) PAFRecordsFromStore(store *fastq.ReadStore) []paf.Record {
	return rep.pafRecords(store.Name)
}

func (rep *Report) pafRecords(name func(uint32) string) []paf.Record {
	return pafFromAlignments(rep.Records, name)
}

// pafFromAlignments renders alignment records as PAF rows under a name
// map — shared by the batch report and the serve-mode query path.
func pafFromAlignments(recs []Alignment, name func(uint32) string) []paf.Record {
	out := make([]paf.Record, 0, len(recs))
	for _, a := range recs {
		out = append(out, paf.Record{
			QName: name(a.A), QLen: a.ALen, QStart: a.AStart, QEnd: a.AEnd,
			Strand: a.Strand,
			TName:  name(a.B), TLen: a.BLen, TStart: a.BStart, TEnd: a.BEnd,
			Score: a.Score, NSeeds: a.SeedsConsumed,
		})
	}
	return out
}

// Summary renders the run the way diBELLA logs it. The seed field names
// the seeding mode (exact k-mers or (w,k)-minimizers); the sched field the
// exchange schedule; the overlap field is the fraction of exchange cost
// hidden under computation by non-blocking or streamed exchanges (0% for
// the bulk-synchronous schedule).
func (rep *Report) Summary() string {
	seed := "exact"
	if rep.Config.MinimizerWindow > 1 {
		seed = fmt.Sprintf("minimizer(w=%d)", rep.Config.MinimizerWindow)
	}
	return fmt.Sprintf(
		"ranks=%d reads=%d k=%d m=%d seed=%s retained=%d pairs=%d alignments=%d cells=%d sched=%s overlap=%.0f%% virtual=%.3fs wall=%v",
		rep.Ranks, rep.Reads, rep.Config.K, rep.Config.MaxFreq, seed,
		rep.RetainedKmers, rep.Pairs, rep.Alignments, rep.Cells,
		rep.Config.Exchange, rep.OverlapFraction()*100,
		rep.VirtualTime, rep.WallTime.Round(time.Millisecond))
}
