package figures

// The perf-trajectory benchmark: a small fixed workload run under the
// exchange schedules, distilled into a machine-readable snapshot that CI
// uploads (BENCH_PR<N>.json). Successive PRs commit comparable
// files, so the repo accumulates a history of how the hot paths move;
// every field is deterministic, and CI fails unless a fresh run is
// byte-identical to the committed snapshot.

import (
	"fmt"
	"math"
	"os"
	"sort"

	"dibella/internal/evalx"
	"dibella/internal/fastq"
	"dibella/internal/kmer"
	"dibella/internal/machine"
	"dibella/internal/pipeline"
	"dibella/internal/spmd"
	"dibella/internal/trace"
)

// benchReplyChunk / benchReplyDepth fix the streamed schedule's shape on
// the bench workload: at scale 0.02 each rank's per-peer reply payload is
// a few KB, so 8 KB chunks give the stream several rounds to hide while
// staying clear of the latency-degenerate regime.
const (
	benchReplyChunk = 8 << 10
	benchReplyDepth = 4
	// benchSweepChunk is the chunk size of the depth sweep: small enough
	// that every depth in the sweep has rounds left to keep in flight.
	benchSweepChunk = 2 << 10
	// benchMinimizerWindow is the minimizer schedule's window: w=5 is the
	// recall/volume sweet spot the trade-off study (minimizer_recall)
	// brackets with w=3 and w=9.
	benchMinimizerWindow = 5
	// benchMinOverlap is the ground-truth overlap threshold of the recall
	// study (the paper's reportable-overlap floor).
	benchMinOverlap = 2000
	// Serve-schedule shape: the workload's read tail becomes
	// benchServeBatches query batches of benchServeBatchReads reads;
	// arrivals are spaced so the daemon runs at benchServeUtilization of
	// its measured service rate, which keeps a queue forming without
	// running away.
	benchServeBatches     = 12
	benchServeBatchReads  = 6
	benchServeUtilization = 0.75
	// benchServeBurst groups arrivals: each burst's batches land at the
	// same instant, bursts spaced to hold the mean rate at the target
	// utilization. Evenly-spaced deterministic arrivals below saturation
	// never queue (D/D/1), so an unbursty trace would pin both wait
	// percentiles at zero and the snapshot would track nothing.
	benchServeBurst = 4
)

// BenchRun is one schedule's numbers on the bench workload.
type BenchRun struct {
	VirtualSeconds       float64 `json:"virtual_seconds"`
	BloomHashVirtual     float64 `json:"bloom_hash_virtual_seconds"`
	ExchangeVirtual      float64 `json:"exchange_virtual_seconds"`
	OverlapFraction      float64 `json:"overlap_fraction"`
	AlignOverlapFraction float64 `json:"align_overlap_fraction"`
	Alignments           int64   `json:"alignments"`
	AlignmentsPerVirtual float64 `json:"alignments_per_virtual_second"`
	// ExchangeBytes is the total exchange payload packed across all four
	// stages; BuildExchangeBytes is the Bloom+Hash (index build) share —
	// the volume minimizer seeding attacks.
	ExchangeBytes      int64 `json:"exchange_bytes"`
	BuildExchangeBytes int64 `json:"build_exchange_bytes"`
}

// RecallPoint is one window of the minimizer recall/volume trade-off
// study, scored by internal/evalx against the generator's ground truth.
// Window 0 is the exact-k-mer baseline; BuildByteRatio is relative to it.
type RecallPoint struct {
	Window         int     `json:"window"`
	Recall         float64 `json:"recall"`
	Precision      float64 `json:"precision"`
	F1             float64 `json:"f1"`
	BuildByteRatio float64 `json:"build_byte_ratio"`
	VirtualSeconds float64 `json:"virtual_seconds"`
}

// DepthPoint is one entry of the streamed depth sweep: the same workload
// and chunk size with a different number of reply chunk rounds in flight.
type DepthPoint struct {
	Depth                int     `json:"depth"`
	VirtualSeconds       float64 `json:"virtual_seconds"`
	AlignOverlapFraction float64 `json:"align_overlap_fraction"`
}

// ServeBench is the serve schedule's snapshot: the bench workload's read
// tail served as query batches against the resident index under a
// synthetic deterministic arrival trace, all on the modeled clock — so
// throughput (modeled QPS) and queue-wait percentiles are comparable
// across PRs exactly like the batch schedules' virtual seconds.
type ServeBench struct {
	Batches    int `json:"batches"`
	BatchReads int `json:"batch_reads"`
	// ArrivalSpacing is the synthetic trace's inter-arrival gap: the
	// first batch's service time divided by benchServeUtilization.
	ArrivalSpacing float64 `json:"arrival_spacing_virtual_seconds"`
	// VirtualSeconds is the modeled completion time of the last batch
	// (admission and every query collective priced).
	VirtualSeconds float64 `json:"virtual_seconds"`
	ModeledQPS     float64 `json:"modeled_qps"`
	MeanService    float64 `json:"mean_service_virtual_seconds"`
	P50QueueWait   float64 `json:"p50_queue_wait_virtual_seconds"`
	P99QueueWait   float64 `json:"p99_queue_wait_virtual_seconds"`
	Alignments     int64   `json:"alignments"`
}

// BenchResult is the full snapshot: the same workload under the
// bulk-synchronous and the streamed chunked-reply schedules, modeled as a
// Cori job, plus a pipelining-depth
// sweep of the streamed reply (the ROADMAP's depth>2 question) and a
// checkpoint-enabled run (streamed schedule + snapshots at every stage
// boundary, the snapshot I/O priced by the machine model) so the
// checkpoint overhead is visible in the perf trajectory.
type BenchResult struct {
	Workload        string   `json:"workload"`
	Platform        string   `json:"platform"`
	Nodes           int      `json:"nodes"`
	SimRanks        int      `json:"sim_ranks"`
	Reads           int      `json:"reads"`
	ReplyChunkBytes int      `json:"reply_chunk_bytes"`
	ReplyDepth      int      `json:"reply_depth"`
	Sync            BenchRun `json:"sync"`
	Streamed        BenchRun `json:"streamed"`
	Ckpt            BenchRun `json:"ckpt"`
	CkptOverhead    float64  `json:"ckpt_overhead_fraction"`
	// Traced is the streamed run repeated with the flight recorder armed.
	// The recorder must never touch the modeled clock, so its
	// virtual_seconds is required to be bit-identical to Streamed's — the
	// bench fails otherwise rather than committing a snapshot of a broken
	// recorder. (Its wall cost is the interleaved harness's to measure:
	// bench/'s trace.traced_wall_ratio.)
	Traced          BenchRun     `json:"traced"`
	SpeedupStreamed float64      `json:"modeled_speedup_streamed_over_sync"`
	SweepChunkBytes int          `json:"sweep_chunk_bytes"`
	DepthSweep      []DepthPoint `json:"streamed_depth_sweep"`
	// Minimizer is the streamed schedule rerun with -seed minimizer at
	// MinimizerWindow: same workload and exchange shape, sparser seed set.
	// MinimizerByteRatio compares its build exchange bytes against the
	// exact streamed run's; PredictedDensity is the 2/(w+1) expectation the
	// ratio should land within ~15% of.
	Minimizer          BenchRun      `json:"minimizer"`
	MinimizerWindow    int           `json:"minimizer_window"`
	PredictedDensity   float64       `json:"minimizer_predicted_density"`
	MinimizerByteRatio float64       `json:"minimizer_build_byte_ratio"`
	SpeedupMinimizer   float64       `json:"modeled_speedup_minimizer_over_streamed"`
	MinimizerRecall    []RecallPoint `json:"minimizer_recall"`
	// Serve is the resident-daemon schedule (see ServeBench).
	Serve *ServeBench `json:"serve"`
}

// ExchangeBench runs the schedule comparison on the E. coli 30x one-seed
// workload at the harness scale, modeled as an 8-node Cori job. All runs
// execute the identical dataset; only the exchange schedule (and, in the
// depth sweep, the streamed pipelining depth) differs.
func ExchangeBench(o *Options) (*BenchResult, error) {
	o.setDefaults()
	reads, err := o.Reads30x()
	if err != nil {
		return nil, err
	}
	const nodes = 8
	p := o.simRanks(nodes)
	run := func(mode pipeline.ExchangeMode, chunk, depth, window int, ck *pipeline.CkptOptions) (BenchRun, error) {
		mdl, err := machine.NewModelScaled(machine.Cori, nodes, p)
		if err != nil {
			return BenchRun{}, err
		}
		cfg := oneSeedConfig()
		cfg.Exchange = mode
		cfg.ReplyChunk, cfg.ReplyDepth = chunk, depth
		cfg.MinimizerWindow = window
		store := fastq.NewReadStore(reads, p)
		rep, _, err := pipeline.InProcess(p, mdl, func(c *spmd.Comm) (*pipeline.Report, *fastq.ReadStore, error) {
			r, err := pipeline.ExecuteComm(c, mdl, store, cfg, ck)
			return r, store, err
		})
		if err != nil {
			return BenchRun{}, err
		}
		o.logf("bench exchange=%v chunk=%d depth=%d window=%d ckpt=%v: %s", mode, chunk, depth, window, ck != nil, rep.Summary())
		bh := rep.StageVirtual(pipeline.StageBloom) + rep.StageVirtual(pipeline.StageHash)
		br := BenchRun{
			VirtualSeconds:   rep.TotalVirtual(),
			BloomHashVirtual: bh,
			ExchangeVirtual:  rep.ExchangeVirtual(),
			OverlapFraction:  rep.OverlapFraction(),
			Alignments:       rep.Alignments,
			ExchangeBytes:    rep.ExchangeBytes(),
			BuildExchangeBytes: rep.StageExchangeBytes(pipeline.StageBloom) +
				rep.StageExchangeBytes(pipeline.StageHash),
		}
		if ex := rep.StageExchangeVirtual(pipeline.StageAlign); ex > 0 {
			br.AlignOverlapFraction = rep.StageOverlapVirtual(pipeline.StageAlign) / ex
		}
		if br.VirtualSeconds > 0 {
			br.AlignmentsPerVirtual = float64(rep.Alignments) / br.VirtualSeconds
		}
		return br, nil
	}
	syncRun, err := run(pipeline.ExchangeSync, 0, 0, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("figures: sync bench: %w", err)
	}
	streamRun, err := run(pipeline.ExchangeStreamed, benchReplyChunk, benchReplyDepth, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("figures: streamed bench: %w", err)
	}
	minRun, err := run(pipeline.ExchangeStreamed, benchReplyChunk, benchReplyDepth, benchMinimizerWindow, nil)
	if err != nil {
		return nil, fmt.Errorf("figures: minimizer bench: %w", err)
	}
	// The checkpointed run: the streamed schedule plus snapshots at every
	// stage boundary, written to a scratch directory and priced by the
	// machine model — the bench's record of what durability costs.
	ckDir, err := os.MkdirTemp("", "dibella-bench-ckpt-")
	if err != nil {
		return nil, fmt.Errorf("figures: ckpt bench scratch dir: %w", err)
	}
	defer os.RemoveAll(ckDir)
	ckptRun, err := run(pipeline.ExchangeStreamed, benchReplyChunk, benchReplyDepth, 0,
		&pipeline.CkptOptions{Dir: ckDir})
	if err != nil {
		return nil, fmt.Errorf("figures: ckpt bench: %w", err)
	}
	// The traced rerun: same streamed schedule with the flight recorder
	// armed, held to the untraced run's modeled clock below.
	wasEnabled := trace.Enabled()
	trace.Enable(trace.DefaultCapacity)
	tracedRun, err := run(pipeline.ExchangeStreamed, benchReplyChunk, benchReplyDepth, 0, nil)
	if !wasEnabled {
		trace.Disable()
	}
	if err != nil {
		return nil, fmt.Errorf("figures: traced bench: %w", err)
	}
	if math.Float64bits(tracedRun.VirtualSeconds) != math.Float64bits(streamRun.VirtualSeconds) {
		return nil, fmt.Errorf("figures: traced bench perturbed the modeled clock: %v traced vs %v streamed",
			tracedRun.VirtualSeconds, streamRun.VirtualSeconds)
	}
	res := &BenchResult{
		Workload: fmt.Sprintf("E. coli 30x one-seed, scale %g, seed %d", o.Scale, o.Seed),
		Platform: machine.Cori.Name, Nodes: nodes, SimRanks: p,
		Reads:           len(reads),
		ReplyChunkBytes: benchReplyChunk, ReplyDepth: benchReplyDepth,
		Sync: syncRun, Streamed: streamRun, Ckpt: ckptRun,
		Traced:           tracedRun,
		SweepChunkBytes:  benchSweepChunk,
		Minimizer:        minRun,
		MinimizerWindow:  benchMinimizerWindow,
		PredictedDensity: kmer.MinimizerDensity(benchMinimizerWindow),
	}
	if streamRun.VirtualSeconds > 0 {
		res.SpeedupStreamed = syncRun.VirtualSeconds / streamRun.VirtualSeconds
		res.CkptOverhead = ckptRun.VirtualSeconds/streamRun.VirtualSeconds - 1
	}
	if streamRun.BuildExchangeBytes > 0 {
		res.MinimizerByteRatio = float64(minRun.BuildExchangeBytes) / float64(streamRun.BuildExchangeBytes)
	}
	if minRun.VirtualSeconds > 0 {
		res.SpeedupMinimizer = streamRun.VirtualSeconds / minRun.VirtualSeconds
	}
	if res.MinimizerRecall, err = minimizerRecallStudy(o, nodes, p); err != nil {
		return nil, err
	}
	for _, depth := range []int{1, 2, 4, spmd.MaxStreamDepth} {
		dr, err := run(pipeline.ExchangeStreamed, benchSweepChunk, depth, 0, nil)
		if err != nil {
			return nil, fmt.Errorf("figures: streamed depth-%d bench: %w", depth, err)
		}
		res.DepthSweep = append(res.DepthSweep, DepthPoint{
			Depth:                depth,
			VirtualSeconds:       dr.VirtualSeconds,
			AlignOverlapFraction: dr.AlignOverlapFraction,
		})
	}
	if res.Serve, err = serveBench(o, nodes, p); err != nil {
		return nil, fmt.Errorf("figures: serve bench: %w", err)
	}
	return res, nil
}

// serveBench runs the serve schedule: form the resident world over the
// workload minus its query tail, then answer the tail as query batches
// under a deterministic synthetic arrival trace. Arrival i lands at
// i*spacing on the modeled clock; service is serial in admission order
// (the daemon's SPMD loop), so batch i starts at max(arrival_i,
// finish_{i-1}) and its queue wait is the difference.
func serveBench(o *Options, nodes, p int) (*ServeBench, error) {
	reads, err := o.Reads30x()
	if err != nil {
		return nil, err
	}
	nq := benchServeBatches * benchServeBatchReads
	if len(reads) < nq+32 {
		return nil, fmt.Errorf("figures: serve bench needs >= %d reads, workload has %d (raise -scale)", nq+32, len(reads))
	}
	mdl, err := machine.NewModelScaled(machine.Cori, nodes, p)
	if err != nil {
		return nil, err
	}
	indexed := reads[:len(reads)-nq]
	batches := make([][]pipeline.QueryRead, benchServeBatches)
	for i, r := range reads[len(reads)-nq:] {
		b := i / benchServeBatchReads
		batches[b] = append(batches[b], pipeline.QueryRead{Name: r.Name, Seq: r.Seq})
	}
	var sb *ServeBench
	err = spmd.RunWithModel(p, mdl, func(c *spmd.Comm) error {
		cfg := oneSeedConfig()
		cfg.KeepAlignments = true
		cfg.KeepSingletons = true // the resident index keeps singletons
		store := fastq.NewReadStore(indexed, c.Size())
		w, err := pipeline.FormWorld(c, mdl, store, cfg)
		if err != nil {
			return err
		}
		var (
			service, waits, finish []float64
			aligns                 int64
			spacing                float64
		)
		// Bursty arrival trace: burst k's batches all land at
		// k*burst*spacing, so intra-burst batches queue behind each other
		// while the mean rate stays at the target utilization.
		arrival := func(i int) float64 {
			return float64(i/benchServeBurst) * benchServeBurst * spacing
		}
		for i, batch := range batches {
			if c.Rank() == 0 {
				var reqBytes int
				for _, q := range batch {
					reqBytes += len(q.Seq)
				}
				c.Tick(mdl.QueryAdmitTime(float64(reqBytes)))
			}
			v0 := c.Now()
			recs, err := w.RunQuery(0, batch)
			if err != nil {
				return err
			}
			if c.Rank() != 0 {
				continue
			}
			sv := c.Now() - v0
			if i == 0 {
				spacing = sv / benchServeUtilization
			}
			ai := arrival(i)
			start := ai
			if n := len(finish); n > 0 && finish[n-1] > start {
				start = finish[n-1]
			}
			service = append(service, sv)
			waits = append(waits, start-ai)
			finish = append(finish, start+sv)
			aligns += int64(len(recs))
		}
		if c.Rank() != 0 {
			return nil
		}
		var meanSv float64
		for _, s := range service {
			meanSv += s
		}
		meanSv /= float64(len(service))
		sorted := append([]float64(nil), waits...)
		sort.Float64s(sorted)
		last := finish[len(finish)-1]
		sb = &ServeBench{
			Batches: benchServeBatches, BatchReads: benchServeBatchReads,
			ArrivalSpacing: spacing,
			VirtualSeconds: last,
			ModeledQPS:     float64(len(service)) / last,
			MeanService:    meanSv,
			P50QueueWait:   percentile(sorted, 0.50),
			P99QueueWait:   percentile(sorted, 0.99),
			Alignments:     aligns,
		}
		o.logf("bench serve: %d batches, qps=%.2f p50 wait=%.4fs p99 wait=%.4fs",
			sb.Batches, sb.ModeledQPS, sb.P50QueueWait, sb.P99QueueWait)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sb, nil
}

// percentile is the nearest-rank percentile of an ascending-sorted slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// minimizerRecallStudy quantifies the sensitivity minimizer seeding trades
// for exchange volume: the bench workload rerun at windows 0 (exact
// baseline), 3, 5, and 9 with alignments retained, each prediction set
// scored by evalx against the generator's ground-truth overlaps.
func minimizerRecallStudy(o *Options, nodes, p int) ([]RecallPoint, error) {
	ds, err := o.Dataset30x()
	if err != nil {
		return nil, err
	}
	var out []RecallPoint
	var exactBytes int64
	for _, w := range []int{0, 3, 5, 9} {
		mdl, err := machine.NewModelScaled(machine.Cori, nodes, p)
		if err != nil {
			return nil, err
		}
		cfg := oneSeedConfig()
		cfg.MinimizerWindow = w
		cfg.KeepAlignments = true
		rep, err := pipeline.Execute(p, mdl, ds.Reads, cfg)
		if err != nil {
			return nil, fmt.Errorf("figures: recall study w=%d: %w", w, err)
		}
		pairs := make([]evalx.Pair, 0, len(rep.Records))
		for _, a := range rep.Records {
			pairs = append(pairs, evalx.Canon(a.A, a.B))
		}
		res := evalx.Evaluate(ds, pairs, benchMinOverlap)
		build := rep.StageExchangeBytes(pipeline.StageBloom) + rep.StageExchangeBytes(pipeline.StageHash)
		if w == 0 {
			exactBytes = build
		}
		pt := RecallPoint{
			Window: w, Recall: res.Recall(), Precision: res.Precision(), F1: res.F1(),
			VirtualSeconds: rep.TotalVirtual(),
		}
		if exactBytes > 0 {
			pt.BuildByteRatio = float64(build) / float64(exactBytes)
		}
		o.logf("recall study w=%d: %s (build bytes %.3f of exact)", w, res, pt.BuildByteRatio)
		out = append(out, pt)
	}
	return out, nil
}
