package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dibella/internal/align"
	"dibella/internal/bloom"
	"dibella/internal/dht"
	"dibella/internal/dna"
	"dibella/internal/fastq"
	"dibella/internal/kmer"
	"dibella/internal/overlap"
	"dibella/internal/paf"
	"dibella/internal/pipeline"
	"dibella/internal/serve"
	"dibella/internal/spmd"
	"dibella/internal/trace"
)

// Repetition counts: the first repetition of a call is the traced one (it
// carries the spans, and warms caches) and is left out of the quartile.
const (
	cheapReps = 6 // calls of milliseconds: 5 timed
	heavyReps = 4 // calls of a large share of a second: 3 timed, to stay inside the time cap
)

// sink receives counts the timed loops produce, so the loops stay live.
var sink int

// cost is what one repeated call took.
type cost struct {
	secs      float64 // lower quartile over the untraced repetitions
	first     float64 // repetition 0, the traced one
	allocs    float64 // median heap objects allocated per call, whole process
	bytes     float64 // median heap bytes allocated per call
	gcPauseMS float64 // median stop-the-world pause total per call
	gcCycles  float64 // median completed GC cycles per call
}

// timed calls fn reps times with its repetition number, timing each call
// and taking runtime.MemStats deltas around it.
func timed(reps int, fn func(rep int) error) (cost, error) {
	var secs, allocs, byts, pause, cycles []float64
	var c cost
	var m0, m1 runtime.MemStats
	for rep := 0; rep < reps; rep++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := fn(rep); err != nil {
			return cost{}, err
		}
		d := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		if rep == 0 {
			c.first = d
			continue
		}
		secs = append(secs, d)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		byts = append(byts, float64(m1.TotalAlloc-m0.TotalAlloc))
		pause = append(pause, float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
		cycles = append(cycles, float64(m1.NumGC-m0.NumGC))
	}
	c.secs = quantile(secs, 0.25)
	c.allocs, c.bytes = quantile(allocs, 0.5), quantile(byts, 0.5)
	c.gcPauseMS, c.gcCycles = quantile(pause, 0.5), quantile(cycles, 0.5)
	return c, nil
}

// ladder measures every layer on one workload instance's own data, from
// the harness process, through the layers' public functions. Repetition 0
// of the calls that make up a batch run (parse, build, overlap, align
// replay, PAF write, and one whole pipeline.Execute) is the traced replay.
type ladder struct {
	b     *bench
	in    *instance
	cfg   pipeline.Config
	m     map[string]float64
	tr    *tracer
	spin  []float64 // one probe before each rung: how disturbed the host was
	tally tally     // program runs and served queries, all checked

	reads []*fastq.Record
	store *fastq.ReadStore
	bases int
	parts [ranks]*dht.Partition // last dht.Build, per rank
	tasks []overlap.Task        // last overlap.Run, all ranks
	rep   *pipeline.Report      // last pipeline.Execute

	replayTraced, replayUntraced float64 // summed over the replay's calls
}

// perLayer runs the rungs that read the instance's data and returns their
// metrics and the spans of the traced replay.
func (b *bench) perLayer(in *instance) (map[string]float64, *tracer, tally, error) {
	cfg := in.w.pipelineConfig()
	l := &ladder{
		b: b, in: in, cfg: cfg, m: make(map[string]float64), tr: newTracer(),
		reads: in.ds.Reads, store: fastq.NewReadStore(in.ds.Reads, ranks),
	}
	for _, r := range l.reads {
		l.bases += len(r.Seq)
	}
	st0, t0 := stolenSeconds(), time.Now()
	err := l.climb([]rung{
		{"program", l.program}, {"fastq", l.fastq}, {"kmer", l.kmer}, {"bloom", l.bloom},
		{"dht", l.dht}, {"overlap", l.overlap}, {"pipeline", l.pipeline}, {"align", l.align},
		{"paf", l.paf}, {"serve", l.serve},
	})
	if err != nil {
		return nil, nil, l.tally, err
	}
	l.m["host.nproc"] = float64(runtime.NumCPU())
	l.m["host.spin_ms_p25"] = quantile(l.spin, 0.25) * 1e3
	l.m["host.spin_ms_max"] = quantile(l.spin, 1) * 1e3
	l.m["host.stolen_fraction"] = (stolenSeconds() - st0) / (time.Since(t0).Seconds() * float64(runtime.NumCPU()))
	l.m["bench.span_overhead_fraction"] = l.replayTraced/l.replayUntraced - 1
	return l.m, l.tr, l.tally, nil
}

// sharedLayers measures the rungs that touch no workload's data — the
// collectives on synthetic 4-rank payloads and the recorder's emit cost.
// They are measured once per invocation and every workload's sheet carries
// the same values.
func (b *bench) sharedLayers() (map[string]float64, error) {
	l := &ladder{b: b, m: make(map[string]float64)}
	err := l.climb([]rung{{"spmd.mem", l.spmdMem}, {"spmd.tcp", l.spmdTCP}, {"trace", l.traceEmit}})
	return l.m, err
}

type rung struct {
	name string
	run  func() error
}

// climb runs the rungs in order, a host probe before each.
func (l *ladder) climb(rungs []rung) error {
	for _, r := range rungs {
		l.spin = append(l.spin, probe())
		t0 := time.Now()
		if err := r.run(); err != nil {
			return fmt.Errorf("layer %s: %w", r.name, err)
		}
		l.b.logf("  %-9s %6.2fs", r.name, time.Since(t0).Seconds())
	}
	return nil
}

// tracerFor gives repetition 0 the tracer and every other repetition none.
func (l *ladder) tracerFor(rep int) *tracer {
	if rep == 0 {
		return l.tr
	}
	return nil
}

// replayed adds one call of the traced replay to the span-overhead sums.
func (l *ladder) replayed(c cost) {
	l.replayTraced += c.first
	l.replayUntraced += c.secs
}

// program times the built binary on the instance's full read set, with
// and without its own -trace flag, alternating. It also makes the
// reference PAF where set-up did not (a serve workload's set-up makes
// per-query references instead).
func (l *ladder) program() error {
	in, dir := l.in, filepath.Dir(l.in.allPath)
	if in.refPAF == nil {
		if err := l.b.reference(in); err != nil {
			return err
		}
	}
	tracePath := filepath.Join(dir, "program-trace.json")
	var plain, traced []float64
	for round := 0; round < heavyReps; round++ {
		for _, withTrace := range []bool{false, true} {
			args := in.w.args
			if withTrace {
				args = append(append([]string(nil), args...), "-trace", tracePath)
			}
			u, out, err := l.b.dibella(in.allPath, filepath.Join(dir, "out.paf"), ranks, args...)
			if err == nil {
				err = checkPAF(out, in.refPAF)
			}
			if !l.tally.ok(err) {
				return err
			}
			if round == 0 {
				continue // warm-up
			}
			if withTrace {
				traced = append(traced, u.Wall)
			} else {
				plain = append(plain, u.Wall)
			}
		}
	}
	blob, err := os.ReadFile(tracePath)
	if err != nil {
		return err
	}
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		return fmt.Errorf("program trace: %w", err)
	}
	l.m["trace.events_per_run"] = float64(len(file.TraceEvents))
	l.m["trace.traced_wall_ratio"] = quantile(traced, 0.25) / quantile(plain, 0.25)
	l.m["pipeline.speedup_p2_over_p1"] = in.refWall / quantile(plain, 0.25)
	return nil
}

func (l *ladder) fastq() error {
	path := l.in.allPath
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	var recs []*fastq.Record
	c, err := timed(cheapReps, func(rep int) error {
		tr := l.tracerFor(rep)
		id := tr.begin("fastq.ReadFile", -1, 0)
		defer tr.end(id)
		recs, err = fastq.ReadFile(path)
		return err
	})
	if err != nil {
		return err
	}
	if len(recs) != len(l.reads) {
		return fmt.Errorf("parsed %d reads, generated %d", len(recs), len(l.reads))
	}
	l.replayed(c)
	l.m["fastq.parse_mb_per_s"] = float64(st.Size()) / 1e6 / c.secs
	l.m["fastq.parse_allocs_per_read"] = c.allocs / float64(len(recs))

	var parsed int64
	c, err = timed(cheapReps, func(int) error {
		_, parsed, err = fastq.LoadShard(path, 0, ranks)
		return err
	})
	l.m["fastq.shard_load_mb_per_s"] = float64(parsed) / 1e6 / c.secs
	return err
}

func (l *ladder) kmer() error {
	var n int
	c, _ := timed(cheapReps, func(int) error {
		n = 0
		for id, r := range l.reads {
			sc := kmer.NewScanner(r.Seq, l.cfg.K, uint32(id))
			for {
				if _, ok := sc.Next(); !ok {
					break
				}
				n++
			}
		}
		return nil
	})
	sink += n
	l.m["kmer.scan_mb_per_s"] = float64(l.bases) / 1e6 / c.secs
	// Always w=5, the minimizer workload's window, so the rung reads the
	// same on every workload's data.
	c, _ = timed(cheapReps, func(int) error {
		n = 0
		for id, r := range l.reads {
			n += len(kmer.Minimizers(r.Seq, l.cfg.K, 5, uint32(id)))
		}
		return nil
	})
	if n == 0 {
		return fmt.Errorf("no minimizers extracted")
	}
	l.m["kmer.minimizer_mb_per_s"] = float64(l.bases) / 1e6 / c.secs
	l.m["kmer.minimizer_allocs_per_read"] = c.allocs / float64(len(l.reads))
	return nil
}

// bloom sizes a filter as dht.Build does — for the workload's k-mer bag at
// the configured 0.01 — and measures insert+test cost and the false
// positive rate it actually delivers on keys never inserted.
func (l *ladder) bloom() error {
	hashes := make([]uint64, 0, l.bases)
	for id, r := range l.reads {
		sc := kmer.NewScanner(r.Seq, l.cfg.K, uint32(id))
		for {
			ex, ok := sc.Next()
			if !ok {
				break
			}
			hashes = append(hashes, ex.Kmer.Hash())
		}
	}
	f := bloom.NewWithEstimate(uint64(len(hashes)), 0.01)
	seenBefore := 0
	c, _ := timed(heavyReps, func(int) error {
		f.Reset()
		seenBefore = 0
		for _, h := range hashes {
			if f.InsertAndTest(h) {
				seenBefore++
			}
		}
		return nil
	})
	sink += seenBefore
	l.m["bloom.insert_test_ns"] = c.secs / float64(len(hashes)) * 1e9
	rng := rand.New(rand.NewSource(l.b.seed))
	fp := 0
	for range hashes {
		if f.Contains(rng.Uint64()) {
			fp++
		}
	}
	l.m["bloom.fp_rate"] = float64(fp) / float64(len(hashes))
	return nil
}

// localReads is rank's block of the store, as pipeline.FormWorld hands it
// to dht.Build.
func localReads(store *fastq.ReadStore, rank int) dht.LocalReads {
	start, end := store.LocalIDs(rank)
	local := dht.LocalReads{IDStart: start}
	for id := start; id < end; id++ {
		local.Seqs = append(local.Seqs, store.Seq(id))
	}
	return local
}

func (l *ladder) dht() error {
	dcfg := dht.Config{
		K: l.cfg.K, MaxFreq: l.cfg.MaxFreq, ErrorRate: l.cfg.ErrorRate,
		MinimizerWindow: l.cfg.MinimizerWindow, Async: true,
	}
	var stats [ranks]dht.BuildStats
	var bloomS, hashS []float64
	c, err := timed(heavyReps, func(rep int) error {
		tr := l.tracerFor(rep)
		run := tr.begin("spmd.Run(dht.Build)", -1, 0)
		defer tr.end(run)
		err := spmd.Run(ranks, func(c *spmd.Comm) error {
			id := tr.begin("dht.Build", run, c.Rank())
			defer tr.end(id)
			part, bs, err := dht.Build(c, nil, localReads(l.store, c.Rank()), dcfg)
			l.parts[c.Rank()], stats[c.Rank()] = part, bs
			return err
		})
		var bl, hs float64
		for _, bs := range stats {
			bl = max(bl, bs.Bloom.TotalWall().Seconds())
			hs = max(hs, bs.Hash.TotalWall().Seconds())
		}
		bloomS, hashS = append(bloomS, bl), append(hashS, hs)
		return err
	})
	if err != nil {
		return err
	}
	l.replayed(c)
	var exchanged int64
	retained := 0
	for _, bs := range stats {
		exchanged += bs.Bloom.BytesPacked + bs.Hash.BytesPacked
		retained += bs.Retained
	}
	l.m["dht.build_s"] = c.secs
	l.m["dht.bloom_pass_s"] = quantile(bloomS, 0.25)
	l.m["dht.hash_pass_s"] = quantile(hashS, 0.25)
	l.m["dht.build_alloc_mb"] = c.bytes / 1e6
	l.m["dht.build_allocs"] = c.allocs
	l.m["dht.build_exchange_mb"] = float64(exchanged) / 1e6
	l.m["dht.retained_kmers"] = float64(retained)
	return nil
}

func (l *ladder) overlap() error {
	ocfg := overlap.Config{K: l.cfg.K, Mode: l.cfg.SeedMode, MinDist: l.cfg.MinDist}
	var tasks [ranks][]overlap.Task
	var stats [ranks]overlap.Stats
	c, err := timed(heavyReps, func(rep int) error {
		tr := l.tracerFor(rep)
		run := tr.begin("spmd.Run(overlap.Run)", -1, 0)
		defer tr.end(run)
		return spmd.Run(ranks, func(c *spmd.Comm) error {
			id := tr.begin("overlap.Run", run, c.Rank())
			defer tr.end(id)
			var err error
			tasks[c.Rank()], stats[c.Rank()], err = overlap.Run(c, nil, l.parts[c.Rank()], l.store.Owner, ocfg)
			return err
		})
	})
	if err != nil {
		return err
	}
	l.replayed(c)
	var pairs int64
	l.tasks = nil
	for r := range tasks {
		l.tasks = append(l.tasks, tasks[r]...)
		pairs += stats[r].Pairs
	}
	l.m["overlap.run_s"] = c.secs
	l.m["overlap.pairs"] = float64(pairs)
	l.m["overlap.tasks"] = float64(len(l.tasks))
	l.m["overlap.pairs_per_s"] = float64(pairs) / c.secs
	return nil
}

// pipeline runs the whole in-process pipeline on 2 mem ranks and reads the
// stage split, exchange accounting and allocation cost off its Report.
func (l *ladder) pipeline() error {
	var reps []*pipeline.Report
	c, err := timed(heavyReps, func(rep int) error {
		tr := l.tracerFor(rep)
		id := tr.begin("pipeline.Execute", -1, 0)
		r, err := pipeline.Execute(ranks, nil, l.reads, l.cfg)
		tr.end(id)
		if err != nil {
			return err
		}
		if tr != nil {
			executeSpans(tr, id, r)
		}
		reps = append(reps, r)
		return nil
	})
	if err != nil {
		return err
	}
	l.rep = reps[len(reps)-1]
	// The in-process configuration mirrors the program's flags only if the
	// two produce the same bytes.
	var buf bytes.Buffer
	if err := paf.Write(&buf, l.rep.PAFRecords(l.reads)); err != nil {
		return err
	}
	if err := checkPAF(buf.Bytes(), l.in.refPAF); err != nil {
		return fmt.Errorf("in-process pipeline.Execute vs program: %w", err)
	}
	over := func(f func(r *pipeline.Report) float64) float64 {
		var xs []float64
		for _, r := range reps[1:] {
			xs = append(xs, f(r))
		}
		return quantile(xs, 0.25)
	}
	stageWall := func(s pipeline.StageName) float64 {
		return over(func(r *pipeline.Report) float64 { return r.StageWall(s).Seconds() })
	}
	l.m["pipeline.bloom_wall_s"] = stageWall(pipeline.StageBloom)
	l.m["pipeline.hash_wall_s"] = stageWall(pipeline.StageHash)
	l.m["pipeline.overlap_wall_s"] = stageWall(pipeline.StageOverlap)
	l.m["pipeline.align_wall_s"] = stageWall(pipeline.StageAlign)
	l.m["pipeline.exchange_blocked_s"] = over(func(r *pipeline.Report) float64 {
		var worst float64
		for i := range r.PerRank {
			rr := &r.PerRank[i]
			blocked := rr.Bloom.ExchangeWall + rr.Hash.ExchangeWall + rr.Overlap.ExchangeWall + rr.Align.ExchangeWall
			worst = max(worst, blocked.Seconds())
		}
		return worst
	})
	l.m["pipeline.exchange_hidden_fraction"] = over((*pipeline.Report).OverlapFraction)
	l.m["pipeline.align_imbalance"] = over((*pipeline.Report).AlignImbalance)
	l.m["pipeline.exchange_mb"] = float64(l.rep.ExchangeBytes()) / 1e6
	var memPeak int64
	for _, s := range pipeline.Stages {
		memPeak = max(memPeak, l.rep.StageMemPeak(s))
	}
	l.m["pipeline.stage_mem_peak_mb"] = float64(memPeak) / 1e6
	l.m["pipeline.alloc_mb"] = c.bytes / 1e6
	l.m["pipeline.allocs"] = c.allocs
	l.m["pipeline.gc_pause_ms"] = c.gcPauseMS
	l.m["pipeline.gc_cycles"] = c.gcCycles
	return nil
}

// executeSpans rebuilds the children of a pipeline.Execute span from the
// per-rank stage breakdowns the Report returns: per rank, the stages laid
// end to end from the parent's start, each split into pack, local and
// blocked-exchange wall. (Hidden exchange time overlaps local work and has
// no interval of its own.)
func executeSpans(tr *tracer, parent int, rep *pipeline.Report) {
	for i := range rep.PerRank {
		rr := &rep.PerRank[i]
		at := tr.spans[parent].Start
		for _, st := range []struct {
			name              string
			pack, local, exch time.Duration
		}{
			{"stage.bloom", rr.Bloom.PackWall, rr.Bloom.LocalWall, rr.Bloom.ExchangeWall},
			{"stage.hash", rr.Hash.PackWall, rr.Hash.LocalWall, rr.Hash.ExchangeWall},
			{"stage.overlap", rr.Overlap.PackWall, rr.Overlap.LocalWall, rr.Overlap.ExchangeWall},
			{"stage.align", rr.Align.PackWall, rr.Align.LocalWall, rr.Align.ExchangeWall},
		} {
			stage := tr.add(st.name, at, at+st.pack+st.local+st.exch, parent, rr.Rank)
			tr.add(st.name+".pack", at, at+st.pack, stage, rr.Rank)
			tr.add(st.name+".local", at+st.pack, at+st.pack+st.local, stage, rr.Rank)
			tr.add(st.name+".exchange_blocked", at+st.pack+st.local, at+st.pack+st.local+st.exch, stage, rr.Rank)
			at += st.pack + st.local + st.exch
		}
	}
}

// align replays the kernel: align.XDrop, single-threaded, on every seed of
// every task overlap.Run returned, set up exactly as the pipeline's private
// alignment stage sets it up (read B reverse-complemented and the seed
// mirrored when the seed is opposite-strand). The alignment stage cannot be
// called from outside, so the replay proves itself: its summed cells must
// equal the pipeline's.
func (l *ladder) align() error {
	type extension struct {
		s, t   []byte
		ps, pt int
	}
	k := l.cfg.K
	var exts []extension
	rc := make(map[uint32][]byte)
	for _, task := range l.tasks {
		seqA, seqB := l.reads[task.Pair.A].Seq, l.reads[task.Pair.B].Seq
		for _, seed := range task.Seeds {
			e := extension{s: seqA, t: seqB, ps: int(seed.PosA), pt: int(seed.PosB)}
			if !seed.SameStrand() {
				if rc[task.Pair.B] == nil {
					rc[task.Pair.B] = dna.ReverseComplement(seqB)
				}
				e.t, e.pt = rc[task.Pair.B], len(seqB)-k-e.pt
			}
			exts = append(exts, e)
		}
	}
	var cells int64
	c, _ := timed(heavyReps, func(rep int) error {
		tr := l.tracerFor(rep)
		id := tr.begin("align.XDrop replay", -1, 0)
		defer tr.end(id)
		cells = 0
		for _, e := range exts {
			cells += align.XDrop(e.s, e.t, e.ps, e.pt, k, l.cfg.Scoring, l.cfg.XDrop).Cells
		}
		return nil
	})
	if cells != l.rep.Cells {
		return fmt.Errorf("kernel replay computed %d cells, pipeline.Execute reported %d", cells, l.rep.Cells)
	}
	l.replayed(c)
	n := float64(len(exts))
	l.m["align.xdrop_mcells_per_s"] = float64(cells) / 1e6 / c.secs
	l.m["align.xdrop_bytes_per_ext"] = c.bytes / n
	l.m["align.xdrop_allocs_per_ext"] = c.allocs / n
	l.m["align.cells"] = float64(cells)
	l.m["align.extensions"] = n
	l.m["align.cells_per_ext"] = float64(cells) / n
	return nil
}

func (l *ladder) paf() error {
	recs := l.rep.PAFRecords(l.reads)
	var buf bytes.Buffer
	c, err := timed(cheapReps, func(rep int) error {
		tr := l.tracerFor(rep)
		id := tr.begin("paf.Write", -1, 0)
		defer tr.end(id)
		buf.Reset()
		return paf.Write(&buf, recs)
	})
	l.replayed(c)
	l.m["paf.write_mb_per_s"] = float64(buf.Len()) / 1e6 / c.secs
	l.m["paf.rows"] = float64(len(recs))
	return err
}

// Serve-rung traffic beside the query passes.
const (
	serveTenant   = "bench"
	servePasses   = 4   // the first is warm-up
	rejectProbes  = 200 // bad-tenant requests: answered by the frontend alone
	floorProbes   = 50  // a read that cannot hit the index: frames + Bcast + an empty epoch
	floorReadBase = 120 // bases of such a read
)

// serve keeps a 2-rank in-process world resident over the instance's
// indexed reads, runs serve.Serve on it, and drives it through
// serve.Client exactly as the end-to-end serve workload drives the daemon.
func (l *ladder) serve() error {
	in := l.in
	cfg := in.w.serveConfig()
	if in.refQuery == nil {
		var err error
		if in.refQuery, err = serveReference(in); err != nil {
			return err
		}
	}
	store := fastq.NewReadStore(in.indexed, ranks)
	ready := make(chan string, 1) // one send, from rank 0's Ready callback
	var formS [ranks]float64
	var resident int64
	var stats serve.Stats
	var wg sync.WaitGroup
	var clientErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		addr, ok := <-ready
		if !ok {
			return
		}
		clientErr = l.serveTraffic(addr)
		if err := requestShutdown(addr, serveTenant); clientErr == nil {
			clientErr = err
		}
	}()
	err := spmd.Run(ranks, func(c *spmd.Comm) error {
		t0 := time.Now()
		w, err := pipeline.FormWorld(c, nil, store, cfg)
		if err != nil {
			return err
		}
		formS[c.Rank()] = time.Since(t0).Seconds()
		var total int64
		for _, n := range w.GatherMemBytes() {
			total += n
		}
		opts := serve.Options{Addr: "127.0.0.1:0", Tenants: []string{serveTenant}}
		if c.Rank() == 0 {
			resident = total
			opts.Ready = func(addr string) { ready <- addr }
		}
		st, err := serve.Serve(w, opts)
		if c.Rank() == 0 {
			stats = st
		}
		return err
	})
	close(ready) // releases the client if the frontend never came up
	wg.Wait()
	if err == nil {
		err = clientErr
	}
	if err != nil {
		return err
	}
	l.m["dht.index_form_s"] = max(formS[0], formS[1])
	l.m["dht.resident_mb"] = float64(resident) / 1e6
	l.m["serve.rejected"] = float64(stats.Rejected)
	if stats.Rejected != rejectProbes {
		return fmt.Errorf("daemon counted %d rejections, %d bad-tenant requests were sent", stats.Rejected, rejectProbes)
	}
	return nil
}

// serveTraffic is the client side of the serve rung.
func (l *ladder) serveTraffic(addr string) error {
	cl, err := serve.DialTimeout(addr, 30*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	// Poly-A: its one distinct k-mer occurs far more than the high-frequency
	// cutoff allows, so it can never seed a pair whatever the index holds.
	floor := []pipeline.QueryRead{{Name: queryPrefix + "floor", Seq: bytes.Repeat([]byte{'A'}, floorReadBase)}}
	var rejectUS, floorMS []float64
	for i := 0; i < rejectProbes; i++ {
		t0 := time.Now()
		_, err := cl.Query("not-"+serveTenant, floor)
		if code, _ := serve.RejectionCode(err); code != "bad-tenant" {
			return fmt.Errorf("bad-tenant request: got %v", err)
		}
		rejectUS = append(rejectUS, time.Since(t0).Seconds()*1e6)
	}
	for i := 0; i < floorProbes; i++ {
		t0 := time.Now()
		res, err := cl.Query(serveTenant, floor)
		if err != nil {
			return err
		}
		if res.Records != 0 {
			return fmt.Errorf("poly-A read of %d bases produced %d records", floorReadBase, res.Records)
		}
		floorMS = append(floorMS, time.Since(t0).Seconds()*1e3)
	}
	l.m["serve.reject_rtt_us"] = quantile(rejectUS, 0.25)
	l.m["serve.rtt_floor_ms"] = quantile(floorMS, 0.25)

	var p50, p90, perSec, waitMS, serviceMS []float64
	replyBytes, answered := 0, 0
	for pass := 0; pass < servePasses; pass++ {
		var tr *tracer
		if pass == 1 {
			tr = l.tr
		}
		id := tr.begin("serve query pass", -1, 0)
		samples, wall, err := queryPass(addr, serveTenant, l.in.queries, l.in.refQuery, &l.tally)
		tr.end(id)
		if err != nil {
			return err
		}
		if l.tally.Failed > 0 {
			return fmt.Errorf("serve rung: %s", l.tally.FirstErr)
		}
		for i, s := range samples {
			q := tr.add("serve.Client.Query", tr.since(s.start), tr.since(s.end), id, i%serveClients)
			tr.add("serve queue wait", tr.since(s.start), tr.since(s.start)+time.Duration(s.waitS*float64(time.Second)), q, i%serveClients)
		}
		if pass == 0 {
			continue
		}
		lat := latenciesMS(samples)
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
		perSec = append(perSec, float64(len(lat))/wall)
		for i, s := range samples {
			waitMS = append(waitMS, s.waitS*1e3)
			serviceMS = append(serviceMS, lat[i]-s.waitS*1e3)
			replyBytes += s.replyBytes
			answered++
		}
	}
	l.m["serve.query_ms_p50"] = quantile(p50, 0.25)
	l.m["serve.query_ms_p90"] = quantile(p90, 0.25)
	l.m["serve.queries_per_s"] = quantile(perSec, 0.75)
	l.m["serve.queue_wait_ms_p50"] = quantile(waitMS, 0.5)
	l.m["serve.service_ms_p50"] = quantile(serviceMS, 0.5)
	l.m["serve.reply_bytes_per_query"] = float64(replyBytes) / float64(answered)
	return nil
}

// spmdResult is what rank 0 of a 4-rank world measured.
type spmdResult struct {
	smallUS, largeMBs, allocsPerOp, barrierUS, streamedMBs float64
}

const (
	spmdRanks  = 4
	spmdBlocks = 5 // timing blocks per collective; the lower quartile is reported
)

// spmdBody exercises the collectives on every rank of a world and leaves
// rank 0's timings in res.
func spmdBody(res *spmdResult) func(c *spmd.Comm) error {
	return func(c *spmd.Comm) error {
		p := c.Size()
		// block times n back-to-back ops after a barrier; on rank 0 it returns
		// seconds per op and process-wide heap objects per op.
		block := func(n int, op func()) (float64, float64) {
			c.Barrier()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				op()
			}
			d := time.Since(t0).Seconds()
			runtime.ReadMemStats(&m1)
			return d / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
		}
		p25 := func(n int, op func()) (secs, allocs float64) {
			var ss, as []float64
			for b := 0; b < spmdBlocks; b++ {
				s, a := block(n, op)
				ss, as = append(ss, s), append(as, a)
			}
			return quantile(ss, 0.25), quantile(as, 0.5)
		}
		payload := func(words int) [][]uint64 {
			send := make([][]uint64, p)
			for i := range send {
				send[i] = make([]uint64, words)
			}
			return send
		}
		small, large := payload(64/8), payload((1<<20)/8)
		const item, items = 8 << 10, 128 // 1 MiB per peer in 8 KiB items
		packed := make([]spmd.PackedBufs, p)
		for i := range packed {
			for j := 0; j < items; j++ {
				packed[i].AppendItem(make([]byte, item))
			}
		}

		barrier, _ := p25(400, c.Barrier)
		smallS, allocs := p25(400, func() { spmd.Alltoallv(c, small) })
		largeS, _ := p25(4, func() { spmd.Alltoallv(c, large) })
		delivered := 0
		streamS, _ := p25(2, func() {
			spmd.IAlltoallvStreamed(c, packed, spmd.StreamOpts{ChunkBytes: item, Depth: 4},
				func(d spmd.StreamDelivery) { delivered += len(d.Items) })
		})
		if delivered == 0 {
			return fmt.Errorf("streamed exchange delivered nothing")
		}
		if c.Rank() == 0 {
			worldMB := float64(p*p) * (1 << 20) / 1e6 // every rank sends 1 MiB to every rank
			*res = spmdResult{
				smallUS: smallS * 1e6, largeMBs: worldMB / largeS, allocsPerOp: allocs,
				barrierUS: barrier * 1e6, streamedMBs: worldMB / streamS,
			}
		}
		return nil
	}
}

func (l *ladder) recordSPMD(transport string, res spmdResult) {
	pre := "spmd." + transport + "."
	l.m[pre+"alltoallv_small_us"] = res.smallUS
	l.m[pre+"alltoallv_large_mb_per_s"] = res.largeMBs
	l.m[pre+"alltoallv_allocs_per_op"] = res.allocsPerOp
	l.m[pre+"barrier_us"] = res.barrierUS
	l.m[pre+"streamed_mb_per_s"] = res.streamedMBs
}

func (l *ladder) spmdMem() error {
	var res spmdResult
	err := spmd.Run(spmdRanks, spmdBody(&res))
	l.recordSPMD("mem", res)
	return err
}

// spmdTCP forms a 4-rank world over loopback sockets, ranks as goroutines
// of this process each with its own transport, through the public
// bootstrap API.
func (l *ladder) spmdTCP() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var res spmdResult
	var formMS [spmdRanks]float64
	errs := make([]error, spmdRanks)
	var wg sync.WaitGroup
	for rank := 0; rank < spmdRanks; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			boot := &spmd.JoinBootstrap{Rank: rank, Size: spmdRanks, Rendezvous: ln.Addr().String(), Timeout: 20 * time.Second}
			if rank == 0 {
				boot.Listener = ln
			}
			t0 := time.Now()
			tr, err := spmd.Connect(boot)
			if err != nil {
				errs[rank] = err
				return
			}
			formMS[rank] = time.Since(t0).Seconds() * 1e3
			errs[rank] = boot.Finish(spmd.RunTransport(tr, nil, spmdBody(&res)))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	l.recordSPMD("tcp", res)
	l.m["spmd.tcp.form_ms"] = quantile(formMS[:], 1)
	return nil
}

// Names the flight recorder is exercised with.
const traceProbeName = "bench.probe"

// traceEmit times one Begin+End pair on an armed recorder and on a nil one
// (what every emit costs when tracing is off).
func (l *ladder) traceEmit() error {
	const n = 200000
	emit := func(rec *trace.Recorder) float64 {
		c, _ := timed(cheapReps, func(int) error {
			for i := 0; i < n; i++ {
				rec.Begin(traceProbeName, 0)
				rec.End(traceProbeName, 0, 0)
			}
			return nil
		})
		return c.secs / n * 1e9
	}
	trace.Enable(trace.DefaultCapacity)
	rec := trace.Rec(0)
	l.m["trace.emit_ns"] = emit(rec)
	trace.Disable()
	l.m["trace.emit_off_ns"] = emit(nil)
	if rec == nil {
		return fmt.Errorf("trace.Enable gave no recorder")
	}
	return nil
}
