package main

import (
	"fmt"
	"path/filepath"

	"dibella/internal/align"
	"dibella/internal/fastq"
	"dibella/internal/overlap"
	"dibella/internal/pipeline"
	"dibella/internal/seqgen"
	"dibella/internal/spmd"
)

// Every workload runs on 2 ranks (the sizing host's nproc) with the k and
// high-frequency cutoff pinned, so no run depends on parameter derivation.
const (
	ranks   = 2
	kmerLen = 17
	maxFreq = 10
)

// workload is one input shape plus the invocation that distinguishes it.
// The why of each is in BENCHMARK.json and the README.
type workload struct {
	name       string
	gen        seqgen.Config // Seed and scale are applied per instance
	minOverlap int           // ground-truth overlap length recall is scored at
	queries    int           // trailing reads held out as serve queries
	args       []string      // dibella flags beyond -in/-out/-p/-k/-m
	serve      bool          // timed unit is a query pass against a resident daemon
}

// Inputs are sized so one timed unit takes 0.35-0.8 s on a quiet 2-vCPU
// host: a run then holds 45-100 units, enough for a low quantile to find the
// undisturbed time among them. longread_align is the largest because its
// work varies most between seeds (few, long reads: the alignment cells spread
// by 2-3% over seeds at this size).
var workloads = []workload{
	{
		name:       "longread_align",
		gen:        seqgen.Config{GenomeLen: 50000, Coverage: 16, MeanReadLen: 6000, ErrorRate: 0.15, BothStrands: true},
		minOverlap: 2000, queries: 4,
		args: []string{"-transport", "mem"},
	},
	{
		name:       "sparse_kmer_tcp",
		gen:        seqgen.Config{GenomeLen: 2000000, Coverage: 1, MeanReadLen: 1500, ErrorRate: 0.15, BothStrands: true},
		minOverlap: 500, queries: 16,
		args: []string{"-transport", "tcp"},
	},
	{
		name:       "serve_queries",
		gen:        seqgen.Config{GenomeLen: 40000, Coverage: 15, MeanReadLen: 3000, ErrorRate: 0.15, BothStrands: true},
		minOverlap: 2000, queries: 60,
		serve: true,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// pipelineConfig mirrors what cmd/dibella resolves from the workload's
// flags, for the in-process runs of the layer ladder. The ladder proves
// the mirror: its in-process PAF must equal the program's reference PAF.
func (w *workload) pipelineConfig() pipeline.Config {
	return pipeline.Config{
		K: kmerLen, MaxFreq: maxFreq,
		SeedMode: overlap.OneSeed, MinDist: 1000, XDrop: 7, Scoring: align.DefaultScoring,
		ErrorRate: 0.15, Coverage: 30, GenomeEst: 4.64e6,
		KeepAlignments: true,
		Exchange:       pipeline.ExchangeStreamed,
		ReplyChunk:     spmd.DefaultChunkBytes,
		ReplyDepth:     spmd.DefaultStreamDepth,
	}
}

// serveConfig is the configuration of a resident index over the workload's
// reads: singletons kept.
func (w *workload) serveConfig() pipeline.Config {
	cfg := w.pipelineConfig()
	cfg.KeepSingletons = true
	return cfg
}

// instance is a workload realised for one seed: the generated data set,
// its files, and the references every timed output is compared against.
type instance struct {
	w       *workload
	ds      *seqgen.Dataset
	indexed []*fastq.Record      // what a serve daemon loads: all but the queries
	queries []pipeline.QueryRead // the held-out reads, renamed q_…
	allPath string               // FASTQ of every read (batch input)
	idxPath string               // FASTQ of the indexed reads (serve workloads only: the daemon's input)
	inputs  []inputRecord

	refPAF   []byte   // batch: PAF of the -p 1 bulk-synchronous run
	refWall  float64  // batch: that run's wall seconds, the single-rank baseline
	refQuery [][]byte // serve: per-query PAF from a 1-rank in-process world
	recall   float64
}

// generate makes the instance's data set and files under dir. scale
// shrinks the genome and the query count, for the smoke test.
func (w *workload) generate(dir string, seed int64, scale float64) (*instance, error) {
	cfg := w.gen
	cfg.Seed = seed
	cfg.GenomeLen = int(float64(cfg.GenomeLen) * scale)
	cfg.MeanReadLen = min(cfg.MeanReadLen, cfg.GenomeLen/2)
	ds, err := seqgen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	nq := max(2, int(float64(w.queries)*scale))
	if nq >= len(ds.Reads) {
		return nil, fmt.Errorf("%s: %d reads cannot hold out %d queries", w.name, len(ds.Reads), nq)
	}
	in := &instance{
		w: w, ds: ds,
		indexed: ds.Reads[:len(ds.Reads)-nq],
		allPath: filepath.Join(dir, "reads.fastq"),
		idxPath: filepath.Join(dir, "indexed.fastq"),
	}
	for _, r := range ds.Reads[len(ds.Reads)-nq:] {
		in.queries = append(in.queries, pipeline.QueryRead{Name: queryPrefix + r.Name, Seq: r.Seq})
	}
	if err := in.writeInput(in.allPath, ds.Reads); err != nil {
		return nil, err
	}
	if w.serve {
		err = in.writeInput(in.idxPath, in.indexed)
	}
	return in, err
}

func (in *instance) writeInput(path string, reads []*fastq.Record) error {
	if err := fastq.WriteFile(path, reads); err != nil {
		return err
	}
	rec, err := describeInput(path, reads)
	in.inputs = append(in.inputs, rec)
	return err
}
