package pipeline

import (
	"sync"
	"testing"

	"dibella/internal/overlap"
	"dibella/internal/seqgen"
)

// Shared inputs and reference runs. Generating an input and running the
// pipeline over it cost more than most of the checks made on the result,
// so each input is generated once per test binary, and each run that
// several tests compare against — one (input, world size, Config) — is
// executed once and its Report shared. Shared values are read-only.
var fixtures struct {
	sync.Mutex
	inputs map[seqgen.Config]*seqgen.Dataset
	runs   map[sharedRunKey]*Report
}

type sharedRunKey struct {
	in  seqgen.Config
	p   int
	cfg Config
}

// recallInput is a 30 kb genome at 15x in 2 kb reads with 10% error: the
// input of the pipeline's own checks, whose recall against ground truth
// TestPipelineEndToEndRecall and TestMinimizerRecallFloor hold to floors.
var recallInput = seqgen.Config{
	GenomeLen: 30000, Seed: 42, Coverage: 15, MeanReadLen: 2000, MinReadLen: 500,
	ErrorRate: 0.10, BothStrands: true,
}

// oneSeedConfig is recallInput's data characteristics with one seed per
// pair and alignments kept, seeding from (w,k)-minimizers when w > 1.
func oneSeedConfig(w int) Config {
	return Config{
		K: 17, ErrorRate: 0.10, Coverage: 15, KeepAlignments: true,
		SeedMode: overlap.OneSeed, MinimizerWindow: w,
	}
}

// equivalenceInput is a 20 kb genome at 10x in 1.5 kb reads with 6%
// error: the input on which every schedule, transport, loader and resume
// path must reproduce the reference PAF byte for byte.
var equivalenceInput = seqgen.Config{
	GenomeLen: 20000, Coverage: 10, MeanReadLen: 1500, MinReadLen: 500,
	BothStrands: true, ErrorRate: 0.06, Seed: 99,
}

// equivalenceConfig exercises multi-seed pairs and several exchange
// rounds per pass, so every schedule path is live.
func equivalenceConfig() Config {
	return Config{
		K: 17, ErrorRate: 0.06, Coverage: 10, KeepAlignments: true,
		SeedMode: overlap.MinDistance, MinDist: 600,
		MaxKmersPerRound: 1 << 12,
	}
}

// defaultConfig is equivalenceInput's data characteristics and every
// other parameter at its default.
func defaultConfig() Config {
	return Config{K: 17, ErrorRate: 0.06, Coverage: 10, KeepAlignments: true}
}

// input returns the data set in generates.
func input(t *testing.T, in seqgen.Config) *seqgen.Dataset {
	t.Helper()
	fixtures.Lock()
	defer fixtures.Unlock()
	if ds, ok := fixtures.inputs[in]; ok {
		return ds
	}
	ds, err := seqgen.Generate(in)
	if err != nil {
		t.Fatal(err)
	}
	if fixtures.inputs == nil {
		fixtures.inputs = make(map[seqgen.Config]*seqgen.Dataset)
	}
	fixtures.inputs[in] = ds
	return ds
}

// sharedRun returns Execute(p, nil, input(t, in).Reads, cfg).
func sharedRun(t *testing.T, in seqgen.Config, p int, cfg Config) *Report {
	t.Helper()
	reads := input(t, in).Reads
	key := sharedRunKey{in, p, cfg}
	fixtures.Lock()
	rep, ok := fixtures.runs[key]
	fixtures.Unlock()
	if ok {
		return rep
	}
	rep, err := Execute(p, nil, reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fixtures.Lock()
	defer fixtures.Unlock()
	if fixtures.runs == nil {
		fixtures.runs = make(map[sharedRunKey]*Report)
	}
	fixtures.runs[key] = rep
	return rep
}

// reference is the run every other path of cfg on equivalenceInput must
// reproduce: four in-process ranks on the paper's bulk-synchronous
// schedule.
func reference(t *testing.T, cfg Config) *Report {
	t.Helper()
	cfg.Exchange = ExchangeSync
	cfg.ReplyChunk, cfg.ReplyDepth = 0, 0
	rep := sharedRun(t, equivalenceInput, 4, cfg)
	if rep.Alignments == 0 {
		t.Fatal("reference run produced no alignments; nothing to compare")
	}
	return rep
}
