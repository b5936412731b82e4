package pipeline

import (
	"bytes"
	"testing"

	"dibella/internal/evalx"
	"dibella/internal/kmer"
)

// minimizerTestConfig is equivalenceConfig with w=5 sparsifying the seed
// set.
func minimizerTestConfig() Config {
	cfg := equivalenceConfig()
	cfg.MinimizerWindow = 5
	return cfg
}

// TestMinimizerMatchesAcrossTransports: minimizer seeding changes the
// output versus exact seeding (it is a sensitivity/cost trade), so the
// house byte-identical-PAF invariant applies *within* the mode — one
// minimizer configuration must produce identical PAF across transports
// (mem and TCP), exchange schedules (sync, async, streamed), and world
// sizes.
func TestMinimizerMatchesAcrossTransports(t *testing.T) {
	const p = 4
	ds := input(t, equivalenceInput)
	asyncCfg := minimizerTestConfig()
	streamCfg := minimizerTestConfig()
	streamCfg.ReplyChunk = 4 << 10
	streamCfg.ReplyDepth = 4

	memSync := reference(t, minimizerTestConfig())
	want := pafBytes(t, memSync, ds.Reads)

	// Schedules on the in-process transport.
	for name, cfg := range map[string]Config{"async": asyncCfg, "streamed": streamCfg} {
		rep, err := Execute(p, nil, ds.Reads, cfg)
		if err != nil {
			t.Fatalf("in-process %s: %v", name, err)
		}
		if got := pafBytes(t, rep, ds.Reads); !bytes.Equal(want, got) {
			t.Errorf("in-process %s PAF diverges from sync (%d vs %d bytes)", name, len(got), len(want))
		}
	}
	// Both non-sync schedules on the TCP transport.
	for name, cfg := range map[string]Config{"async": asyncCfg, "streamed": streamCfg} {
		rep, err := executeTCPLoopback(t, p, ds.Reads, cfg)
		if err != nil {
			t.Fatalf("tcp %s: %v", name, err)
		}
		if got := pafBytes(t, rep, ds.Reads); !bytes.Equal(want, got) {
			t.Errorf("tcp %s PAF diverges from sync (%d vs %d bytes)", name, len(got), len(want))
		}
	}
	// World sizes.
	for _, wp := range []int{2, 8} {
		rep, err := Execute(wp, nil, ds.Reads, asyncCfg)
		if err != nil {
			t.Fatalf("p=%d: %v", wp, err)
		}
		if got := pafBytes(t, rep, ds.Reads); !bytes.Equal(want, got) {
			t.Errorf("p=%d PAF diverges from p=%d (%d vs %d bytes)", wp, p, len(got), len(want))
		}
	}

	// The point of the mode: the DHT build's exchange volume shrinks
	// toward the 2/(w+1) density prediction versus an exact run.
	exact := reference(t, equivalenceConfig())
	buildBytes := func(rep *Report) int64 {
		return rep.StageExchangeBytes(StageBloom) + rep.StageExchangeBytes(StageHash)
	}
	ratio := float64(buildBytes(memSync)) / float64(buildBytes(exact))
	predicted := kmer.MinimizerDensity(5)
	if ratio > predicted*1.3 {
		t.Errorf("minimizer build exchanged %.3f of exact bytes, predicted density %.3f", ratio, predicted)
	}
}

// TestMinimizerRecallFloor is the evalx-scored sensitivity guarantee CI
// asserts for the minimizer smoke run: against ground truth, w=5
// minimizer seeding must keep most of the recall of exact k-mer seeding
// while shipping a fraction of its k-mer volume.
func TestMinimizerRecallFloor(t *testing.T) {
	ds := input(t, recallInput)
	const minOverlap = 2000
	run := func(w int) (*Report, evalx.Result) {
		rep := sharedRun(t, recallInput, 4, oneSeedConfig(w))
		pairs := make([]evalx.Pair, 0, len(rep.Records))
		for _, a := range rep.Records {
			pairs = append(pairs, evalx.Canon(a.A, a.B))
		}
		return rep, evalx.Evaluate(ds, pairs, minOverlap)
	}
	exactRep, exact := run(0)
	minRep, min := run(5)
	t.Logf("exact: %s", exact)
	t.Logf("w=5:   %s", min)

	if exact.Recall() == 0 {
		t.Fatal("exact seeding recalled nothing; dataset too small to compare")
	}
	// Absolute floor, and a relative one against exact seeding.
	if min.Recall() < 0.60 {
		t.Errorf("minimizer recall %.3f below the 0.60 floor", min.Recall())
	}
	if rel := min.Recall() / exact.Recall(); rel < 0.75 {
		t.Errorf("minimizer recall %.3f is %.2f of exact's %.3f, want >= 0.75",
			min.Recall(), rel, exact.Recall())
	}
	// The volume side of the trade: parsed-for-exchange units shrink
	// toward the 2/(w+1) density prediction.
	volume := func(rep *Report) int64 {
		var n int64
		for _, rr := range rep.PerRank {
			n += rr.Bloom.KmersParsed
		}
		return n
	}
	ratio := float64(volume(minRep)) / float64(volume(exactRep))
	if predicted := kmer.MinimizerDensity(5); ratio > predicted*1.3 {
		t.Errorf("minimizer mode shipped %.3f of the k-mer volume, predicted density %.3f", ratio, predicted)
	}
}
