package pipeline

import (
	"bytes"
	"fmt"
	"testing"

	"dibella/internal/fastq"
	"dibella/internal/machine"
	"dibella/internal/seqgen"
	"dibella/internal/spmd"
)

// TestStreamedExchangeMatchesSync is the streaming schedule's equivalence
// guarantee: the chunked reply exchange with readiness-driven alignment
// must produce byte-identical PAF to the bulk-synchronous schedule, on
// both the in-process and TCP transports, while actually hiding exchange
// time. MinDistance seeds keep multi-seed pairs (and the RC cache paths)
// in play; the small chunk forces many reply rounds. A second streamed
// shape, 64-byte chunks in blocking rounds (depth 1), cuts nearly every
// read across chunk boundaries.
func TestStreamedExchangeMatchesSync(t *testing.T) {
	const p = 4
	ds := input(t, equivalenceInput)
	streamCfg := equivalenceConfig()
	streamCfg.ReplyChunk, streamCfg.ReplyDepth = 2048, 3

	memSync := reference(t, streamCfg)
	memStream, err := Execute(p, nil, ds.Reads, streamCfg)
	if err != nil {
		t.Fatalf("in-process streamed: %v", err)
	}
	tcpStream, err := executeTCPLoopback(t, p, ds.Reads, streamCfg)
	if err != nil {
		t.Fatalf("tcp streamed: %v", err)
	}

	want := pafBytes(t, memSync, ds.Reads)
	if got := pafBytes(t, memStream, ds.Reads); !bytes.Equal(want, got) {
		t.Errorf("in-process streamed PAF diverges from sync (%d vs %d bytes)", len(got), len(want))
	}
	if got := pafBytes(t, tcpStream, ds.Reads); !bytes.Equal(want, got) {
		t.Errorf("tcp streamed PAF diverges from sync (%d vs %d bytes)", len(got), len(want))
	}
	tinyCfg := streamCfg
	tinyCfg.ReplyChunk, tinyCfg.ReplyDepth = 64, 1
	memTiny, err := Execute(p, nil, ds.Reads, tinyCfg)
	if err != nil {
		t.Fatalf("in-process streamed, 64-byte blocking rounds: %v", err)
	}
	tcpTiny, err := executeTCPLoopback(t, p, ds.Reads, tinyCfg)
	if err != nil {
		t.Fatalf("tcp streamed, 64-byte blocking rounds: %v", err)
	}
	if got := pafBytes(t, memTiny, ds.Reads); !bytes.Equal(want, got) {
		t.Errorf("in-process streamed PAF in 64-byte blocking rounds diverges from sync (%d vs %d bytes)", len(got), len(want))
	}
	if got := pafBytes(t, tcpTiny, ds.Reads); !bytes.Equal(want, got) {
		t.Errorf("tcp streamed PAF in 64-byte blocking rounds diverges from sync (%d vs %d bytes)", len(got), len(want))
	}
	if f := memStream.OverlapFraction(); f <= 0 {
		t.Errorf("streamed in-process run reports overlap fraction %v, want > 0", f)
	}
	if f := tcpStream.OverlapFraction(); f <= 0 {
		t.Errorf("streamed tcp run reports overlap fraction %v, want > 0", f)
	}
	if n := memStream.PerRank[0].Align.ReadsFetched; n == 0 {
		t.Error("streamed run installed no replicas on rank 0; the schedule was not exercised")
	}
}

// TestStreamedRepliesOutliveTheStream: a delivered item is the stream's
// until deliver returns, so every replica the stage installs must be its
// own copy. After the stage each replica a rank holds must still read as
// the owner's sequence; with recycled rows poisoned, a replica left as a
// view of a ring row does not (64-byte blocking rounds go round a two-set
// ring many times over).
func TestStreamedRepliesOutliveTheStream(t *testing.T) {
	ds := input(t, edgeCaseInput)
	cfg := Config{K: 15, ErrorRate: 0.05, Coverage: 8, Exchange: ExchangeStreamed, ReplyChunk: 64, ReplyDepth: 1}
	store := fastq.NewReadStore(ds.Reads, 3)
	err := spmd.Run(3, func(c *spmd.Comm) error {
		w, err := FormWorld(c, nil, store, cfg)
		if err != nil {
			return err
		}
		tasks, err := w.overlapStage(nil, nil, false)
		if err != nil {
			return err
		}
		w.alignTasks(tasks)
		for id := uint32(0); id < uint32(store.NumReads()); id++ {
			if seq := w.view.Seq(id); !w.view.Owns(id) && seq != nil && !bytes.Equal(seq, store.Seq(id)) {
				return fmt.Errorf("rank %d: replica of read %d no longer holds its sequence", c.Rank(), id)
			}
		}
		if w.view.ReplicaCount() == 0 {
			return fmt.Errorf("rank %d fetched no replicas; nothing was checked", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// edgeCaseInput is a 9 kb genome at 8x in 900-base reads: small enough
// that one-byte chunks and idle ranks stay cheap.
var edgeCaseInput = seqgen.Config{
	GenomeLen: 9000, Coverage: 8, MeanReadLen: 900, MinReadLen: 300, BothStrands: true, ErrorRate: 0.05, Seed: 7,
}

// streamedEquivalenceCase runs the first n reads of edgeCaseInput (all of
// them when n is 0) through sync (mem) plus streamed (mem and TCP) and
// demands byte-identical PAF.
func streamedEquivalenceCase(t *testing.T, name string, n int, p int, cfg Config) {
	t.Helper()
	reads := input(t, edgeCaseInput).Reads
	if n > 0 && n < len(reads) {
		reads = reads[:n]
	}
	syncCfg := cfg
	syncCfg.Exchange = ExchangeSync
	syncCfg.ReplyChunk, syncCfg.ReplyDepth = 0, 0

	memSync, err := Execute(p, nil, reads, syncCfg)
	if err != nil {
		t.Fatalf("%s: in-process sync: %v", name, err)
	}
	memStream, err := Execute(p, nil, reads, cfg)
	if err != nil {
		t.Fatalf("%s: in-process streamed: %v", name, err)
	}
	tcpStream, err := executeTCPLoopback(t, p, reads, cfg)
	if err != nil {
		t.Fatalf("%s: tcp streamed: %v", name, err)
	}
	want := pafBytes(t, memSync, reads)
	if got := pafBytes(t, memStream, reads); !bytes.Equal(want, got) {
		t.Errorf("%s: in-process streamed PAF diverges from sync (%d vs %d bytes)", name, len(got), len(want))
	}
	if got := pafBytes(t, tcpStream, reads); !bytes.Equal(want, got) {
		t.Errorf("%s: tcp streamed PAF diverges from sync (%d vs %d bytes)", name, len(got), len(want))
	}
}

// TestStreamedExchangeEdgeCases drives the streamed schedule through the
// chunking extremes on both transports: one-byte chunks, a chunk larger
// than the whole payload, minimum and clamped-maximum depth, and more
// ranks than busy reads so some ranks hold zero remote tasks (they still
// participate in every chunk round).
func TestStreamedExchangeEdgeCases(t *testing.T) {
	base := Config{K: 15, ErrorRate: 0.05, Coverage: 8, KeepAlignments: true, Exchange: ExchangeStreamed}
	t.Run("chunk1", func(t *testing.T) {
		if testing.Short() {
			t.Skip("one-byte chunks mean thousands of TCP frames")
		}
		cfg := base
		cfg.ReplyChunk, cfg.ReplyDepth = 1, 2
		streamedEquivalenceCase(t, "chunk1", 24, 3, cfg)
	})
	t.Run("chunkBiggerThanPayload", func(t *testing.T) {
		cfg := base
		cfg.ReplyChunk, cfg.ReplyDepth = 1<<26, 2
		streamedEquivalenceCase(t, "chunkBiggerThanPayload", 0, 4, cfg)
	})
	t.Run("depth1", func(t *testing.T) {
		cfg := base
		cfg.ReplyChunk, cfg.ReplyDepth = 512, 1
		streamedEquivalenceCase(t, "depth1", 0, 4, cfg)
	})
	t.Run("depthClamped", func(t *testing.T) {
		cfg := base
		cfg.ReplyChunk, cfg.ReplyDepth = 512, 64 // clamped to spmd.MaxStreamDepth
		streamedEquivalenceCase(t, "depthClamped", 0, 4, cfg)
	})
	t.Run("idleRanks", func(t *testing.T) {
		// More ranks than reads leaves some ranks owning nothing and
		// holding zero alignment tasks; they still post every round.
		cfg := base
		cfg.ReplyChunk, cfg.ReplyDepth = 256, 2
		streamedEquivalenceCase(t, "idleRanks", 6, 8, cfg)
	})
}

// TestStreamedUltraLongRead replicates a read that spans many chunks: one
// giant read dwarfs the chunk size, so its sequence arrives in dozens of
// rounds and every task waiting on it must align only after the final one.
func TestStreamedUltraLongRead(t *testing.T) {
	ds, err := seqgen.Generate(seqgen.Config{
		GenomeLen: 30000, Coverage: 6, MeanReadLen: 7000, MinReadLen: 2000, BothStrands: true, ErrorRate: 0.05, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	maxLen := 0
	for _, r := range ds.Reads {
		if r.Len() > maxLen {
			maxLen = r.Len()
		}
	}
	const chunk = 512
	if maxLen < 4*chunk {
		t.Fatalf("longest read %d does not span enough %d-byte chunks", maxLen, chunk)
	}
	cfg := Config{
		K: 17, ErrorRate: 0.05, Coverage: 6, KeepAlignments: true,
		Exchange: ExchangeStreamed, ReplyChunk: chunk, ReplyDepth: 4,
	}
	syncCfg := cfg
	syncCfg.Exchange = ExchangeSync
	syncCfg.ReplyChunk, syncCfg.ReplyDepth = 0, 0

	const p = 4
	memSync, err := Execute(p, nil, ds.Reads, syncCfg)
	if err != nil {
		t.Fatalf("in-process sync: %v", err)
	}
	memStream, err := Execute(p, nil, ds.Reads, cfg)
	if err != nil {
		t.Fatalf("in-process streamed: %v", err)
	}
	tcpStream, err := executeTCPLoopback(t, p, ds.Reads, cfg)
	if err != nil {
		t.Fatalf("tcp streamed: %v", err)
	}
	if memSync.Alignments == 0 {
		t.Fatal("sync run produced no alignments; nothing to compare")
	}
	want := pafBytes(t, memSync, ds.Reads)
	if got := pafBytes(t, memStream, ds.Reads); !bytes.Equal(want, got) {
		t.Errorf("in-process streamed PAF diverges from sync (%d vs %d bytes)", len(got), len(want))
	}
	if got := pafBytes(t, tcpStream, ds.Reads); !bytes.Equal(want, got) {
		t.Errorf("tcp streamed PAF diverges from sync (%d vs %d bytes)", len(got), len(want))
	}
}

// TestStreamedReducesModeledAlignTail checks the modeling claim behind the
// schedule: on a workload with real alignment compute (one goroutine per
// modeled rank, so compute is not divided across a rank group), the
// streamed alignment stage must hide part of its exchange cost — the
// bulk-synchronous reference hides none — and finish in less modeled
// time, without changing any global count.
func TestStreamedReducesModeledAlignTail(t *testing.T) {
	const p = 8
	ds, err := seqgen.Generate(seqgen.Config{
		GenomeLen: 48000, Coverage: 12, MeanReadLen: 1500, MinReadLen: 500, BothStrands: true, ErrorRate: 0.06, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode ExchangeMode) *Report {
		mdl, err := machine.NewModel(machine.Cori, 2, p/2)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Execute(p, mdl, ds.Reads, Config{
			K: 17, ErrorRate: 0.06, Coverage: 12,
			MaxKmersPerRound: 1 << 12, Exchange: mode,
			ReplyChunk: 4096, ReplyDepth: spmd.DefaultStreamDepth,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	syncRep := run(ExchangeSync)
	streamRep := run(ExchangeStreamed)
	if syncRep.Alignments != streamRep.Alignments || syncRep.Pairs != streamRep.Pairs {
		t.Fatalf("schedules disagree on counts:\n sync: %s\n stream: %s",
			syncRep.Summary(), streamRep.Summary())
	}
	if ov := syncRep.StageOverlapVirtual(StageAlign); ov != 0 {
		t.Errorf("sync alignment stage hides %v of its exchange, want 0", ov)
	}
	if sf := streamRep.StageOverlapVirtual(StageAlign) / streamRep.StageExchangeVirtual(StageAlign); sf <= 0 {
		t.Errorf("streamed alignment stage hides %.1f%% of its exchange, want more than sync's none", sf*100)
	}
	yv, sv := syncRep.StageVirtual(StageAlign), streamRep.StageVirtual(StageAlign)
	if sv >= yv {
		t.Errorf("streamed alignment stage models %.6fs, want below sync's %.6fs", sv, yv)
	}
}
