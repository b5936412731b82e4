package pipeline

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dibella/internal/fastq"
	"dibella/internal/machine"
	"dibella/internal/paf"
	"dibella/internal/spmd"
)

// runTCPLoopbackWorld forms a p-rank TCP world on the loopback interface —
// one transport (and socket set) per rank, ranks as goroutines, each
// connected through the public Bootstrap API — and runs fn on every rank.
func runTCPLoopbackWorld(t *testing.T, p int, fn func(c *spmd.Comm) error) error {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("rendezvous listen: %v", err)
	}
	rendezvous := ln.Addr().String()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			boot := &spmd.JoinBootstrap{
				Rank: rank, Size: p, Rendezvous: rendezvous,
				Timeout: 20 * time.Second,
			}
			if rank == 0 {
				boot.Listener = ln
			}
			tr, err := spmd.Connect(boot)
			if err != nil {
				errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
				return
			}
			errs[rank] = boot.Finish(spmd.RunTransport(tr, nil, fn))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// executeTCPLoopback runs the pipeline over a loopback TCP world and
// returns rank 0's gathered report.
func executeTCPLoopback(t *testing.T, p int, reads []*fastq.Record, cfg Config) (*Report, error) {
	t.Helper()
	var (
		rep *Report
		mu  sync.Mutex
	)
	err := runTCPLoopbackWorld(t, p, func(c *spmd.Comm) error {
		// Each rank builds its own store, as separate worker processes
		// would.
		store := fastq.NewReadStore(reads, p)
		r, err := ExecuteComm(c, nil, store, cfg, nil)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			rep = r
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// TestTCPTransportMatchesInProcess is the loopback equivalence check the
// transport refactor promises: the same seeded read set, pushed through
// the full four-stage pipeline on both backends, must produce identical
// overlaps and alignments — compared as serialized PAF bytes.
func TestTCPTransportMatchesInProcess(t *testing.T) {
	const p = 4
	ds := input(t, equivalenceInput)
	cfg := defaultConfig()

	memRep := sharedRun(t, equivalenceInput, p, cfg)
	tcpRep, err := executeTCPLoopback(t, p, ds.Reads, cfg)
	if err != nil {
		t.Fatalf("tcp backend: %v", err)
	}

	if memRep.Alignments == 0 {
		t.Fatal("in-process run produced no alignments; dataset too small to compare anything")
	}
	if memRep.RetainedKmers != tcpRep.RetainedKmers || memRep.Pairs != tcpRep.Pairs ||
		memRep.Alignments != tcpRep.Alignments || memRep.Cells != tcpRep.Cells {
		t.Errorf("global counts diverged:\n mem: %s\n tcp: %s", memRep.Summary(), tcpRep.Summary())
	}

	var memPAF, tcpPAF bytes.Buffer
	if err := paf.Write(&memPAF, memRep.PAFRecords(ds.Reads)); err != nil {
		t.Fatal(err)
	}
	if err := paf.Write(&tcpPAF, tcpRep.PAFRecords(ds.Reads)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memPAF.Bytes(), tcpPAF.Bytes()) {
		t.Errorf("PAF output differs between transports (%d vs %d bytes, %d vs %d records)",
			memPAF.Len(), tcpPAF.Len(), len(memRep.Records), len(tcpRep.Records))
	}

	// The build stages' memory peaks count what they exchange through: the
	// ring of send rows on both transports and, where a received row is a
	// frame and not the sender's memory, the frames borrowed from the pool.
	for _, s := range []StageName{StageBloom, StageHash} {
		if m, tc := memRep.StageMemPeak(s), tcpRep.StageMemPeak(s); m <= 0 || tc <= m {
			t.Errorf("%s stage peak: %d bytes in process, %d over tcp; want the borrowed frames on top", s, m, tc)
		}
	}
}

// pafBytes serializes a report's alignment records.
func pafBytes(t *testing.T, rep *Report, reads []*fastq.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := paf.Write(&buf, rep.PAFRecords(reads)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAsyncExchangeMatchesSync is the overlapped schedule's equivalence
// guarantee at its defaults (the zero Config.Exchange): non-blocking
// round-pipelined exchanges must produce byte-identical PAF to the
// bulk-synchronous ones, on both the in-process and TCP transports. The
// MinDistance seed mode keeps multi-seed pairs in play so the overlapped
// alignment paths (early local tasks, RC precompute, per-pair dedup) are
// all exercised.
func TestAsyncExchangeMatchesSync(t *testing.T) {
	const p = 4
	ds := input(t, equivalenceInput)
	asyncCfg := equivalenceConfig()

	memSync := reference(t, asyncCfg)
	memAsync, err := Execute(p, nil, ds.Reads, asyncCfg)
	if err != nil {
		t.Fatalf("in-process async: %v", err)
	}
	tcpAsync, err := executeTCPLoopback(t, p, ds.Reads, asyncCfg)
	if err != nil {
		t.Fatalf("tcp async: %v", err)
	}

	want := pafBytes(t, memSync, ds.Reads)
	if got := pafBytes(t, memAsync, ds.Reads); !bytes.Equal(want, got) {
		t.Errorf("in-process async PAF diverges from sync (%d vs %d bytes)", len(got), len(want))
	}
	if got := pafBytes(t, tcpAsync, ds.Reads); !bytes.Equal(want, got) {
		t.Errorf("tcp async PAF diverges from sync (%d vs %d bytes)", len(got), len(want))
	}

	if f := memSync.OverlapFraction(); f != 0 {
		t.Errorf("sync schedule reports overlap fraction %v, want 0", f)
	}
	if f := memAsync.OverlapFraction(); f <= 0 {
		t.Errorf("async in-process run reports overlap fraction %v, want > 0", f)
	}
	if f := tcpAsync.OverlapFraction(); f <= 0 {
		t.Errorf("async tcp run reports overlap fraction %v, want > 0", f)
	}
}

// TestAsyncExchangeReducesModeledTime checks the modeling claim: with a
// platform model attached, the overlapped schedule's modeled Bloom+hash
// time is max(exchange, local)-like and must come in under the
// bulk-synchronous sum on the same workload.
func TestAsyncExchangeReducesModeledTime(t *testing.T) {
	const p = 8
	ds := input(t, equivalenceInput)
	run := func(mode ExchangeMode) *Report {
		mdl, err := machine.NewModelScaled(machine.Cori, 8, p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Execute(p, mdl, ds.Reads, Config{
			K: 17, ErrorRate: 0.06, Coverage: 10,
			MaxKmersPerRound: 1 << 12, Exchange: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	syncRep := run(ExchangeSync)
	asyncRep := run(ExchangeStreamed)
	bloomHash := func(rep *Report) float64 {
		return rep.StageVirtual(StageBloom) + rep.StageVirtual(StageHash)
	}
	s, a := bloomHash(syncRep), bloomHash(asyncRep)
	if a >= s {
		t.Errorf("async modeled Bloom+hash time %.6fs, want below sync %.6fs", a, s)
	}
	if ov := asyncRep.StageOverlapVirtual(StageBloom) + asyncRep.StageOverlapVirtual(StageHash); ov <= 0 {
		t.Errorf("async run hides no modeled exchange time (%v)", ov)
	}
}

// TestTCPTransportPropagatesPipelineErrors checks a rank failure inside
// the distributed pipeline aborts the whole TCP world cleanly.
func TestTCPTransportPropagatesPipelineErrors(t *testing.T) {
	// Invalid config: k unset and underivable → every rank errors before
	// the first collective; the world must shut down, not hang.
	_, err := executeTCPLoopback(t, 3, input(t, edgeCaseInput).Reads, Config{})
	if err == nil {
		t.Fatal("expected configuration error to surface through the TCP world")
	}
}
