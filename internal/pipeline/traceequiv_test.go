package pipeline

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"dibella/internal/fastq"
	"dibella/internal/machine"
	"dibella/internal/spmd"
	"dibella/internal/trace"
)

// TestTraceObservabilityOnly is the flight recorder's contract: running
// with tracing armed must leave the PAF bytes byte-identical and the
// modeled virtual_seconds bit-identical to an untraced run, on both
// transports. Tracing that perturbed either would be worse than no
// tracing at all — every timeline it produced would describe a run that
// never happens without it.
func TestTraceObservabilityOnly(t *testing.T) {
	const p = 4
	ds := input(t, equivalenceInput)
	cfg := defaultConfig()
	mdl, err := machine.NewModelScaled(machine.Cori, 4, p)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("mem", func(t *testing.T) {
		trace.Disable()
		off, err := Execute(p, mdl, ds.Reads, cfg)
		if err != nil {
			t.Fatalf("untraced run: %v", err)
		}

		trace.Enable(trace.DefaultCapacity)
		defer trace.Disable()
		on, err := Execute(p, mdl, ds.Reads, cfg)
		if err != nil {
			t.Fatalf("traced run: %v", err)
		}

		assertTraceNeutral(t, pafBytes(t, off, ds.Reads), pafBytes(t, on, ds.Reads),
			off.VirtualTime, on.VirtualTime)
		if len(on.Trace) != p {
			t.Fatalf("traced report gathered %d rank buffers, want %d", len(on.Trace), p)
		}
		for _, re := range on.Trace {
			if len(re.Events) == 0 {
				t.Errorf("rank %d recorded no events", re.Rank)
			}
		}
		if off.Trace != nil {
			t.Errorf("untraced report carries %d trace buffers, want none", len(off.Trace))
		}
	})

	t.Run("tcp", func(t *testing.T) {
		trace.Disable()
		off, err := executeTCPLoopbackModel(t, p, mdl, ds.Reads, cfg)
		if err != nil {
			t.Fatalf("untraced run: %v", err)
		}

		trace.Enable(trace.DefaultCapacity)
		defer trace.Disable()
		on, err := executeTCPLoopbackModel(t, p, mdl, ds.Reads, cfg)
		if err != nil {
			t.Fatalf("traced run: %v", err)
		}

		assertTraceNeutral(t, pafBytes(t, off, ds.Reads), pafBytes(t, on, ds.Reads),
			off.VirtualTime, on.VirtualTime)
		if len(on.Trace) != p {
			t.Fatalf("traced report gathered %d rank buffers, want %d", len(on.Trace), p)
		}
	})
}

// TestProfileObservabilityOnly is TestTraceObservabilityOnly's twin for
// the profiler labels each stage body and query epoch runs under
// (trace.Do): a run under a CPU profile, the labels' one reader and what
// -cpuprofile starts, leaves the PAF bytes byte-identical and the modeled
// virtual_seconds bit-identical to an unprofiled run, on both transports.
func TestProfileObservabilityOnly(t *testing.T) {
	const p = 4
	ds := input(t, equivalenceInput)
	cfg := defaultConfig()
	mdl, err := machine.NewModelScaled(machine.Cori, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) (*Report, error)
	}{
		{"mem", func(*testing.T) (*Report, error) { return Execute(p, mdl, ds.Reads, cfg) }},
		{"tcp", func(t *testing.T) (*Report, error) { return executeTCPLoopbackModel(t, p, mdl, ds.Reads, cfg) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off, err := tc.run(t)
			if err != nil {
				t.Fatalf("unprofiled run: %v", err)
			}
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				t.Skipf("the CPU profiler is taken: %v", err)
			}
			on, err := tc.run(t)
			pprof.StopCPUProfile()
			if err != nil {
				t.Fatalf("profiled run: %v", err)
			}
			if prof.Len() == 0 {
				t.Error("the profiled run wrote no profile")
			}
			assertTraceNeutral(t, pafBytes(t, off, ds.Reads), pafBytes(t, on, ds.Reads),
				off.VirtualTime, on.VirtualTime)
		})
	}
}

// assertTraceNeutral fails unless the traced run's output is
// byte-identical PAF and bit-identical virtual seconds.
func assertTraceNeutral(t *testing.T, offPAF, onPAF []byte, offVirt, onVirt float64) {
	t.Helper()
	if len(offPAF) == 0 {
		t.Fatal("untraced run produced no PAF; dataset too small to compare anything")
	}
	if !bytes.Equal(offPAF, onPAF) {
		t.Errorf("PAF output differs with tracing on (%d vs %d bytes)", len(offPAF), len(onPAF))
	}
	if math.Float64bits(offVirt) != math.Float64bits(onVirt) {
		t.Errorf("virtual_seconds differs with tracing on: %v (%#x) vs %v (%#x)",
			offVirt, math.Float64bits(offVirt), onVirt, math.Float64bits(onVirt))
	}
}

// executeTCPLoopbackModel is executeTCPLoopback with a platform model,
// so the virtual clock carries a nonzero value worth comparing.
func executeTCPLoopbackModel(t *testing.T, p int, mdl *machine.Model, reads []*fastq.Record, cfg Config) (*Report, error) {
	t.Helper()
	var (
		rep *Report
		mu  sync.Mutex
	)
	err := runTCPLoopbackWorldModel(t, p, mdl, func(c *spmd.Comm) error {
		store := fastq.NewReadStore(reads, p)
		r, err := ExecuteComm(c, mdl, store, cfg, nil)
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

// runTCPLoopbackWorldModel is runTCPLoopbackWorld with a comm model
// attached to every rank.
func runTCPLoopbackWorldModel(t *testing.T, p int, mdl *machine.Model, fn func(c *spmd.Comm) error) error {
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
			errs[rank] = boot.Finish(spmd.RunTransport(tr, mdl, fn))
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

// TestTraceRowsFailByRank: a gathered trace row that does not decode, or
// that claims a rank other than its sender's, is an error naming the
// sender, not a panic on rank 0.
func TestTraceRowsFailByRank(t *testing.T) {
	good := func(rank int) []byte {
		return trace.RankEvents{Rank: rank, Events: []trace.Event{{Name: traceQuery, Arg: 7}}}.Encode()
	}
	if got, err := decodeTraceRows([][]byte{good(0), good(1)}); err != nil || len(got) != 2 || got[1].Rank != 1 {
		t.Fatalf("well-formed rows: %v, %v", got, err)
	}
	for name, rows := range map[string][][]byte{
		"truncated":    {good(0), good(1)[:9]},
		"trailing":     {good(0), append(good(1), 0)},
		"empty":        {good(0), nil},
		"wrong rank":   {good(0), good(2)},
		"swapped rows": {good(1), good(0)},
	} {
		_, err := decodeTraceRows(rows)
		want := "rank 1"
		if name == "swapped rows" {
			want = "rank 0"
		}
		if err == nil || !strings.Contains(err.Error(), "from "+want) {
			t.Errorf("%s: got %v, want an error naming %s", name, err, want)
		}
	}
}

// Each ready task list the batch stage aligns is one align.batch span, on
// every rank, inside that rank's stage.align span, its End's arg the
// extensions it ran; and arming the spans leaves every rank's modeled clock
// bit-identical to an untraced run.
func TestAlignBatchSpansNest(t *testing.T) {
	const p = 3
	ds := input(t, equivalenceInput)
	cfg := defaultConfig()
	mdl, err := machine.NewModelScaled(machine.Cori, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	trace.Disable()
	off, err := Execute(p, mdl, ds.Reads, cfg)
	if err != nil {
		t.Fatalf("untraced run: %v", err)
	}
	trace.Enable(trace.DefaultCapacity)
	defer trace.Disable()
	on, err := Execute(p, mdl, ds.Reads, cfg)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	for r := range off.PerRank {
		if a, b := off.PerRank[r].VirtualTotal, on.PerRank[r].VirtualTotal; math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("rank %d: modeled clock %v untraced, %v traced", r, a, b)
		}
	}
	if len(on.Trace) != p {
		t.Fatalf("traced report gathered %d rank buffers, want %d", len(on.Trace), p)
	}
	for _, re := range on.Trace {
		inStage, open, batches, extensions := false, false, 0, int64(0)
		for _, e := range re.Events {
			switch e.Name {
			case traceAlign:
				inStage = e.Phase == trace.PhaseBegin
				if !inStage && open {
					t.Errorf("rank %d: stage.align closed inside an align.batch span", re.Rank)
				}
			case traceAlignBatch:
				if !inStage {
					t.Errorf("rank %d: align.batch %c outside stage.align", re.Rank, e.Phase)
				}
				open = e.Phase == trace.PhaseBegin
				if !open {
					batches++
					extensions += e.Arg
				}
			}
		}
		if batches == 0 || extensions == 0 {
			t.Errorf("rank %d: %d align.batch spans over %d extensions", re.Rank, batches, extensions)
		}
		if want := 2 * on.PerRank[re.Rank].Align.Alignments; extensions != want {
			t.Errorf("rank %d: align.batch spans ran %d extensions, the stage %d", re.Rank, extensions, want)
		}
	}
}
