package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dibella/internal/fastq"
	"dibella/internal/overlap"
	"dibella/internal/paf"
	"dibella/internal/pipeline"
	"dibella/internal/seqgen"
	"dibella/internal/spmd"
	"dibella/internal/walltime"
	"dibella/internal/wire"
)

// splitDataset synthesizes a read set and splits it: the head is
// indexed, the tail becomes query batches. The concatenated order is
// exactly the order a combined batch-mode run would assign IDs in.
func splitDataset(t *testing.T, seed int64, queryReads int) (indexed []*fastq.Record, query []pipeline.QueryRead, all []*fastq.Record) {
	t.Helper()
	ds, err := seqgen.Generate(seqgen.Config{
		GenomeLen:   20000,
		Seed:        seed,
		Coverage:    12,
		MeanReadLen: 1800,
		MinReadLen:  500,
		ErrorRate:   0.08,
		BothStrands: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Reads) <= queryReads+4 {
		t.Fatalf("dataset too small: %d reads", len(ds.Reads))
	}
	n := len(ds.Reads) - queryReads
	indexed = ds.Reads[:n]
	for _, r := range ds.Reads[n:] {
		query = append(query, pipeline.QueryRead{Name: r.Name, Seq: r.Seq})
	}
	return indexed, query, ds.Reads
}

func serveTestConfig() pipeline.Config {
	return pipeline.Config{
		K: 17, MaxFreq: 8,
		SeedMode: overlap.MinDistance, MinDist: 500,
		KeepAlignments: true,
	}
}

// referencePAF runs the combined batch pipeline over indexed+query reads
// and renders the query-involving rows — the bytes the house invariant
// says a served batch must reproduce.
func referencePAF(t *testing.T, p int, all []*fastq.Record, base int, cfg pipeline.Config) []byte {
	t.Helper()
	rep, err := pipeline.Execute(p, nil, all, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var kept []pipeline.Alignment
	for _, a := range rep.Records {
		// Pairs are stored A < B and query IDs are the highest, so a pair
		// involves a query read exactly when B is one.
		if int(a.B) >= base {
			kept = append(kept, a)
		}
	}
	rep.Records = kept
	var buf bytes.Buffer
	if err := paf.Write(&buf, rep.PAFRecords(all)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runServeWorld forms a serve world on an in-process p-rank mem world
// and runs the daemon; drive is invoked with the frontend address once
// listening. Returns rank 0's daemon stats.
func runServeWorld(t *testing.T, p int, indexed []*fastq.Record, cfg pipeline.Config,
	opts Options, drive func(addr string)) Stats {
	t.Helper()
	var (
		stats Stats
		mu    sync.Mutex
	)
	done := make(chan struct{})
	opts.Ready = func(addr string) {
		go func() {
			defer close(done)
			drive(addr)
		}()
	}
	err := spmd.Run(p, func(c *spmd.Comm) error {
		store := fastq.NewReadStore(indexed, p)
		wcfg := cfg
		wcfg.KeepSingletons = true
		w, err := pipeline.FormWorld(c, nil, store, wcfg)
		if err != nil {
			return err
		}
		st, err := Serve(w, opts)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			stats = st
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	return stats
}

// TestServeMatchesBatch is the house invariant over the in-process
// transport: a served batch's PAF is byte-identical to the combined
// batch run restricted to query-involving pairs, at multiple world
// sizes.
func TestServeMatchesBatch(t *testing.T) {
	indexed, query, all := splitDataset(t, 11, 6)
	base := len(indexed)
	cfg := serveTestConfig()
	for _, p := range []int{2, 4} {
		want := referencePAF(t, p, all, base, cfg)
		var got []byte
		var qerr error
		stats := runServeWorld(t, p, indexed, cfg, Options{
			Addr: "127.0.0.1:0", MaxBatches: 1,
		}, func(addr string) {
			cl, err := DialTimeout(addr, 0)
			if err != nil {
				qerr = err
				return
			}
			defer cl.Close()
			res, err := cl.Query("", query)
			if err != nil {
				qerr = err
				return
			}
			got = res.PAF
		})
		if qerr != nil {
			t.Fatalf("p=%d: query: %v", p, qerr)
		}
		if stats.Served != 1 {
			t.Fatalf("p=%d: served %d batches, want 1", p, stats.Served)
		}
		if len(want) == 0 {
			t.Fatalf("p=%d: degenerate reference (no query-involving pairs)", p)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("p=%d: served PAF differs from batch reference\nserved %d bytes, want %d",
				p, len(got), len(want))
		}
	}
}

// TestServeMatchesBatchTCP repeats the invariant with the SPMD world on
// the TCP transport — one transport per rank over loopback — so the
// query path's collectives cross a real address-space-style boundary.
func TestServeMatchesBatchTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP world in -short mode")
	}
	indexed, query, all := splitDataset(t, 23, 5)
	base := len(indexed)
	cfg := serveTestConfig()
	const p = 2
	want := referencePAF(t, p, all, base, cfg)
	if len(want) == 0 {
		t.Fatal("degenerate reference (no query-involving pairs)")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rendezvous := ln.Addr().String()
	var got []byte
	var qerr error
	driveDone := make(chan struct{})
	drive := func(addr string) {
		defer close(driveDone)
		cl, err := DialTimeout(addr, 0)
		if err != nil {
			qerr = err
			return
		}
		defer cl.Close()
		res, err := cl.Query("", query)
		if err != nil {
			qerr = err
			return
		}
		got = res.PAF
	}
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
			errs[rank] = boot.Finish(spmd.RunTransport(tr, nil, func(c *spmd.Comm) error {
				store := fastq.NewReadStore(indexed, p)
				wcfg := cfg
				wcfg.KeepSingletons = true
				w, err := pipeline.FormWorld(c, nil, store, wcfg)
				if err != nil {
					return err
				}
				_, err = Serve(w, Options{
					Addr: "127.0.0.1:0", MaxBatches: 1,
					Ready: func(addr string) { go drive(addr) },
				})
				return err
			}))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	<-driveDone
	if qerr != nil {
		t.Fatalf("query: %v", qerr)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("served PAF over tcp differs from batch reference\nserved %d bytes, want %d",
			len(got), len(want))
	}
}

// TestServeConcurrentClients races two clients against one daemon; every
// batch's answer must equal its own combined-run reference no matter how
// admission interleaves them.
func TestServeConcurrentClients(t *testing.T) {
	indexed, query, _ := splitDataset(t, 31, 8)
	base := len(indexed)
	cfg := serveTestConfig()
	const p = 2
	batchA, batchB := query[:4], query[4:]
	allA := append(append([]*fastq.Record(nil), indexed...), recordsOf(batchA)...)
	allB := append(append([]*fastq.Record(nil), indexed...), recordsOf(batchB)...)
	wantA := referencePAF(t, p, allA, base, cfg)
	wantB := referencePAF(t, p, allB, base, cfg)

	const perClient = 2 // each client repeats its batch
	results := make([][]byte, 2*perClient)
	qerrs := make([]error, 2*perClient)
	runServeWorld(t, p, indexed, cfg, Options{
		Addr: "127.0.0.1:0", MaxBatches: 2 * perClient, MaxInflight: 2 * perClient,
	}, func(addr string) {
		var wg sync.WaitGroup
		for cli := 0; cli < 2; cli++ {
			wg.Add(1)
			go func(cli int) {
				defer wg.Done()
				batch := batchA
				if cli == 1 {
					batch = batchB
				}
				cl, err := DialTimeout(addr, 0)
				if err != nil {
					qerrs[cli*perClient] = err
					return
				}
				defer cl.Close()
				for i := 0; i < perClient; i++ {
					res, err := cl.Query("", batch)
					if err != nil {
						qerrs[cli*perClient+i] = err
						return
					}
					results[cli*perClient+i] = res.PAF
				}
			}(cli)
		}
		wg.Wait()
	})
	for i, err := range qerrs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	for i, got := range results {
		want := wantA
		if i >= perClient {
			want = wantB
		}
		if !bytes.Equal(got, want) {
			t.Errorf("concurrent query %d: PAF differs from its reference", i)
		}
	}
}

func recordsOf(batch []pipeline.QueryRead) []*fastq.Record {
	out := make([]*fastq.Record, 0, len(batch))
	for _, q := range batch {
		out = append(out, &fastq.Record{Name: q.Name, Seq: q.Seq})
	}
	return out
}

// TestAdmissionControl exercises the typed rejections without a world:
// tenant allow list, batch size limit, bounded in-flight window, and
// the post-shutdown refusal.
func TestAdmissionControl(t *testing.T) {
	opts := Options{MaxInflight: 1, MaxBatchReads: 4, Tenants: []string{"alice"}}
	opts.setDefaults()
	s := &server{
		opts:    opts,
		tenants: map[string]bool{"alice": true},
		jobs:    make(chan *job, opts.MaxInflight+16),
	}
	batch := []pipeline.QueryRead{{Name: "q", Seq: []byte("ACGT")}}

	if _, err := s.admit(&queryRequest{Tenant: "mallory", Reads: batch}, 10); !errors.Is(err, ErrBadTenant) {
		t.Errorf("wrong tenant: got %v, want ErrBadTenant", err)
	}
	if _, err := s.admit(&queryRequest{Tenant: "alice"}, 10); !errors.Is(err, ErrEmptyBatch) {
		t.Errorf("empty batch: got %v, want ErrEmptyBatch", err)
	}
	big := make([]pipeline.QueryRead, 5)
	for i := range big {
		big[i] = batch[0]
	}
	if _, err := s.admit(&queryRequest{Tenant: "alice", Reads: big}, 10); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized batch: got %v, want ErrTooLarge", err)
	}
	j, err := s.admit(&queryRequest{Tenant: "alice", Reads: batch}, 10)
	if err != nil || j == nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if _, err := s.admit(&queryRequest{Tenant: "alice", Reads: batch}, 10); !errors.Is(err, ErrQueueFull) {
		t.Errorf("over the in-flight bound: got %v, want ErrQueueFull", err)
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if _, err := s.admit(&queryRequest{Tenant: "alice", Reads: batch}, 10); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("after close: got %v, want ErrShuttingDown", err)
	}
	if s.rejected != 5 {
		t.Errorf("rejected count %d, want 5", s.rejected)
	}
}

// TestServeRejectsOverWire verifies a rejection travels the frontend
// protocol as its sentinel: wrong tenant against a tenant-gated daemon.
func TestServeRejectsOverWire(t *testing.T) {
	indexed, query, _ := splitDataset(t, 5, 3)
	cfg := serveTestConfig()
	var wrongTenantErr, okErr error
	runServeWorld(t, 2, indexed, cfg, Options{
		Addr: "127.0.0.1:0", MaxBatches: 1, Tenants: []string{"alice"},
	}, func(addr string) {
		cl, err := DialTimeout(addr, 0)
		if err != nil {
			okErr = err
			return
		}
		defer cl.Close()
		_, wrongTenantErr = cl.Query("mallory", query)
		_, okErr = cl.Query("alice", query)
	})
	if !errors.Is(wrongTenantErr, ErrBadTenant) {
		t.Errorf("wrong tenant over the wire: got %v, want ErrBadTenant", wrongTenantErr)
	}
	if okErr != nil {
		t.Errorf("allowed tenant rejected: %v", okErr)
	}
}

// TestGarbageHeaderLosesItsConnection: a client whose first bytes are not a
// dibella frame header — random bytes, or a magic outside the 0xD1 brand,
// so not a version mismatch either — loses its connection without a reply
// frame, and its handler goroutine exits. A well-formed client connected
// all along is served afterwards.
func TestGarbageHeaderLosesItsConnection(t *testing.T) {
	indexed, query, _ := splitDataset(t, 5, 3)
	noise := make([]byte, 64)
	rand.New(rand.NewSource(29)).Read(noise)
	noise[0] = 0x5A
	garbage := []struct {
		name string
		b    []byte
	}{
		{"random bytes", noise},
		{"foreign magic", wire.U32(wire.U8(wire.U16(nil, 0x47C1), frameQuery), 16)},
	}
	var paf []byte
	stats := runServeWorld(t, 2, indexed, serveTestConfig(), Options{
		Addr: "127.0.0.1:0", MaxBatches: 1, Tenants: []string{"alice"},
	}, func(addr string) {
		cl, err := DialTimeout(addr, 5*time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		// A refusal round trip: the good client's handler is up before
		// the baseline is counted.
		if err := cl.Shutdown("mallory"); !errors.Is(err, ErrBadTenant) {
			t.Errorf("wrong-tenant shutdown: got %v, want ErrBadTenant", err)
			return
		}
		baseline := runtime.NumGoroutine()
		for _, g := range garbage {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := conn.Write(g.b); err != nil {
				t.Errorf("%s: %v", g.name, err)
			}
			conn.SetReadDeadline(walltime.Deadline(5 * time.Second))
			n, err := conn.Read(make([]byte, 1))
			conn.Close()
			var ne net.Error
			switch {
			case n > 0:
				t.Errorf("%s: the daemon answered", g.name)
			case errors.As(err, &ne) && ne.Timeout():
				t.Errorf("%s: still connected after 5s", g.name)
			}
		}
		for i := 0; runtime.NumGoroutine() > baseline; i++ {
			if i == 100 {
				t.Errorf("%d goroutines after the garbage connections closed, %d before", runtime.NumGoroutine(), baseline)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		res, err := cl.Query("alice", query)
		if err != nil {
			t.Errorf("well-formed client after the garbage: %v", err)
			return
		}
		paf = res.PAF
	})
	if stats.Served != 1 || len(paf) == 0 {
		t.Errorf("served %d batches, %d PAF bytes; want 1 batch with rows", stats.Served, len(paf))
	}
}

// TestConnectAndHoldIsBounded: clients that connect and never send a frame
// hold at most maxFrontendConns handler goroutines. Each connection past
// the cap closes the one that has waited longest for a header, so the
// oldest holders see EOF and the newest stay connected; a well-formed
// client that arrives after them is served, and once they hang up the
// goroutines are back to where they were.
func TestConnectAndHoldIsBounded(t *testing.T) {
	defer func(n int) { maxFrontendConns = n }(maxFrontendConns)
	const limit = 4
	maxFrontendConns = limit
	indexed, query, _ := splitDataset(t, 7, 3)
	var paf []byte
	stats := runServeWorld(t, 2, indexed, serveTestConfig(), Options{
		Addr: "127.0.0.1:0", MaxBatches: 1, Tenants: []string{"alice"},
	}, func(addr string) {
		baseline := runtime.NumGoroutine()
		var holders []net.Conn
		defer func() {
			for _, c := range holders {
				c.Close()
			}
			if paf == nil { // failed before the batch: stop the daemon instead of waiting on it
				if cl, err := DialTimeout(addr, 5*time.Second); err == nil {
					cl.Shutdown("alice")
					cl.Close()
				}
			}
		}()
		for range limit + 16 {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			holders = append(holders, conn)
			// One at a time, so that accept order is dial order.
			for i := 0; ; i++ {
				s := runtime.NumGoroutine() - baseline
				if s == min(len(holders), limit) {
					break
				}
				if i == 200 {
					t.Errorf("%d connections held by %d goroutines above baseline, cap %d", len(holders), s, limit)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		for i, conn := range holders {
			conn.SetReadDeadline(walltime.Deadline(100 * time.Millisecond))
			_, err := conn.Read(make([]byte, 1))
			var ne net.Error
			if timedOut := errors.As(err, &ne) && ne.Timeout(); timedOut != (i >= 16) {
				t.Errorf("holder %d of %d: read returned %v; want EOF for the 16 oldest, a timeout for the %d newest",
					i, len(holders), err, limit)
			}
		}

		cl, err := DialTimeout(addr, 5*time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		res, err := cl.Query("alice", query)
		if err != nil {
			t.Errorf("well-formed client after %d holders: %v", len(holders), err)
			return
		}
		paf = res.PAF
		for _, c := range holders {
			c.Close()
		}
		holders = nil
		cl.Close()
		for i := 0; runtime.NumGoroutine() > baseline; i++ {
			if i == 200 {
				t.Errorf("%d goroutines after every client hung up, %d before", runtime.NumGoroutine(), baseline)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
	if stats.Served != 1 || len(paf) == 0 {
		t.Errorf("served %d batches, %d PAF bytes; want 1 batch with rows", stats.Served, len(paf))
	}
}

// TestServeMetricsEndpoint reconciles the /metrics scrape against
// client-observed ground truth: two deterministic bad-tenant rejections
// (a query and a shutdown request) and two served batches must appear in
// the exposition and in the daemon's exit stats exactly, and the pprof
// index must answer. Counters are compared as deltas against a
// pre-run snapshot because the registry is process-global across tests.
func TestServeMetricsEndpoint(t *testing.T) {
	indexed, query, _ := splitDataset(t, 13, 4)
	cfg := serveTestConfig()
	const p = 2

	reqBefore := requestsTotal.Value()
	rejBefore := rejectionsTotal.With("bad-tenant").Value()
	latBefore := batchLatency.Count()

	metricsCh := make(chan string, 1)
	var (
		scrape      []byte
		pprofStatus int
		driveErr    error
	)
	stats := runServeWorld(t, p, indexed, cfg, Options{
		Addr: "127.0.0.1:0", Tenants: []string{"alice"},
		MetricsAddr:  "127.0.0.1:0",
		MetricsReady: func(addr string) { metricsCh <- addr },
	}, func(addr string) {
		fail := func(err error) {
			if driveErr == nil {
				driveErr = err
			}
		}
		cl, err := DialTimeout(addr, 0)
		if err != nil {
			fail(err)
			return
		}
		defer cl.Close()
		defer cl.Shutdown("alice")
		if _, err := cl.Query("mallory", query); !errors.Is(err, ErrBadTenant) {
			fail(fmt.Errorf("wrong tenant: got %v, want ErrBadTenant", err))
			return
		}
		if err := cl.Shutdown("mallory"); !errors.Is(err, ErrBadTenant) {
			fail(fmt.Errorf("wrong tenant's shutdown: got %v, want ErrBadTenant", err))
			return
		}
		for i := 0; i < 2; i++ {
			if _, err := cl.Query("alice", query); err != nil {
				fail(fmt.Errorf("batch %d: %w", i, err))
				return
			}
		}
		// Replies arrived, so the daemon's accounting is committed; the
		// scrape must agree with what this client just observed.
		murl := "http://" + <-metricsCh
		resp, err := http.Get(murl + "/metrics")
		if err != nil {
			fail(err)
			return
		}
		scrape, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			fail(err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			fail(fmt.Errorf("/metrics status %d", resp.StatusCode))
			return
		}
		presp, err := http.Get(murl + "/debug/pprof/")
		if err != nil {
			fail(err)
			return
		}
		io.Copy(io.Discard, presp.Body)
		presp.Body.Close()
		pprofStatus = presp.StatusCode
	})
	if driveErr != nil {
		t.Fatal(driveErr)
	}
	if pprofStatus != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d, want 200", pprofStatus)
	}

	if got := scrapedValue(t, scrape, `dibella_serve_requests_total`); got != reqBefore+3 {
		t.Errorf("scraped requests_total %d, want %d (3 client requests)", got, reqBefore+3)
	}
	if got := scrapedValue(t, scrape, `dibella_serve_rejections_total{reason="bad-tenant"}`); got != rejBefore+2 {
		t.Errorf("scraped bad-tenant rejections %d, want %d (2 client-observed rejections)", got, rejBefore+2)
	}
	if stats.Rejected != 2 || stats.Served != 2 {
		t.Errorf("daemon stats: served %d rejected %d, want 2 and 2", stats.Served, stats.Rejected)
	}
	if got := scrapedValue(t, scrape, `dibella_serve_batch_latency_seconds_count`); got != latBefore+2 {
		t.Errorf("scraped latency sample count %d, want %d (2 served batches)", got, latBefore+2)
	}
	for _, name := range []string{"dibella_resident_memory_bytes", "dibella_serve_inflight"} {
		if !bytes.Contains(scrape, []byte(name)) {
			t.Errorf("scrape is missing metric %s", name)
		}
	}
}

// scrapedValue extracts one sample's integer value from a Prometheus
// text exposition.
func scrapedValue(t *testing.T, scrape []byte, sample string) int64 {
	t.Helper()
	for _, line := range strings.Split(string(scrape), "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				t.Fatalf("sample %s: unparseable value %q", sample, rest)
			}
			return v
		}
	}
	t.Fatalf("sample %s not found in scrape:\n%s", sample, scrape)
	return 0
}

// TestShutdownAckSurvivesTeardown cycles daemon start → Client.Shutdown:
// every cycle must observe the typed acknowledgement. The handler used
// to signal the loop before writing the ack, so shutdown's closeConns
// could cut the frame off mid-write (about one call in three).
func TestShutdownAckSurvivesTeardown(t *testing.T) {
	indexed, _, _ := splitDataset(t, 5, 3)
	cfg := serveTestConfig()
	for cycle := 0; cycle < 60; cycle++ {
		var err error
		runServeWorld(t, 2, indexed[:8], cfg, Options{Addr: "127.0.0.1:0"}, func(addr string) {
			var cl *Client
			if cl, err = DialTimeout(addr, 0); err != nil {
				return
			}
			defer cl.Close()
			err = cl.Shutdown("")
		})
		if err != nil {
			t.Fatalf("cycle %d: Shutdown did not see its ack: %v", cycle, err)
		}
	}
}

// closeLogConn records the order connections are closed in.
type closeLogConn struct {
	net.Conn
	id  int
	log *[]int
}

func (c *closeLogConn) Close() error {
	*c.log = append(*c.log, c.id)
	return nil
}

// TestDropConnKeepsAcceptOrder checks the registry's teardown contract:
// dropping a connection from the middle leaves closeConns closing the
// rest in accept order.
func TestDropConnKeepsAcceptOrder(t *testing.T) {
	var closed []int
	s := &server{}
	for id := 0; id < 4; id++ {
		s.conns = append(s.conns, &frontConn{Conn: &closeLogConn{id: id, log: &closed}})
	}
	s.dropConn(s.conns[1])
	s.closeConns()
	if want := []int{0, 2, 3}; !slices.Equal(closed, want) {
		t.Errorf("closeConns closed %v, want accept order %v", closed, want)
	}
}
