// Package serve implements dibella's resident alignment-as-a-service
// daemon: after the load and build stages, the formed world (read store
// plus DHT partition) stays resident, and rank 0 exposes a TCP frontend
// accepting batches of FASTQ query reads. Admission control bounds the
// in-flight work, and the SPMD world answers each admitted batch
// collectively against the resident index, every alignment task placed
// by rule (pipeline.RunQuery). Served output is byte-identical to a
// batch-mode run over the indexed plus query reads, restricted to
// query-involving pairs.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"dibella/internal/paf"
	"dibella/internal/pipeline"
	"dibella/internal/spmd"
	"dibella/internal/trace"
	"dibella/internal/walltime"
)

// Flight-recorder event names for the request path (admit → broadcast →
// align → reply) and the daemon's metric names. Registered package-level
// constants, as the tracename analyzer requires.
//
// Admission runs on connection goroutines, off the SPMD loop thread that
// owns the virtual clock, so its events carry wall time only (virtual 0).
// The batch span runs on the loop thread and carries both clocks.
const (
	traceAdmit  = "serve.admit"
	traceReject = "serve.reject"
	traceBatch  = "serve.batch"
	traceReply  = "serve.reply"

	metricRequests   = "dibella_serve_requests_total"
	metricRejections = "dibella_serve_rejections_total"
	metricInflight   = "dibella_serve_inflight"
	metricLatency    = "dibella_serve_batch_latency_seconds"
)

var (
	requestsTotal = trace.RegisterCounter(metricRequests,
		"query frames reaching admission control")
	rejectionsTotal = trace.RegisterCounterVec(metricRejections,
		"admission rejections by sentinel reason", "reason")
	inflightBatches = trace.RegisterGauge(metricInflight,
		"batches admitted but not yet answered")
	batchLatency = trace.RegisterHistogram(metricLatency,
		"admission-to-reply latency of served batches, seconds", nil)
)

// Admission rejections, surfaced to clients as structured error frames.
var (
	// ErrQueueFull means the bounded in-flight window is exhausted; the
	// client should back off and retry.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrBadTenant means the request's tenant token is not on the
	// daemon's allow list.
	ErrBadTenant = errors.New("serve: unknown tenant token")
	// ErrTooLarge means the batch exceeds the admission read limit.
	ErrTooLarge = errors.New("serve: batch exceeds admission size limit")
	// ErrEmptyBatch means the request carried no reads.
	ErrEmptyBatch = errors.New("serve: empty query batch")
	// ErrShuttingDown means the daemon stopped admitting work.
	ErrShuttingDown = errors.New("serve: daemon is shutting down")
	// ErrBadVersion means the peer speaks another version of the frontend
	// protocol (a dibella-query and a daemon from different builds).
	ErrBadVersion = errors.New("serve: frontend protocol version mismatch")
)

// refusals pairs each typed refusal with its wire code.
var refusals = []struct {
	err  error
	code string
}{
	{ErrQueueFull, "queue-full"},
	{ErrBadTenant, "bad-tenant"},
	{ErrTooLarge, "too-large"},
	{ErrEmptyBatch, "empty-batch"},
	{ErrShuttingDown, "shutting-down"},
	{ErrBadVersion, "bad-version"},
}

// RejectionCode maps a typed refusal to its sentinel wire code
// ("queue-full", "bad-tenant", ...). ok is false for errors that are not
// the daemon refusing (transport failures, internal errors), so callers —
// dibella-query's exit-status logic, scrape assertions — can distinguish
// "the daemon said no" from "the request never made it".
func RejectionCode(err error) (code string, ok bool) {
	for _, r := range refusals {
		if errors.Is(err, r.err) {
			return r.code, true
		}
	}
	return "", false
}

// errCode maps an admission or service error to its wire code.
func errCode(err error) string {
	if code, ok := RejectionCode(err); ok {
		return code
	}
	return "internal"
}

// codeErr maps a wire code back to its sentinel (clients use errors.Is).
func codeErr(code, msg string) error {
	for _, r := range refusals {
		if r.code != code {
			continue
		}
		// The wire message usually is the server-side error, which already
		// starts with the sentinel's text; keep only its detail suffix.
		if suffix, ok := strings.CutPrefix(msg, r.err.Error()); ok {
			return fmt.Errorf("%w%s", r.err, suffix)
		}
		return fmt.Errorf("%w: %s", r.err, msg)
	}
	return fmt.Errorf("serve: remote error (%s): %s", code, msg)
}

// Options configures the daemon.
type Options struct {
	// Addr is rank 0's frontend listen address (e.g. "127.0.0.1:0").
	Addr string
	// MaxInflight bounds admitted-but-unfinished batches (default 4);
	// the excess is rejected with ErrQueueFull, never queued unbounded.
	MaxInflight int
	// MaxBatchReads bounds one batch's read count (default 1024).
	MaxBatchReads int
	// Tenants is the allow list of tenant tokens; empty admits any.
	Tenants []string
	// MaxBatches stops the daemon after serving this many batches
	// (0: serve until a client sends a shutdown request).
	MaxBatches int
	// Ready, when set, is invoked on rank 0 with the bound frontend
	// address once the listener is up.
	Ready func(addr string)
	// MetricsAddr, when set, brings up rank 0's observability endpoint:
	// /metrics (Prometheus text format) and /debug/pprof/*. Handlers
	// read local counters only — never a collective — so scrapes cannot
	// stall or reorder the SPMD loop.
	MetricsAddr string
	// MetricsReady, when set, is invoked on rank 0 with the bound
	// metrics address once that listener is up.
	MetricsReady func(addr string)
	// Logf, when set, receives rank-0 progress lines.
	Logf func(format string, args ...any)
}

func (o *Options) setDefaults() {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4
	}
	if o.MaxBatchReads <= 0 {
		o.MaxBatchReads = 1024
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Stats summarizes a daemon's lifetime (rank 0; followers return zero
// stats).
type Stats struct {
	Served   int64
	Rejected int64
	// VirtualSeconds is the rank-0 modeled clock advance across the
	// serving loop (admission and every collective priced).
	VirtualSeconds float64
}

// SPMD ops broadcast from rank 0 to keep the world's collective order
// identical on every rank.
const (
	opQuery = 1
	opStop  = 2
	opFail  = 3
)

type servOp struct {
	Kind  int
	Batch []pipeline.QueryRead
	Msg   string // opFail diagnostic
}

// job is one admitted batch waiting for the SPMD loop.
type job struct {
	batch    []pipeline.QueryRead
	reqBytes int
	tenant   string
	admitted walltime.Point
	// wait is the queue latency, captured when the job is dequeued
	// (before the query runs) so QueueWaitSecs excludes service time.
	wait time.Duration
	resp chan jobResult
}

type jobResult struct {
	resp QueryResult
	err  error
}

type server struct {
	w       *pipeline.World
	opts    Options
	ln      net.Listener
	tenants map[string]bool

	mu       sync.Mutex
	inflight int
	admitted int64
	rejected int64
	closed   bool

	// rec is rank 0's flight recorder (nil unless tracing is enabled).
	// Emits happen from both the SPMD loop and connection goroutines;
	// the recorder is internally synchronized.
	rec *trace.Recorder
	// metricsSrv is the optional rank-0 observability endpoint.
	metricsSrv *http.Server

	jobs     chan *job
	stopOnce sync.Once
	// respWG tracks admitted jobs whose response frame has not been
	// written yet, so shutdown cannot cut off an answered batch.
	respWG sync.WaitGroup

	// conns is a slice, not a map: closeConns walks it, and the serve
	// package is detmap-audited — connection teardown order stays
	// deterministic (accept order) rather than map-iteration order.
	// idleClock stamps a connection each time it starts waiting for a
	// frame header, so the smallest stamp has waited longest.
	connMu    sync.Mutex
	conns     []*frontConn
	idleClock uint64
}

// frontConn is a registered frontend connection.
type frontConn struct {
	net.Conn
	idleSince uint64 // idleClock when it began waiting for a header; 0 mid-frame
	evicted   bool   // closed to make room for a newer connection
}

// Serve runs the daemon over w's world. All ranks call it collectively
// and run the same loop: rank 0 owns the frontend (listener, admission,
// replies — all local work), and every collective — the op broadcast
// and the query itself — sits on the unconditional path, so every rank
// reaches the same collectives in the same order by construction.
// Serve returns once MaxBatches have been served or a client requested
// shutdown.
func Serve(w *pipeline.World, opts Options) (Stats, error) {
	opts.setDefaults()
	c := w.Comm()

	// One collective memory snapshot up front: the partition footprint
	// is fixed after forming, so this gather sets the resident-memory
	// gauge of every rank for the daemon's lifetime.
	w.GatherMemBytes()

	// Rank 0's frontend setup is local; a listen failure reaches the
	// other ranks through the op stream (opFail) below, so the world
	// unwinds collectively.
	var s *server
	var setupErr error
	if c.Rank() == 0 {
		s, setupErr = startFrontend(w, opts)
	}

	v0 := c.Now()
	var served int64
	for {
		// Only rank 0 decides the next op; the decision is local work.
		// The decision stays in its own rank-local variable and the
		// broadcast result binds a fresh one: after the Bcast, op is
		// world-uniform by construction, so the switch below cannot
		// diverge the collective schedule.
		var local servOp
		var j *job
		if c.Rank() == 0 {
			if setupErr != nil {
				local = servOp{Kind: opFail, Msg: setupErr.Error()}
			} else {
				local, j = s.next(served)
			}
		}
		op, err := decodeServOp(spmd.Bcast(c, local.encode(nil), 0))
		if err != nil {
			return Stats{}, fmt.Errorf("serve: op from rank 0: %w", err)
		}
		switch op.Kind {
		case opQuery:
			// Query errors are deterministic and collectively
			// consistent, so every rank keeps serving after one; rank 0
			// also reports it to the waiting client.
			vStart := c.Now()
			recs, err := w.RunQuery(0, op.Batch)
			served++
			if c.Rank() == 0 {
				s.finish(j, recs, err, served, c.Now()-vStart)
			}
		case opStop:
			if c.Rank() == 0 {
				return s.shutdown(served, c.Now()-v0), nil
			}
			return Stats{}, nil
		case opFail:
			if c.Rank() == 0 {
				return Stats{}, setupErr
			}
			return Stats{}, fmt.Errorf("serve: frontend failed: %s", op.Msg)
		default:
			return Stats{}, fmt.Errorf("serve: unknown op kind %d", op.Kind)
		}
	}
}

// startFrontend builds rank 0's server state and brings up the
// listener and accept loop. No collectives: a failure here is local
// until the op stream shares it.
func startFrontend(w *pipeline.World, opts Options) (*server, error) {
	s := &server{
		w: w, opts: opts,
		jobs: make(chan *job, opts.MaxInflight+16),
		rec:  trace.Rec(w.Comm().Rank()),
	}
	if len(opts.Tenants) > 0 {
		s.tenants = make(map[string]bool, len(opts.Tenants))
		for _, t := range opts.Tenants {
			s.tenants[t] = true
		}
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", opts.Addr, err)
	}
	s.ln = ln
	opts.Logf("serve: listening on %s (ranks=%d inflight<=%d)",
		ln.Addr(), w.Comm().Size(), opts.MaxInflight)
	if opts.Ready != nil {
		opts.Ready(ln.Addr().String())
	}
	if opts.MetricsAddr != "" {
		mln, err := net.Listen("tcp", opts.MetricsAddr)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("serve: metrics listen %s: %w", opts.MetricsAddr, err)
		}
		s.metricsSrv = &http.Server{Handler: trace.NewObservabilityMux()}
		opts.Logf("serve: metrics on http://%s/metrics (pprof under /debug/pprof/)", mln.Addr())
		if opts.MetricsReady != nil {
			opts.MetricsReady(mln.Addr().String())
		}
		go s.metricsSrv.Serve(mln)
	}
	go s.acceptLoop(ln)
	return s, nil
}

// next dequeues rank 0's next op for the broadcast stream: admitted
// jobs in admission order, or the stop decision. Frontend costs land
// on the rank-0 clock here — nothing is free, including decoding the
// request.
func (s *server) next(served int64) (servOp, *job) {
	if s.opts.MaxBatches > 0 && served >= int64(s.opts.MaxBatches) {
		return servOp{Kind: opStop}, nil
	}
	j := <-s.jobs
	if j == nil {
		return servOp{Kind: opStop}, nil // client-requested shutdown
	}
	c := s.w.Comm()
	if model := s.w.Model(); model != nil {
		c.Tick(model.QueryAdmitTime(float64(j.reqBytes)))
	}
	j.wait = walltime.Since(j.admitted)
	// The batch span runs on the SPMD loop thread, which owns the
	// virtual clock: it covers broadcast, the collective query, and the
	// reply handoff, in both timelines.
	s.rec.BeginTag(traceBatch, c.Now(), j.tenant)
	return servOp{Kind: opQuery, Batch: j.batch}, j
}

// finish answers the connection handler waiting on one served batch
// and releases its admission slot.
func (s *server) finish(j *job, recs []pipeline.Alignment, err error, served int64, virtSecs float64) {
	// Accounting lands before the reply: a client that has its answer can
	// rely on the scrape endpoint already reflecting the batch, which is
	// what lets tests (and operators) reconcile /metrics against
	// client-observed ground truth without racing the daemon.
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
	inflightBatches.Add(-1)
	batchLatency.Observe(walltime.Since(j.admitted).Seconds())
	s.rec.Instant(traceReply, s.w.Comm().Now(), int64(len(recs)))
	s.rec.End(traceBatch, s.w.Comm().Now(), int64(len(j.batch)))
	if err != nil {
		j.resp <- jobResult{err: err}
	} else {
		var buf bytes.Buffer
		if werr := paf.Write(&buf, s.w.QueryPAF(j.batch, recs)); werr != nil {
			j.resp <- jobResult{err: werr}
		} else {
			j.resp <- jobResult{resp: QueryResult{
				PAF:            buf.Bytes(),
				Records:        len(recs),
				VirtualSeconds: virtSecs,
				QueueWaitSecs:  j.wait.Seconds(),
			}}
		}
	}
	s.opts.Logf("serve: batch %d (%d reads, %d records)",
		served, len(j.batch), len(recs))
}

// shutdown stops admission, rejects the queue, waits for the in-flight
// responses to flush, and tears the frontend down.
func (s *server) shutdown(served int64, virtSecs float64) Stats {
	s.mu.Lock()
	s.closed = true
	rejected := s.rejected
	s.mu.Unlock()
	s.drain()
	// Every admitted job has an answer queued by now; wait for the
	// handlers to finish writing them before the listener and the
	// connections come down.
	s.respWG.Wait()
	s.ln.Close()
	if s.metricsSrv != nil {
		s.metricsSrv.Close()
	}
	s.closeConns()
	return Stats{Served: served, Rejected: rejected, VirtualSeconds: virtSecs}
}

// drain rejects every job still queued after the stop decision.
func (s *server) drain() {
	for {
		select {
		case j := <-s.jobs:
			if j != nil {
				j.resp <- jobResult{err: ErrShuttingDown}
			}
		default:
			return
		}
	}
}

// reject counts one typed refusal and returns it. The caller holds s.mu.
func (s *server) reject(err error) error {
	s.rejected++
	code := errCode(err)
	rejectionsTotal.With(code).Inc()
	s.rec.InstantTag(traceReject, 0, code)
	return err
}

// checkTenant refuses a token that is not on the allow list. The caller
// holds s.mu.
func (s *server) checkTenant(tenant string) error {
	if s.tenants != nil && !s.tenants[tenant] {
		return s.reject(fmt.Errorf("%w: %q", ErrBadTenant, tenant))
	}
	return nil
}

// admit applies admission control and, on success, enqueues the batch.
// Rejections are counted and typed.
func (s *server) admit(req *queryRequest, reqBytes int) (*job, error) {
	requestsTotal.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, s.reject(ErrShuttingDown)
	}
	if err := s.checkTenant(req.Tenant); err != nil {
		return nil, err
	}
	if len(req.Reads) == 0 {
		return nil, s.reject(ErrEmptyBatch)
	}
	if len(req.Reads) > s.opts.MaxBatchReads {
		return nil, s.reject(fmt.Errorf("%w: %d reads > limit %d", ErrTooLarge, len(req.Reads), s.opts.MaxBatchReads))
	}
	if s.inflight >= s.opts.MaxInflight {
		return nil, s.reject(fmt.Errorf("%w: %d in flight", ErrQueueFull, s.inflight))
	}
	if s.opts.MaxBatches > 0 && s.admitted >= int64(s.opts.MaxBatches) {
		return nil, s.reject(ErrShuttingDown)
	}
	s.inflight++
	s.admitted++
	// Admission happens here, on the connection goroutine: a
	// wall-clock-only event (the virtual clock lives on the loop thread),
	// plus the live in-flight gauge the scrape endpoint serves.
	s.rec.InstantTag(traceAdmit, 0, req.Tenant)
	inflightBatches.Add(1)
	j := &job{
		batch: req.Reads, reqBytes: reqBytes, tenant: req.Tenant,
		admitted: walltime.Now(), resp: make(chan jobResult, 1),
	}
	s.respWG.Add(1)
	s.jobs <- j // capacity >= MaxInflight, never blocks under the bound
	return j, nil
}

// maxFrontendConns caps the frontend connections held at once, each a
// handler goroutine and its buffers. A connection past the cap takes the
// place of the one that has waited longest for a frame header; one that is
// mid-frame or waiting for an admitted batch is never closed, and when
// every held connection is, the new one is. It is a variable only so that
// tests can lower it.
var maxFrontendConns = 256

// acceptLoop accepts frontend connections until the listener closes.
func (s *server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		fc := &frontConn{Conn: conn}
		if !s.register(fc) {
			conn.Close()
			continue
		}
		go s.handleConn(fc)
	}
}

// register adds fc to the registry as the newest idle connection, first
// closing the longest-idle held one if the registry is full; false means it
// was full of connections that are all mid-frame.
func (s *server) register(fc *frontConn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.idleClock++
	fc.idleSince = s.idleClock
	if len(s.conns) >= maxFrontendConns {
		victim := -1
		for i, c := range s.conns {
			if c.idleSince != 0 && (victim < 0 || c.idleSince < s.conns[victim].idleSince) {
				victim = i
			}
		}
		if victim < 0 {
			return false
		}
		s.conns[victim].evicted = true
		s.conns[victim].Close()
		s.conns = slices.Delete(s.conns, victim, victim+1)
	}
	s.conns = append(s.conns, fc)
	return true
}

// idle marks fc as waiting for a frame header, the newest to do so.
func (s *server) idle(fc *frontConn) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.idleClock++
	fc.idleSince = s.idleClock
}

// busy marks fc as mid-frame, past eviction; false means it was evicted
// while its header arrived.
func (s *server) busy(fc *frontConn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	fc.idleSince = 0
	return !fc.evicted
}

func (s *server) closeConns() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for _, conn := range s.conns {
		conn.Close()
	}
	s.conns = nil
}

// dropConn removes one connection from the registry, preserving the
// accept order of the rest (closeConns' teardown order).
func (s *server) dropConn(fc *frontConn) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if i := slices.Index(s.conns, fc); i >= 0 {
		s.conns = slices.Delete(s.conns, i, i+1)
	}
}

// frontendPayloadTimeout bounds how long a connection may take to deliver
// the rest of a frame once its header has arrived: a client that stalls
// mid-frame loses its connection instead of parking a goroutine until the
// daemon exits. It is a variable only so that tests can shorten it.
var frontendPayloadTimeout = 30 * time.Second

// handleConn serves one client connection: a sequence of query (or
// shutdown) frames, each answered in order.
func (s *server) handleConn(conn *frontConn) {
	defer func() {
		conn.Close()
		s.dropConn(conn)
	}()
	refuse := func(err error) error {
		return writeFrontendFrame(conn, errorResponse{Code: errCode(err), Msg: err.Error()}.encode(newFrame(frameErr)))
	}
	// Only while it waits for a header may a newer connection take its
	// place: register stamps it idle, and so does the end of every frame.
	for ; ; s.idle(conn) {
		// A connection may sit idle between frames (a closed-loop client
		// holds it open between queries), but once a header is in, the
		// payload it announced must follow within frontendPayloadTimeout.
		typ, plen, err := readFrontendHeader(conn)
		if err != nil {
			if errors.Is(err, ErrBadVersion) {
				refuse(err)
				// Closing on unread bytes resets the connection, which can
				// take the refusal with it: read off, briefly, what the
				// peer had already sent.
				conn.SetReadDeadline(walltime.Deadline(time.Second))
				io.Copy(io.Discard, conn)
			}
			return // closed or malformed; nothing sane to answer
		}
		if !s.busy(conn) {
			return
		}
		conn.SetReadDeadline(walltime.Deadline(frontendPayloadTimeout))
		body, err := readFrontendPayload(conn, plen)
		if err != nil {
			return // closed, truncated or stalled
		}
		conn.SetReadDeadline(time.Time{})
		switch typ {
		case frameQuery:
			req, err := decodeQueryRequest(body)
			if err != nil {
				refuse(fmt.Errorf("serve: malformed query: %w", err))
				return
			}
			j, err := s.admit(&req, len(body))
			if err != nil {
				if refuse(err) != nil {
					return
				}
				continue
			}
			res := <-j.resp
			var werr error
			if res.err != nil {
				werr = refuse(res.err)
			} else {
				werr = writeFrontendFrame(conn, res.resp.encode(newFrame(framePAF)))
			}
			s.respWG.Done()
			if werr != nil {
				return
			}
		case frameShutdown:
			tenant, err := decodeTenant(body)
			if err != nil {
				return
			}
			s.mu.Lock()
			err = s.checkTenant(tenant)
			s.mu.Unlock()
			if err != nil {
				if refuse(err) != nil {
					return
				}
				continue
			}
			// Ack before signalling the loop: once it hears the stop,
			// shutdown's closeConns may cut this connection at any moment.
			writeFrontendFrame(conn, errorResponse{Code: "shutting-down", Msg: "shutdown accepted"}.encode(newFrame(frameErr)))
			s.stopOnce.Do(func() { s.jobs <- nil })
		default:
			return
		}
	}
}
