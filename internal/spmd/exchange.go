package spmd

// The one exchange path of the typed layer. Every collective in this
// package is the same two steps over Transport.ialltoallv: post (cast the
// typed rows to bytes and hand them to the transport) and complete (wait,
// fold the modeled cost into the BSP clock). What distinguishes a blocking
// Alltoallv from a barrier, a posted non-blocking exchange or one chunk
// round of a stream is only how it is priced, and that is data: a pricing
// value. What happens to the received rows is the caller's lifetime for
// them: a collective whose result escapes (handle.Wait under Alltoallv and
// the gathers) copies them out of a non-shared transport's buffers; Rounds,
// whose process callback is done with them when it returns — a build pass,
// a stream's chunk rounds — reads them where they are.
//
// Non-blocking exchanges are the MPI_Ialltoallv analogue that lets a rank
// post round r+1's exchange and keep computing on round r while the
// payloads move — the mechanism behind the pipeline's exchange/compute
// overlap (the paper's Figs. 9-10 show exchange as the scaling limiter
// precisely because the bulk-synchronous rounds pay pack → exchange →
// process as a sum).
//
// Clock semantics at Wait: the exchange is modeled as starting at the
// maximum posting clock across ranks (BSP — data cannot move before the
// last rank contributes) and completing one modeled exchange cost later.
// The waiting rank's clock advances to max(its own clock, that completion
// time), so an overlapped round costs max(local, exchange) rather than
// local + exchange; the hidden portion is accounted in Stats.OverlapVirtual.
// A blocking collective is the degenerate case: waited at its own posting
// clock, it hides nothing and pays the full cost.
//
// Ordering contract: handles are waited in posting order, and no blocking
// collective runs while one is pending (violations panic, and a rank that
// returns with one pending fails the run). The contract is this package's
// alone: a handle never leaves it. Callers get Rounds and AlltoallvDuring,
// each of which waits what it posted before returning; IAlltoallvStreamed
// is a blocking Alltoallv followed by one Rounds pass, and posts nothing of
// its own.

import (
	"fmt"
	"time"
)

// pricing is one exchange flavour's accounting rule.
type pricing struct {
	op string // names the collective in failures
	// blocking: waited immediately. The Comm must be idle, posting is free
	// (there is no descriptor to keep alive across compute), and the
	// caller, not the exchange, emits the trace span.
	blocking bool
	// small: a latency-bound collective — CollectiveTime and
	// Stats.Collectives, no byte accounting. Otherwise AlltoallvTime (or
	// the chunk rate), Stats.Alltoallvs and Stats.BytesSent.
	small bool
	// chunk: a data round of a streamed exchange — ChunkPostTime and
	// StreamChunkTime.
	chunk bool
}

var (
	priceAlltoallv = pricing{op: "alltoallv", blocking: true}
	priceBarrier   = pricing{op: "barrier", blocking: true, small: true}
	priceAllgather = pricing{op: "allgather", blocking: true, small: true}
	pricePosted    = pricing{op: "ialltoallv"}
	priceChunk     = pricing{op: "ialltoallv chunk", chunk: true}
)

// postCost prices the CPU side of posting: descriptor setup and buffer
// registration run on the rank's own clock. Chunk rounds of a stream pay
// the reduced per-chunk cost.
func (c *Comm) postCost(r *pricing) float64 {
	switch {
	case r.blocking || c.model == nil:
		return 0
	case r.chunk:
		return c.model.ChunkPostTime()
	}
	return c.model.IPostTime()
}

// exchangeCost prices one completed exchange whose busiest rank sent
// maxBytes, adding it to Stats.ExchangeVirtual.
func (c *Comm) exchangeCost(r *pricing, maxBytes float64) float64 {
	if c.model == nil {
		return 0
	}
	var d float64
	switch {
	case r.small:
		d = c.model.CollectiveTime()
	case r.chunk:
		d = c.model.StreamChunkTime(c.stats.Alltoallvs, maxBytes)
	default:
		d = c.model.AlltoallvTime(c.stats.Alltoallvs, maxBytes)
	}
	c.stats.ExchangeVirtual += d
	return d
}

// handle is the completion handle of one posted exchange. It holds nothing
// of an exchange once that is waited, so Rounds posts a pass through the
// same few handles.
type handle[T any] struct {
	c       *Comm
	pe      pendingExchange
	rule    *pricing
	id      uint64
	myBytes int64
	posted  time.Time
	done    bool
	// flow links this exchange's post and wait events across ranks in the
	// flight recorder (see Comm.postSeq); 0 when tracing is disabled.
	flow uint64
}

// requireIdle panics if a non-blocking exchange is still pending: a
// blocking collective issued between a post and its Wait would consume the
// pending exchange's frames on serializing transports and deliver wrong
// data, so the schedule error fails loudly instead.
func (c *Comm) requireIdle(op string) {
	if n := c.pending(); n > 0 {
		panic(fmt.Sprintf("spmd: rank %d issued blocking %s with %d non-blocking exchange(s) pending; Wait them first",
			c.Rank(), op, n))
	}
}

// requirePOD refuses an element type the typed layer cannot carry, before
// anything is posted.
func requirePOD[T any](op string) {
	if !isPOD[T]() {
		panic(fmt.Sprintf("spmd: %s element type %T contains pointers; the typed layer carries pointer-free elements only (encode to bytes, or use AlltoallvPacked)", op, *new(T)))
	}
}

// post is the cast-and-post step of a collective called with typed rows:
// rank i's send[j] will be delivered as rank j's recv[i] when every rank
// has posted the matching exchange.
func post[T any](c *Comm, send [][]T, r *pricing) *handle[T] {
	if len(send) != c.Size() {
		panic(fmt.Sprintf("spmd: %s send length %d != world size %d", r.op, len(send), c.Size()))
	}
	requirePOD[T](r.op)
	raw := make([][]byte, len(send))
	for dst := range raw {
		raw[dst] = castToBytes(send[dst])
	}
	h := new(handle[T])
	h.post(c, raw, r)
	return h
}

// post hands one row per rank to the transport and makes h the exchange's
// handle. raw belongs to the exchange until it is waited (on a shared
// transport, until every peer has read its column).
func (h *handle[T]) post(c *Comm, raw [][]byte, r *pricing) {
	if r.blocking {
		c.requireIdle(r.op)
	}
	now := time.Now()
	var myBytes int64
	for _, b := range raw {
		myBytes += int64(len(b))
	}
	if r.small {
		myBytes = 0 // latency-bound: priced per call, not per byte
	}
	pe, err := c.tr.ialltoallv(raw, c.clock, float64(myBytes))
	if err != nil {
		collectiveFailed(c, r.op, err)
	}
	// Posting is not free: the cost is exchange accounting (it exists
	// only because of the exchange) but is CPU-bound, so it never counts
	// as hidden.
	if d := c.postCost(r); d > 0 {
		c.Tick(d)
		c.stats.ExchangeVirtual += d
	}
	*h = handle[T]{c: c, pe: pe, rule: r, id: c.nextID, myBytes: myBytes, posted: now}
	if c.pending() == 0 {
		// First in-flight exchange: compute from here on counts as
		// overlap (until attributed by a Wait).
		c.anchorWall = now
		c.anchorExchWall = c.stats.ExchangeWall
	}
	c.nextID++
	if !r.blocking {
		c.postSeq++
		if c.rec != nil {
			h.flow = c.postSeq
			if r.chunk {
				c.rec.Instant(traceChunkPost, c.clock, myBytes)
			} else {
				c.rec.Instant(tracePost, c.clock, myBytes)
			}
			c.rec.FlowOut(traceExchange, c.clock, h.flow)
		}
		inflightExchanges.Add(1)
	}
}

// complete blocks until the exchange completes, folds its modeled cost into
// the BSP clock as described in the package comment, and returns the
// received rows as the transport holds them (recv[src] is what rank src
// sent here; the header is the transport's until this rank's next post or
// wait). It must be called exactly once per posted exchange, in posting
// order. ring is the pass a chunk round belongs to (nil otherwise): its
// watermark serializes the pass's rounds.
func (h *handle[T]) complete(ring *RoundBufs) [][]byte {
	c, r := h.c, h.rule
	if h.done {
		panic("spmd: exchange waited twice")
	}
	if c.pending() == 0 || c.waitedID != h.id {
		panic("spmd: non-blocking exchanges must be waited in posting order")
	}
	c.waitedID++
	h.done = true

	// A blocking collective has been blocked since its post. A posted one
	// is blocked from here; compute time since the anchor (the last point
	// already credited), excluding time blocked in collectives, overlapped
	// its flight.
	start := h.posted
	if !r.blocking {
		if r.chunk {
			c.rec.Begin(traceChunkWait, c.clock)
		} else {
			c.rec.Begin(traceWait, c.clock)
		}
		overlapped := time.Since(c.anchorWall) - (c.stats.ExchangeWall - c.anchorExchWall)
		if overlapped > 0 {
			c.stats.OverlapWall += overlapped
		}
		start = time.Now()
	}
	rraw, tmax, bmax, err := h.pe.wait()
	if err != nil {
		collectiveFailed(c, r.op, err)
	}
	blocked := time.Since(start)
	c.stats.ExchangeWall += blocked
	// The anchor advances so the next Wait starts fresh.
	c.anchorWall = start.Add(blocked)
	c.anchorExchWall = c.stats.ExchangeWall

	// A stream's chunk rounds drain one after another on each peer
	// connection: this round starts at the later of its BSP post maximum
	// and the previous round's modeled completion.
	if r.chunk {
		tmax = max(tmax, ring.completion)
	}
	cost := c.exchangeCost(r, bmax)
	if r.chunk {
		ring.completion = tmax + cost
	}
	// The exchange occupied modeled time [tmax, tmax+cost]; whatever local
	// progress the rank made past tmax hid that much of the cost.
	hidden := min(max(c.clock-tmax, 0), cost)
	c.stats.OverlapVirtual += hidden
	c.clock = max(c.clock, tmax+cost)
	if r.small {
		c.stats.Collectives++
	} else {
		c.stats.Alltoallvs++
		c.stats.BytesSent += h.myBytes
		exchangesTotal.Inc()
	}
	if !r.blocking {
		if r.chunk {
			c.rec.End(traceChunkWait, c.clock, h.myBytes)
		} else {
			c.rec.End(traceWait, c.clock, h.myBytes)
		}
		c.rec.FlowIn(traceExchange, c.clock, h.flow)
		inflightExchanges.Add(-1)
	}
	return rraw
}

// Wait completes the exchange and returns the received rows as the
// caller's own: recv[src] is what rank src sent here, copied out of a
// non-shared transport's buffers (which go back to the frame pool) and, on
// a shared one, the sender's memory itself.
func (h *handle[T]) Wait() [][]T {
	rraw := h.complete(nil)
	c := h.c
	shared := c.tr.shared()
	recv := make([][]T, len(rraw))
	for src, b := range rraw {
		n := rowLen[T](c, h.rule.op, src, b)
		if shared || src == c.Rank() || n == 0 {
			recv[src] = viewRow[T](b, n)
			continue
		}
		recv[src] = make([]T, n)
		copy(castToBytes(recv[src]), b)
	}
	c.recycle(rraw)
	return recv
}

// recycle returns one exchange's received payloads to a non-shared
// transport's frame pool. The rank's own column is skipped: it is the row
// this rank posted, not a pooled buffer.
func (c *Comm) recycle(rraw [][]byte) {
	rec, ok := c.tr.(recvBufRecycler)
	if !ok || c.tr.shared() {
		return
	}
	for src, b := range rraw {
		if src == c.Rank() || cap(b) == 0 {
			continue
		}
		if poisonRecycled {
			poison(b[:cap(b)])
		}
		rec.recycleRecvBuf(b)
	}
}

// Alltoallv performs an irregular all-to-all: rank i's send[j] is delivered
// as rank j's recv[i]. send must have length Size. On the in-process
// backend the received slices alias the sender's memory (zero-copy, as
// intra-node MPI would); receivers must not mutate them. T must be
// pointer-free on every backend (fixed-size integers, floats, or
// structs/arrays of them) — variable-length payloads go through
// AlltoallvPacked.
func Alltoallv[T any](c *Comm, send [][]T) [][]T {
	c.rec.Begin(traceAlltoallv, c.clock)
	h := post(c, send, &priceAlltoallv)
	recv := h.Wait()
	c.rec.End(traceAlltoallv, c.clock, h.myBytes)
	return recv
}

// ialltoallv posts an irregular all-to-all without blocking; the returned
// handle's Wait yields the received buffers. Element and aliasing rules
// match Alltoallv; additionally the send slices are handed off at post
// time and must not be mutated until every rank has finished *reading*
// what it received. On the in-process backend that is later than "every
// rank has waited": the received slices alias this memory and a peer goes
// on reading them after its Wait returns, for as long as it holds them. A
// caller that wants to reuse a send buffer needs its own evidence that
// every peer is done with it — Rounds has it, and is the one place in the
// tree that does.
func ialltoallv[T any](c *Comm, send [][]T) *handle[T] {
	return post(c, send, &pricePosted)
}

// RoundBufs is the memory a pass exchanges out of — a build's two passes,
// or a stream's chunk rounds: a ring of send row sets, one row per
// destination in each, that Rounds hands to pack round after round and pass
// after pass. The rows are kept as bytes, so a pass of 8-byte records and
// the pass of 16-byte records after it pack into the same memory. The window
// depth is fixed with the ring because the ring's length follows from it.
//
// The ring also carries its passes' pricing rule. A NewRoundBufs ring prices
// its non-blocking rounds as posted exchanges, each on its own. A stream's
// ring prices them as chunk rounds and keeps their completion watermark:
// chunks of one stream travel back-to-back on each peer connection, so in
// modeled time round r cannot start before round r-1 has drained — without
// it, rounds posted ahead would appear to move in parallel and a chunked
// exchange would price below the monolithic one. Either way a pass Rounds
// runs blocking (depth 1, or fewer than two rounds) is priced as the
// blocking Alltoallvs it is.
//
// Why 2·depth sets. Round r's set may be written again once every peer has
// finished reading it, and on the in-process transport a peer reads it —
// the received rows are this memory — until its process(r) returns. A peer
// packs and posts round r+depth only after that (Rounds posts round q right
// before waiting round q-depth+1, with process(q-depth) behind it), so this
// rank's wait of round r+depth completing is the evidence that every peer
// is done with round r. Round q is packed after the wait of round q-depth,
// which frees the set of round q-2·depth: a ring of 2·depth, and no fewer.
// The count runs on from one pass into the next — nothing orders the ranks
// between two passes, so a peer may still be reading the last rounds of
// one while this rank packs the first of the next. At depth 1, the blocking
// schedule, the same argument gives two sets.
type RoundBufs struct {
	depth int
	rule  *pricing   // how a non-blocking round is priced
	sets  [][][]byte // sets[i][dst]: len what was posted, cap the row's memory
	next  int        // rounds packed so far, over every pass
	// completion is when the last chunk round drained, in modeled time.
	completion float64
	// borrowed is the most received-payload memory one round held of a
	// non-shared transport's frame pool.
	borrowed int64
}

// NewRoundBufs returns an empty ring for passes that keep depth exchanges
// in flight (depth 1, or less, is the bulk-synchronous schedule). Rows are
// allocated by pack, as it first meets each of them empty.
func NewRoundBufs(depth int) *RoundBufs {
	depth = max(depth, 1)
	return &RoundBufs{depth: depth, rule: &pricePosted, sets: make([][][]byte, 2*depth)}
}

// MemBytes is what exchanging through the ring holds at its peak: the
// ring's rows, plus — where received rows are frames borrowed from the pool
// rather than the sender's memory — a round's frames for each of the depth
// rounds a peer may have sent ahead.
func (b *RoundBufs) MemBytes() int64 {
	n := int64(b.depth) * b.borrowed
	for _, set := range b.sets {
		for _, row := range set {
			n += int64(cap(row))
		}
	}
	return n
}

// Rounds runs a pass of rounds exchange rounds: pack fills the next round's
// send rows, process consumes one round's received rows, and both are
// called exactly rounds times, in round order. Up to bufs' depth exchanges
// are kept in flight — depth-1 posted ahead, then one more ahead of each
// wait — so round r+1 is packed and posted while round r's payloads move
// and processing round r overlaps round r+1's exchange: the paper's
// pack → exchange → process sum becomes max(exchange, local). At depth 2
// that is post-one-ahead; deeper windows give slow rounds more exchange
// time to hide under.
//
// A single-round pass has nothing to pipeline — posting cost would be
// pure loss — so with fewer than two rounds or a window below two every
// round is a blocking exchange at blocking pricing: depth 1 is the
// bulk-synchronous schedule. Otherwise each round is priced by bufs' rule.
// process sees identical data in identical order either way. Neither
// callback may issue a collective.
//
// Rounds owns the rows in both directions, and a pass in steady state
// allocates nothing.
//
// Send: pack is handed send, one row per destination, each empty with the
// capacity it had when its set last went round the ring (none the first
// time: pack sizes it), and appends to send[dst] in place. The rows are
// read by the exchange and by peers from the moment pack returns; pack must
// keep no reference to them.
//
// Receive: the rows process is handed are valid until it returns. On a
// shared transport they are the senders' rows, as ever; on any other they
// are the frame payloads where the transport read them — no copy — and go
// back to the frame pool when process returns. The rank's own column is
// its own send row on every transport. process must copy what it keeps.
func Rounds[T any](c *Comm, bufs *RoundBufs, rounds int, pack func(send [][]T), process func(recv [][]T)) {
	rule, depth := bufs.rule, bufs.depth
	if rounds < 2 || depth < 2 {
		rule, depth = &priceAlltoallv, 1
	}
	requirePOD[T](rule.op)
	p := c.Size()
	send, recv := make([][]T, p), make([][]T, p)
	rraw := make([][]byte, p) // the transport's header stands only until the next post
	handles := make([]handle[T], depth)
	posted := 0
	postNext := func() {
		i := bufs.next % len(bufs.sets)
		bufs.next++
		if bufs.sets[i] == nil {
			bufs.sets[i] = make([][]byte, p)
		}
		set := bufs.sets[i]
		for dst, b := range set {
			if poisonRecycled {
				poison(b[:cap(b)])
			}
			send[dst] = emptyRow[T](b)
		}
		pack(send)
		for dst, row := range send {
			set[dst] = castToBytes(row[:cap(row)])[:len(row)*elemSize[T]()]
		}
		h := &handles[posted%depth]
		if rule.blocking {
			c.rec.Begin(traceAlltoallv, c.clock)
		}
		h.post(c, set, rule)
		posted++
	}
	for posted < rounds && posted < depth-1 {
		postNext()
	}
	for round := 0; round < rounds; round++ {
		if posted < rounds {
			postNext()
		}
		h := &handles[round%depth]
		copy(rraw, h.complete(bufs))
		if rule.blocking {
			c.rec.End(traceAlltoallv, c.clock, h.myBytes)
		}
		var held int64
		for src, b := range rraw {
			recv[src] = viewRow[T](b, rowLen[T](c, rule.op, src, b))
			if src != c.Rank() {
				held += int64(cap(b))
			}
		}
		process(recv)
		if !c.tr.shared() {
			bufs.borrowed = max(bufs.borrowed, held)
		}
		c.recycle(rraw)
	}
}

// AlltoallvDuring is Alltoallv with local work hidden under it: the
// exchange is posted, during runs while the payloads move, and the
// received rows are returned once it has. Modeled time ticked inside
// during counts against the exchange's cost (max, not sum). during may
// not issue a collective, nor write to send.
func AlltoallvDuring[T any](c *Comm, send [][]T, during func()) [][]T {
	h := ialltoallv(c, send)
	during()
	return h.Wait()
}

// Barrier synchronizes all ranks and their virtual clocks: an all-to-all
// of empty contributions.
func (c *Comm) Barrier() {
	c.rec.Begin(traceBarrier, c.clock)
	post(c, make([][]byte, c.Size()), &priceBarrier).Wait()
	c.rec.End(traceBarrier, c.clock, 0)
}
