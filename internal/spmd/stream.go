package spmd

// Streamed variable-length exchange: the chunked, non-blocking
// AlltoallvPacked that lets a receiver start consuming a peer's payload
// before the whole exchange has drained. The monolithic packed exchange
// delivers nothing until every byte of every contribution has arrived —
// exactly the install-everything-then-process tail the alignment stage
// suffers from.
// Here each rank splits every per-destination payload into chunks of at
// most ChunkBytes and posts one non-blocking exchange per chunk round,
// keeping Depth rounds in flight; as each round completes, the items that
// became whole are handed to the caller per source, so computation on
// early arrivals overlaps the chunks still moving.
//
// Wire mechanics reuse the transports' non-blocking machinery unchanged:
// on TCP every chunk round is one sequence-numbered frame per peer through
// the existing FIFO writer goroutines (chunks of different streams and
// collectives interleave per connection but stay sequence-ordered); on the
// in-process backend every round gets its own exchange slot.
//
// Protocol: one small allreduce agrees on the global round count (every
// rank must post the same number of collectives for the sequence numbers
// to stay matched), then a header round ships the per-item length vectors
// — from which each receiver knows every source's full item structure and
// byte total before any payload arrives — and the data rounds follow.
// Chunk boundaries are byte positions, not item boundaries: an item larger
// than ChunkBytes simply spans several rounds and completes when its last
// chunk lands.

import "fmt"

const (
	// DefaultChunkBytes is the per-peer chunk payload bound when
	// StreamOpts leaves it unset.
	DefaultChunkBytes = 128 << 10
	// DefaultStreamDepth is how many chunk rounds are kept in flight when
	// StreamOpts leaves it unset.
	DefaultStreamDepth = 2
	// MaxStreamDepth bounds the in-flight chunk rounds; the TCP
	// transport's per-peer frame queues are sized so a full window plus
	// the header can never wedge the writer/reader pairs.
	MaxStreamDepth = 8
)

// StreamOpts configures one streamed exchange.
type StreamOpts struct {
	// ChunkBytes bounds the payload any rank sends any peer in one chunk
	// round (default DefaultChunkBytes). Smaller chunks deliver earlier
	// batches but pay the per-chunk overhead more often.
	ChunkBytes int
	// Depth is the number of chunk rounds kept in flight (default
	// DefaultStreamDepth, capped at MaxStreamDepth).
	Depth int
}

func (o StreamOpts) withDefaults() StreamOpts {
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = DefaultChunkBytes
	}
	if o.Depth <= 0 {
		o.Depth = DefaultStreamDepth
	}
	if o.Depth > MaxStreamDepth {
		o.Depth = MaxStreamDepth
	}
	return o
}

// StreamDelivery is one per-source batch of a streamed exchange: the items
// from rank Src that became complete when a chunk round landed. Items
// appear in packing order; First is the index of Items[0] within Src's
// overall contribution, and Final marks the batch carrying Src's last item
// (sources contributing no items produce no deliveries at all).
type StreamDelivery struct {
	Src   int
	First int
	Items [][]byte
	Final bool
}

// streamAsm reassembles one source's contribution: the payload accumulates
// into buf (preallocated to the header's byte total, so delivered item
// slices stay valid), and the cursor tracks which items are complete.
type streamAsm struct {
	lens    []int32
	buf     []byte
	total   int
	itemIdx int
	offset  int // byte offset of item itemIdx within buf
}

// take appends one received chunk and returns the items it completed.
func (a *streamAsm) take(chunk []byte) (first int, items [][]byte) {
	a.buf = append(a.buf, chunk...)
	first = a.itemIdx
	for a.itemIdx < len(a.lens) {
		n := int(a.lens[a.itemIdx])
		if a.offset+n > len(a.buf) {
			break
		}
		items = append(items, a.buf[a.offset:a.offset+n:a.offset+n])
		a.offset += n
		a.itemIdx++
	}
	return first, items
}

// IAlltoallvStreamed performs a packed irregular all-to-all delivered in
// bounded chunks: rank i's send[j] arrives at rank j as recv[i], exactly
// as AlltoallvPacked, but deliver (when non-nil) is invoked on the calling
// goroutine as items complete, before the exchange as a whole has drained.
// Computation done inside deliver runs — and is modeled — as overlapping
// the chunk rounds still in flight; Tick inside the callback advances the
// rank clock past in-flight rounds' start times just as compute inside
// AlltoallvDuring does. The fully assembled buffers are returned once
// every round has completed.
//
// All ranks must call it collectively with the same opts. Send buffers are
// handed off at the call and must not be mutated until it returns. Byte
// accounting (payload plus length vectors) matches AlltoallvPacked.
func IAlltoallvStreamed(c *Comm, send []PackedBufs, opt StreamOpts, deliver func(StreamDelivery)) []PackedBufs {
	p := c.Size()
	if len(send) != p {
		panic(fmt.Sprintf("spmd: IAlltoallvStreamed send length %d != world size %d", len(send), p))
	}
	opt = opt.withDefaults()

	// Every rank posts one collective per round, so the round count must
	// be agreed globally: the maximum chunk count over all (src, dst)
	// pairs, one small allreduce away.
	myMax := 0
	for dst := range send {
		if n := chunkCount(len(send[dst].Data), opt.ChunkBytes); n > myMax {
			myMax = n
		}
	}
	rounds := int(AllreduceI64(c, int64(myMax), OpMax))

	// Header round: the per-item length vectors travel ahead of the data,
	// with full collective pricing — it is a real exchange, the same one
	// AlltoallvPacked's length exchange pays for.
	st := &streamState{}
	lens := make([][]int32, p)
	for i := range send {
		lens[i] = send[i].Lens
	}
	headerH := post(c, lens, &pricePosted, st)

	postRound := func(r int) *handle[byte] {
		rows := make([][]byte, p)
		for dst := range send {
			rows[dst] = chunkOf(send[dst].Data, r, opt.ChunkBytes)
		}
		return post(c, rows, &priceChunk, st)
	}
	// Open the pipeline window behind the header before waiting anything.
	pending := make([]*handle[byte], 0, opt.Depth)
	next := 0
	for ; next < rounds && next < opt.Depth; next++ {
		pending = append(pending, postRound(next))
	}

	recvLens := headerH.Wait()
	asm := make([]streamAsm, p)
	for src := 0; src < p; src++ {
		total := 0
		for _, n := range recvLens[src] {
			total += int(n)
		}
		asm[src] = streamAsm{lens: recvLens[src], buf: make([]byte, 0, total), total: total}
		// Zero-length prefix items are complete before any payload moves.
		emit(deliver, src, &asm[src], nil)
	}

	for r := 0; r < rounds; r++ {
		h := pending[0]
		pending = pending[1:]
		recv := h.Wait()
		if next < rounds {
			pending = append(pending, postRound(next))
			next++
		}
		for src := 0; src < p; src++ {
			if len(recv[src]) == 0 {
				continue
			}
			emit(deliver, src, &asm[src], recv[src])
		}
	}

	out := make([]PackedBufs, p)
	for src := 0; src < p; src++ {
		a := &asm[src]
		if len(a.buf) != a.total || a.itemIdx != len(a.lens) {
			panic(fmt.Sprintf("spmd: streamed exchange from rank %d incomplete: %d of %d bytes, %d of %d items",
				src, len(a.buf), a.total, a.itemIdx, len(a.lens)))
		}
		out[src] = PackedBufs{Data: a.buf, Lens: a.lens}
	}
	return out
}

// emit folds one chunk into a source's assembly and hands any completed
// items to the caller.
func emit(deliver func(StreamDelivery), src int, a *streamAsm, chunk []byte) {
	first, items := a.take(chunk)
	if len(items) == 0 || deliver == nil {
		return
	}
	deliver(StreamDelivery{
		Src: src, First: first, Items: items,
		Final: a.itemIdx == len(a.lens),
	})
}

// chunkCount returns how many ChunkBytes-bounded rounds n payload bytes
// need (0 for an empty contribution).
func chunkCount(n, chunkBytes int) int {
	return (n + chunkBytes - 1) / chunkBytes
}

// chunkOf returns round r's byte range of data (nil once data is
// exhausted — the rank still posts the round with an empty contribution).
func chunkOf(data []byte, r, chunkBytes int) []byte {
	lo := r * chunkBytes
	if lo >= len(data) {
		return nil
	}
	hi := lo + chunkBytes
	if hi > len(data) {
		hi = len(data)
	}
	return data[lo:hi:hi]
}
