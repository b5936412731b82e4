package spmd

// Streamed variable-length exchange: an AlltoallvPacked whose receiver
// consumes a peer's payload before the whole exchange has drained, instead
// of the install-everything-then-process tail the alignment stage would
// otherwise pay.
//
// It is a blocking header exchange and one Rounds pass. The header row a
// rank sends a peer is its chunk-round count (the most any of its
// destinations needs) and then the lengths of the items it addresses to
// that peer, so a receiver knows each source's items, and the pass length,
// before any payload moves. The pass moves every per-destination payload
// in chunks of at most ChunkBytes, Depth rounds in flight; as each round
// lands, the items that became whole are handed to the caller, so compute
// on early arrivals overlaps the chunks still moving. An item larger than
// ChunkBytes spans rounds and is delivered when its last chunk lands.

import "fmt"

const (
	// DefaultChunkBytes is the per-peer chunk payload bound when
	// StreamOpts leaves it unset.
	DefaultChunkBytes = 128 << 10
	// DefaultStreamDepth is how many chunk rounds are kept in flight when
	// StreamOpts leaves it unset.
	DefaultStreamDepth = 2
	// MaxStreamDepth bounds the in-flight chunk rounds; the TCP
	// transport's per-peer frame queues are sized so a full window can
	// never wedge the writer/reader pairs.
	MaxStreamDepth = 8
)

// StreamOpts configures one streamed exchange.
type StreamOpts struct {
	// ChunkBytes bounds the payload any rank sends any peer in one chunk
	// round (default DefaultChunkBytes). Smaller chunks deliver earlier
	// batches but pay the per-chunk overhead more often.
	ChunkBytes int
	// Depth is the number of chunk rounds in flight while a rank waits
	// (default DefaultStreamDepth, capped at MaxStreamDepth); 1 is
	// blocking chunk rounds, as Rounds runs any depth-1 pass.
	Depth int
}

// StreamDelivery is one per-source batch of a streamed exchange: the items
// from rank Src that became complete when a chunk round landed. Items
// appear in packing order, and First is the index of Items[0] within Src's
// overall contribution (sources contributing no items produce no
// deliveries at all). Items, and the slice holding them, are valid until
// deliver returns: they are views of the received round, or of a buffer
// reused for the next item a chunk boundary cuts.
type StreamDelivery struct {
	Src   int
	First int
	Items [][]byte
}

// streamCarry reassembles one source's items from the chunks that carry
// them. An item wholly inside a chunk is handed out as a view of it; an
// item a chunk boundary cuts is carried, in part, until the chunk that ends
// it arrives. A chunk can end one carried item and begin the next, so there
// are two carry buffers, taking turns; each is reused from item to item and
// never grows past the longest item, nor past twice what has arrived of one.
type streamCarry struct {
	lens  []int32
	next  int      // index of the first item not yet handed out
	part  []byte   // what has arrived of item next, when a boundary cut it
	spare []byte   // the other carry buffer: the item part last completed
	items [][]byte // the batch handed out, reused
}

// start points the carry at a source's item lengths.
func (a *streamCarry) start(lens []int32) error {
	if _, err := packedLen(lens); err != nil {
		return err
	}
	a.lens, a.next, a.part = lens, 0, a.part[:0]
	return nil
}

// take consumes the next chunk (nil before the first, which yields any
// leading empty items) and returns the items it completed, in order, the
// first of them being item first. They are valid until the next take.
func (a *streamCarry) take(chunk []byte) (first int, items [][]byte, err error) {
	first, a.items = a.next, a.items[:0]
	if len(a.part) > 0 {
		n := int(a.lens[a.next])
		k := min(n-len(a.part), len(chunk))
		a.hold(chunk[:k], n)
		if chunk = chunk[k:]; len(a.part) < n {
			return first, nil, nil
		}
		a.items = append(a.items, a.part[:n:n])
		a.part, a.spare = a.spare[:0], a.part
		a.next++
	}
	for a.next < len(a.lens) && int(a.lens[a.next]) <= len(chunk) {
		n := int(a.lens[a.next])
		a.items = append(a.items, chunk[:n:n])
		chunk = chunk[n:]
		a.next++
	}
	if len(chunk) > 0 {
		if a.next == len(a.lens) {
			return first, a.items, fmt.Errorf("%d bytes past its last item", len(chunk))
		}
		a.hold(chunk, int(a.lens[a.next]))
	}
	return first, a.items, nil
}

// hold appends b to the carried part of an n-byte item.
func (a *streamCarry) hold(b []byte, n int) {
	if need := len(a.part) + len(b); need > cap(a.part) {
		grown := make([]byte, len(a.part), min(n, max(2*cap(a.part), need)))
		copy(grown, a.part)
		a.part = grown
	}
	a.part = append(a.part, b...)
}

// done reports whether every item has been handed out.
func (a *streamCarry) done() bool { return a.next == len(a.lens) }

// IAlltoallvStreamed performs a packed irregular all-to-all delivered in
// bounded chunks: rank i's send[j] arrives at rank j as the items of rank
// i's deliveries, exactly as AlltoallvPacked's recv[i] would, but deliver
// (when non-nil) is invoked on the calling goroutine as items complete,
// before the exchange as a whole has drained. Computation done inside
// deliver runs — and is modeled — as overlapping the chunk rounds still in
// flight; Tick inside the callback advances the rank clock past in-flight
// rounds' start times just as compute inside AlltoallvDuring does. deliver
// must copy what it keeps of an item.
//
// All ranks must call it collectively with the same opts. Send buffers are
// only read, and only during the call. A peer whose header or chunks do not
// add up fails the exchange on this rank with an error naming it. Byte
// accounting (payload plus length vectors) matches AlltoallvPacked, and the
// header's round count adds one word per peer.
func IAlltoallvStreamed(c *Comm, send []PackedBufs, opt StreamOpts, deliver func(StreamDelivery)) {
	p := c.Size()
	if len(send) != p {
		panic(fmt.Sprintf("spmd: IAlltoallvStreamed send length %d != world size %d", len(send), p))
	}
	if opt.ChunkBytes <= 0 {
		opt.ChunkBytes = DefaultChunkBytes
	}
	if opt.Depth <= 0 {
		opt.Depth = DefaultStreamDepth
	}
	myRounds := 0
	for dst := range send {
		myRounds = max(myRounds, (len(send[dst].Data)+opt.ChunkBytes-1)/opt.ChunkBytes)
	}
	header := make([][]int32, p)
	for dst := range send {
		header[dst] = append(append(make([]int32, 0, 1+len(send[dst].Lens)), int32(myRounds)), send[dst].Lens...)
	}
	const op = "streamed header"
	rounds := 0
	carry := make([]streamCarry, p)
	for src, row := range Alltoallv(c, header) {
		if len(row) == 0 || row[0] < 0 {
			collectiveFailed(c, op, fmt.Errorf("rank %d sent a header with no valid round count", src))
		}
		if err := carry[src].start(row[1:]); err != nil {
			collectiveFailed(c, op, fmt.Errorf("rank %d sent %w", src, err))
		}
		rounds = max(rounds, int(row[0]))
	}

	reassemble := func(src int, chunk []byte) {
		first, items, err := carry[src].take(chunk)
		if err != nil {
			collectiveFailed(c, priceChunk.op, fmt.Errorf("rank %d sent %w", src, err))
		}
		if len(items) > 0 && deliver != nil {
			deliver(StreamDelivery{Src: src, First: first, Items: items})
		}
	}
	for src := range carry {
		reassemble(src, nil) // leading empty items are whole before any payload moves
	}
	r := 0
	ring := NewRoundBufs(min(opt.Depth, MaxStreamDepth))
	ring.rule = &priceChunk
	Rounds(c, ring, rounds, func(rows [][]byte) {
		lo := r * opt.ChunkBytes
		for dst := range rows {
			if data := send[dst].Data; lo < len(data) {
				rows[dst] = append(rows[dst], data[lo:min(lo+opt.ChunkBytes, len(data))]...)
			}
		}
		r++
	}, func(recv [][]byte) {
		for src, chunk := range recv {
			reassemble(src, chunk) // an empty chunk completes nothing
		}
	})
	for src := range carry {
		if a := &carry[src]; !a.done() {
			collectiveFailed(c, priceChunk.op, fmt.Errorf("rank %d's chunks ended inside item %d of %d", src, a.next, len(a.lens)))
		}
	}
}
