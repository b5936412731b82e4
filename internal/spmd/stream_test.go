package spmd

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// streamWorkload builds rank-deterministic packed payloads: a varying
// number of items per (src, dst) pair, item sizes from tiny to multi-chunk,
// plus deliberate empty items and empty contributions.
func streamWorkload(rank, p, seed int) []PackedBufs {
	send := make([]PackedBufs, p)
	for dst := 0; dst < p; dst++ {
		rng := rand.New(rand.NewSource(int64(seed + rank*1000 + dst)))
		n := (rank + dst + seed) % 4 // some pairs contribute nothing at all
		for i := 0; i < n; i++ {
			size := rng.Intn(700)
			if i == 1 {
				size = 0 // zero-length items must survive chunking
			}
			item := make([]byte, size)
			for b := range item {
				item[b] = byte(rng.Intn(256))
			}
			send[dst].AppendItem(item)
		}
	}
	return send
}

// checkStreamProgram runs one streamed exchange under opts and verifies that
// the deliveries rebuild, item for item, what the blocking packed exchange of
// the same payload receives from every source, in order, in contiguous
// batches with consistent First markers. Each item is copied where it
// is delivered: the stream's contract is that it is valid until then only.
func checkStreamProgram(opts StreamOpts, seed int) func(*Comm) error {
	return func(c *Comm) error {
		p := c.Size()
		got := make([][][]byte, p)
		deliver := func(d StreamDelivery) {
			if d.Src < 0 || d.Src >= p {
				panic(fmt.Sprintf("delivery from out-of-range src %d", d.Src))
			}
			if d.First != len(got[d.Src]) {
				panic(fmt.Sprintf("src %d: batch First=%d, want %d (batches must be contiguous)",
					d.Src, d.First, len(got[d.Src])))
			}
			if len(d.Items) == 0 {
				panic(fmt.Sprintf("src %d: empty delivery", d.Src))
			}
			for _, it := range d.Items {
				got[d.Src] = append(got[d.Src], append([]byte(nil), it...))
			}
		}
		IAlltoallvStreamed(c, streamWorkload(c.Rank(), p, seed), opts, deliver)

		// Reference: the blocking packed exchange of identical payloads.
		want := AlltoallvPacked(c, streamWorkload(c.Rank(), p, seed))
		for src := 0; src < p; src++ {
			wantItems := want[src].Items()
			if len(got[src]) != len(wantItems) {
				return fmt.Errorf("rank %d: %d delivered items from %d, want %d",
					c.Rank(), len(got[src]), src, len(wantItems))
			}
			for i := range wantItems {
				if !bytes.Equal(got[src][i], wantItems[i]) {
					return fmt.Errorf("rank %d: delivered item %d from %d differs", c.Rank(), i, src)
				}
			}
		}
		// The world must be clean for blocking collectives afterwards.
		if sum := AllreduceI64(c, 1, OpSum); sum != int64(p) {
			return fmt.Errorf("rank %d: post-stream allreduce got %d", c.Rank(), sum)
		}
		return nil
	}
}

// streamEdgeOpts are the chunking shapes the streamed exchange must
// survive: byte-sized chunks, chunks larger than any payload, and the
// depth extremes.
var streamEdgeOpts = []StreamOpts{
	{},                              // defaults
	{ChunkBytes: 1, Depth: 1},       // every byte its own round, no pipelining
	{ChunkBytes: 1, Depth: 4},       // every byte its own round, windowed
	{ChunkBytes: 64, Depth: 2},      // items span many chunks
	{ChunkBytes: 1 << 20, Depth: 3}, // one chunk swallows the whole payload
	{ChunkBytes: 64, Depth: 100},    // depth beyond MaxStreamDepth is clamped
}

func TestIAlltoallvStreamedMem(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for oi, opts := range streamEdgeOpts {
			if err := Run(p, checkStreamProgram(opts, oi+1)); err != nil {
				t.Fatalf("p=%d opts=%+v: %v", p, opts, err)
			}
		}
	}
}

func TestIAlltoallvStreamedTCP(t *testing.T) {
	for _, p := range []int{1, 3} {
		for oi, opts := range streamEdgeOpts {
			if opts.ChunkBytes == 1 && opts.Depth == 4 && testing.Short() {
				continue // thousands of 31-byte frames; covered unwindowed above
			}
			if err := runTCPWorld(t, p, nil, checkStreamProgram(opts, oi+1)); err != nil {
				t.Fatalf("p=%d opts=%+v: %v", p, opts, err)
			}
		}
	}
}

// TestIAlltoallvStreamedAllEmpty exercises the degenerate world where no
// rank contributes anything: zero rounds, header only.
func TestIAlltoallvStreamedAllEmpty(t *testing.T) {
	prog := func(c *Comm) error {
		send := make([]PackedBufs, c.Size())
		IAlltoallvStreamed(c, send, StreamOpts{ChunkBytes: 8}, func(d StreamDelivery) {
			panic("delivery from an all-empty exchange")
		})
		return nil
	}
	if err := Run(3, prog); err != nil {
		t.Fatalf("mem: %v", err)
	}
	if err := runTCPWorld(t, 3, nil, prog); err != nil {
		t.Fatalf("tcp: %v", err)
	}
}

// streamFixedModel prices full exchanges and chunk rounds at distinct
// fixed costs, and a non-chunk post at nothing, so the streamed clock
// folding is easy to assert.
type streamFixedModel struct{ full, chunk, post float64 }

func (m streamFixedModel) AlltoallvTime(int64, float64) float64   { return m.full }
func (m streamFixedModel) CollectiveTime() float64                { return 0 }
func (m streamFixedModel) IPostTime() float64                     { return 0 }
func (m streamFixedModel) StreamChunkTime(int64, float64) float64 { return m.chunk }
func (m streamFixedModel) ChunkPostTime() float64                 { return m.post }

// TestStreamedClockSerializesChunks pins the modeled-time semantics: the
// header is a blocking exchange, chunk rounds of one stream drain
// back-to-back (the ring's completion watermark), and per-chunk posting
// costs are charged on the rank clock.
func TestStreamedClockSerializesChunks(t *testing.T) {
	const (
		full  = 5.0
		chunk = 2.0
		post  = 0.25
	)
	err := RunWithModel(2, streamFixedModel{full: full, chunk: chunk, post: post}, func(c *Comm) error {
		// 4 bytes to each peer, chunk size 2 → exactly 2 rounds at depth 2.
		send := make([]PackedBufs, 2)
		for dst := range send {
			send[dst].AppendItem([]byte{1, 2, 3, 4})
		}
		b := c.Now()
		var items int
		IAlltoallvStreamed(c, send, StreamOpts{ChunkBytes: 2, Depth: 2}, func(d StreamDelivery) {
			items += len(d.Items)
		})
		if items != 2 {
			return fmt.Errorf("rank %d: %d items delivered, want 2", c.Rank(), items)
		}
		// By hand, in Rounds' order:
		//   header, blocking:    clock b → b+5 (full), hides nothing
		//   post round 0 at b+5:     clock → b+5.25 (post)
		//   post round 1 at b+5.25:  clock → b+5.5
		//   wait round 0: starts at b+5 (its post maximum; watermark 0),
		//     drains at b+7 — clock b+7, hidden min(b+5.5 − (b+5), 2) = 0.5
		//   wait round 1: posted at b+5.25 but the watermark says b+7, so
		//     it drains at b+9 — NOT in parallel with round 0, the
		//     serialization this test pins; clock b+9, hidden 0.
		// So clock = b + full + 2*chunk and overlap = 2*post: the chunk
		// posting CPU time ran under round 0's flight.
		if got, want := c.Now(), b+full+2*chunk; got != want {
			return fmt.Errorf("rank %d: clock %v, want %v", c.Rank(), got, want)
		}
		if ov, want := c.Stats().OverlapVirtual, 2*post; ov != want {
			return fmt.Errorf("rank %d: overlap %v, want %v (chunk posting under round 0)", c.Rank(), ov, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamedOverlapAccounting: compute performed inside deliver runs
// while later chunks are in flight and must be accounted as hidden
// exchange time.
func TestStreamedOverlapAccounting(t *testing.T) {
	const chunk = 2.0
	err := RunWithModel(2, streamFixedModel{full: 0, chunk: chunk}, func(c *Comm) error {
		send := make([]PackedBufs, 2)
		for dst := range send {
			// 3 chunks of 2 bytes; each delivers one 2-byte item.
			for i := 0; i < 3; i++ {
				send[dst].AppendItem([]byte{byte(i), byte(i)})
			}
		}
		IAlltoallvStreamed(c, send, StreamOpts{ChunkBytes: 2, Depth: 3}, func(d StreamDelivery) {
			// 10s of compute per batch towers over every remaining chunk.
			c.Tick(10)
		})
		// By hand: the header costs 0, so every round is posted at 0 (two
		// ahead, the third before the first wait). Round 0 drains over
		// [0, 2]: clock 2, nothing hidden; its two batches, one per source,
		// tick to 22. Round 1 starts at the watermark 2 and drains at 4
		// under the clock of 22: hidden 2; its batches tick to 42. Round 2
		// drains over [4, 6]: hidden 2; clock 62. Overlap 2*chunk.
		st := c.Stats()
		if want := 2 * chunk; st.OverlapVirtual != want {
			return fmt.Errorf("rank %d: overlap %v, want %v (exchange %v)", c.Rank(), st.OverlapVirtual, want, st.ExchangeVirtual)
		}
		if want := 62.0; c.Now() != want {
			return fmt.Errorf("rank %d: clock %v, want %v", c.Rank(), c.Now(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamSteadyStateAllocatesNothing: a stream pays for its header, its
// ring and its carries once; a chunk round after that allocates nothing on
// the in-process transport — not a row, not a handle, not a batch — so
// forty times the rounds cost the same objects. Items of 80 bytes over
// 64-byte chunks straddle most boundaries, so the carry is in the loop.
func TestStreamSteadyStateAllocatesNothing(t *testing.T) {
	const chunk, item = 64, 80
	mallocs := func(rounds int) uint64 {
		items := rounds * chunk / item
		send := make([][]PackedBufs, 2)
		for rank := range send {
			send[rank] = make([]PackedBufs, 2)
			for dst := range send[rank] {
				for i := 0; i < items; i++ {
					send[rank][dst].AppendItem(bytes.Repeat([]byte{byte(i)}, item))
				}
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		delivered := make([]int, 2)
		err := Run(2, func(c *Comm) error {
			IAlltoallvStreamed(c, send[c.Rank()], StreamOpts{ChunkBytes: chunk, Depth: 2}, func(d StreamDelivery) {
				delivered[c.Rank()] += len(d.Items)
			})
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if delivered[0] != 2*items || delivered[1] != 2*items {
			t.Fatalf("%d rounds: delivered %v items, want %d each", rounds, delivered, 2*items)
		}
		return after.Mallocs - before.Mallocs
	}
	mallocs(10) // warm: goroutine stacks, the first world's bookkeeping
	short, long := mallocs(10), mallocs(400)
	t.Logf("mallocs: %d for 10 rounds, %d for 400", short, long)
	if long > short+8 {
		t.Errorf("400 rounds took %d allocations against %d for 10: a chunk round allocates", long, short)
	}
}

// FuzzStreamReassembly holds the carry to PackedBufs.Items on any lengths,
// payload and chunking: the chunks are the payload cut every chunk bytes
// and at every cut, the lengths are int16s and may be negative or
// disagree with the payload. Either the batches rebuild Items exactly — in
// order, contiguous, the carry done with the last — or start, take or the
// end of the chunks reports an error; nothing panics, and the carry never
// holds more than the longest item.
func FuzzStreamReassembly(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 5, 0}, []byte("abcdefgh"), uint8(3), []byte{})
	f.Add([]byte{0, 0, 8, 0, 0, 0}, []byte("abcdefgh"), uint8(1), []byte{4})
	f.Add([]byte{200, 0, 1, 0}, bytes.Repeat([]byte{7}, 201), uint8(64), []byte{10, 150})
	f.Add([]byte{2, 0, 0xFF, 0xFF}, []byte("ab"), uint8(2), []byte{})
	f.Add([]byte{2, 0}, []byte("abc"), uint8(2), []byte{})
	f.Add([]byte{4, 0}, []byte("ab"), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, rawLens, data []byte, chunk uint8, cuts []byte) {
		lens := make([]int32, len(rawLens)/2)
		longest := 0
		for i := range lens {
			lens[i] = int32(int16(uint16(rawLens[2*i]) | uint16(rawLens[2*i+1])<<8))
			longest = max(longest, int(lens[i]))
		}
		bounds := map[int]bool{0: true, len(data): true}
		for i := 0; chunk > 0 && i < len(data); i += int(chunk) {
			bounds[i] = true
		}
		for _, c := range cuts {
			if len(data) > 0 {
				bounds[int(c)%len(data)] = true
			}
		}
		at := make([]int, 0, len(bounds))
		for b := range bounds {
			at = append(at, b)
		}
		sort.Ints(at)

		var a streamCarry
		var got [][]byte
		final := false
		take := func(chunk []byte) error {
			first, items, err := a.take(chunk)
			if err != nil {
				return err
			}
			if cap(a.part) > longest || cap(a.spare) > longest {
				t.Fatalf("carry holds %d and %d bytes, longest item is %d", cap(a.part), cap(a.spare), longest)
			}
			if len(items) == 0 {
				return nil
			}
			if final || first != len(got) {
				t.Fatalf("batch at item %d after %d items (final %v)", first, len(got), final)
			}
			for _, it := range items {
				got = append(got, append([]byte(nil), it...))
			}
			final = a.done()
			return nil
		}
		err := a.start(lens)
		if err == nil {
			err = take(nil)
		}
		for i := 1; err == nil && i < len(at); i++ {
			err = take(data[at[i-1]:at[i]])
		}
		if err == nil && !a.done() {
			err = fmt.Errorf("ended inside item %d", a.next)
		}

		sum, lensErr := packedLen(lens)
		valid := lensErr == nil && sum == int64(len(data))
		switch {
		case valid && err != nil:
			t.Fatalf("well-formed input refused: %v", err)
		case !valid && err == nil:
			t.Fatalf("malformed input (lengths %v, %d bytes) reassembled", lens, len(data))
		case !valid:
			return
		}
		want := (&PackedBufs{Data: data, Lens: lens}).Items()
		if len(got) != len(want) || len(want) > 0 && !final {
			t.Fatalf("%d items, done %v; want %d", len(got), final, len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("item %d = %q, want %q", i, got[i], want[i])
			}
		}
	})
}
