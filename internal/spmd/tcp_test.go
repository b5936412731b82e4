package spmd

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// formTCPWorld forms a Size-p TCP world on the loopback interface — every
// rank with its own transport and real sockets — and returns the ranks'
// transports in rank order.
func formTCPWorld(t testing.TB, p int) []Transport {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("rendezvous listen: %v", err)
	}
	trs := make([]Transport, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			boot := &JoinBootstrap{
				Rank: rank, Size: p, Rendezvous: ln.Addr().String(),
				Timeout: 20 * time.Second,
			}
			if rank == 0 {
				boot.Listener = ln
			}
			trs[rank], errs[rank] = Connect(boot)
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: Connect: %v", rank, err)
		}
	}
	return trs
}

// runTCPWorld runs fn on every rank of a fresh loopback TCP world, one
// goroutine per rank via RunTransport, and returns the world error
// exactly as RunWithModel would.
func runTCPWorld(t *testing.T, p int, model CommModel, fn func(*Comm) error) error {
	t.Helper()
	trs := formTCPWorld(t, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := range trs {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = RunTransport(trs[rank], model, fn)
		}(r)
	}
	wg.Wait()
	return firstError(errs)
}

func TestTCPAlltoallvTranspose(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		err := runTCPWorld(t, p, nil, func(c *Comm) error {
			send := make([][]int32, p)
			for dst := 0; dst < p; dst++ {
				n := (c.Rank()+dst)%3 + 1
				for k := 0; k < n; k++ {
					send[dst] = append(send[dst], int32(c.Rank()*1000+dst*10+k))
				}
			}
			recv := Alltoallv(c, send)
			for src := 0; src < p; src++ {
				n := (src+c.Rank())%3 + 1
				if len(recv[src]) != n {
					return fmt.Errorf("rank %d: recv[%d] has %d items, want %d",
						c.Rank(), src, len(recv[src]), n)
				}
				for k, v := range recv[src] {
					if want := int32(src*1000 + c.Rank()*10 + k); v != want {
						return fmt.Errorf("rank %d: recv[%d][%d] = %d, want %d",
							c.Rank(), src, k, v, want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestTCPSmallCollectives(t *testing.T) {
	const p = 4
	err := runTCPWorld(t, p, nil, func(c *Comm) error {
		if got := AllreduceI64(c, int64(c.Rank()), OpSum); got != p*(p-1)/2 {
			return fmt.Errorf("sum = %d", got)
		}
		if got := AllreduceI64(c, int64(c.Rank()), OpMax); got != p-1 {
			return fmt.Errorf("max = %d", got)
		}
		gathered := Allgather(c, []byte(fmt.Sprintf("rank-%d", c.Rank())))
		for i, s := range gathered {
			if string(s) != fmt.Sprintf("rank-%d", i) {
				return fmt.Errorf("Allgather[%d] = %q", i, s)
			}
		}
		if v := Bcast(c, c.Rank()+50, 2); v != 52 {
			return fmt.Errorf("Bcast = %d", v)
		}
		// A row of wider elements, lengths differing by rank, one empty.
		for i, row := range Allgather(c, make([]int32, c.Rank())) {
			if len(row) != i {
				return fmt.Errorf("Allgather row[%d] has %d elements", i, len(row))
			}
		}
		c.Barrier()
		if st := c.Stats(); st.Collectives != 6 {
			return fmt.Errorf("collectives = %d, want 6", st.Collectives)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherToBothBackends(t *testing.T) {
	const p, root = 4, 2
	program := func(c *Comm) error {
		got := GatherTo(c, []byte(fmt.Sprintf("r%d", c.Rank())), root)
		if c.Rank() != root {
			if got != nil {
				return fmt.Errorf("rank %d: non-root received %v", c.Rank(), got)
			}
			return nil
		}
		for i, s := range got {
			if string(s) != fmt.Sprintf("r%d", i) {
				return fmt.Errorf("root got[%d] = %q", i, s)
			}
		}
		return nil
	}
	if err := Run(p, program); err != nil {
		t.Fatalf("mem backend: %v", err)
	}
	if err := runTCPWorld(t, p, nil, program); err != nil {
		t.Fatalf("tcp backend: %v", err)
	}
}

func TestTCPPackedExchange(t *testing.T) {
	const p = 3
	err := runTCPWorld(t, p, nil, func(c *Comm) error {
		send := make([]PackedBufs, p)
		for dst := 0; dst < p; dst++ {
			send[dst].AppendItem([]byte(fmt.Sprintf("from%d-to%d", c.Rank(), dst)))
			send[dst].AppendItem(nil)
			send[dst].AppendItem([]byte{byte(c.Rank()), byte(dst)})
		}
		recv := AlltoallvPacked(c, send)
		for src := 0; src < p; src++ {
			items := recv[src].Items()
			if len(items) != 3 {
				return fmt.Errorf("recv[%d]: %d items", src, len(items))
			}
			if want := fmt.Sprintf("from%d-to%d", src, c.Rank()); string(items[0]) != want {
				return fmt.Errorf("recv[%d][0] = %q, want %q", src, items[0], want)
			}
			if len(items[1]) != 0 {
				return fmt.Errorf("recv[%d][1] = %v, want empty", src, items[1])
			}
			if items[2][0] != byte(src) || items[2][1] != byte(c.Rank()) {
				return fmt.Errorf("recv[%d][2] = %v", src, items[2])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPMatchesMemTransport runs the same randomized exchange program on
// both backends and requires bit-identical results — the loopback
// equivalence the transports promise.
func TestTCPMatchesMemTransport(t *testing.T) {
	const p = 4
	const iters = 5
	// program produces, per rank, a deterministic digest of everything
	// received; both backends must agree exactly.
	program := func(c *Comm, digests [][]byte) error {
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 1))
		var out bytes.Buffer
		for it := 0; it < iters; it++ {
			send := make([][]uint64, p)
			for dst := 0; dst < p; dst++ {
				n := rng.Intn(6)
				for k := 0; k < n; k++ {
					send[dst] = append(send[dst], rng.Uint64())
				}
			}
			recv := Alltoallv(c, send)
			for src := 0; src < p; src++ {
				fmt.Fprintf(&out, "%d/%d:%x;", it, src, recv[src])
			}
			total := AllreduceI64(c, int64(len(recv[c.Rank()])), OpSum)
			fmt.Fprintf(&out, "sum=%d;", total)
		}
		digests[c.Rank()] = out.Bytes()
		return nil
	}
	memDigests := make([][]byte, p)
	if err := Run(p, func(c *Comm) error { return program(c, memDigests) }); err != nil {
		t.Fatalf("mem backend: %v", err)
	}
	tcpDigests := make([][]byte, p)
	if err := runTCPWorld(t, p, nil, func(c *Comm) error { return program(c, tcpDigests) }); err != nil {
		t.Fatalf("tcp backend: %v", err)
	}
	for r := 0; r < p; r++ {
		if !bytes.Equal(memDigests[r], tcpDigests[r]) {
			t.Errorf("rank %d digests differ:\n mem: %s\n tcp: %s", r, memDigests[r], tcpDigests[r])
		}
	}
}

// TestTCPVirtualClockMatchesMem checks BSP clock synchronization is
// transport-independent: the same modeled program yields the same clocks.
func TestTCPVirtualClockMatchesMem(t *testing.T) {
	const p = 4
	program := func(c *Comm) error {
		c.Tick(float64(c.Rank()))
		c.Barrier()
		if c.Now() != 3.5 {
			return fmt.Errorf("rank %d clock = %v after barrier, want 3.5", c.Rank(), c.Now())
		}
		send := make([][]byte, p)
		send[(c.Rank()+1)%p] = make([]byte, 100*(c.Rank()+1))
		Alltoallv(c, send)
		want := 3.5 + 2.0 + 0.4 // first-call penalty + busiest sender 400B
		if diff := c.Now() - want; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("rank %d clock = %v, want %v", c.Rank(), c.Now(), want)
		}
		return nil
	}
	if err := RunWithModel(p, fakeModel{}, program); err != nil {
		t.Fatalf("mem backend: %v", err)
	}
	if err := runTCPWorld(t, p, fakeModel{}, program); err != nil {
		t.Fatalf("tcp backend: %v", err)
	}
}

func TestTCPPeerFailureAbortsWorld(t *testing.T) {
	err := runTCPWorld(t, 4, nil, func(c *Comm) error {
		if c.Rank() == 2 {
			return errors.New("boom")
		}
		// The healthy ranks park in collectives; rank 2's abort must
		// unblock them rather than deadlock.
		AllreduceI64(c, 1, OpSum)
		c.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("expected world error")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want the originating failure", err)
	}
}

func TestTCPPeerPanicAbortsWorld(t *testing.T) {
	err := runTCPWorld(t, 3, nil, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("kaput")
		}
		c.Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("err = %v, want panic surfaced", err)
	}
}

func TestTCPRejectsPointerElementTypes(t *testing.T) {
	err := runTCPWorld(t, 2, nil, func(c *Comm) error {
		defer func() {
			if recover() == nil {
				t.Error("Alltoallv of []string over TCP did not panic")
			}
		}()
		Alltoallv(c, make([][]string, 2))
		return nil
	})
	if !errors.Is(err, ErrAborted) && err != nil && !strings.Contains(err.Error(), "pointers") {
		t.Logf("world error (expected abort noise): %v", err)
	}
}

func TestDialTCPValidation(t *testing.T) {
	if _, err := dialTCP(&JoinBootstrap{Rank: 0, Size: 0}); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := dialTCP(&JoinBootstrap{Rank: 3, Size: 2, Rendezvous: "127.0.0.1:1"}); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestDialTCPTimesOutWithoutPeers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, err = dialTCP(&JoinBootstrap{
		Rank: 0, Size: 2, Listener: ln,
		Timeout: 200 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("rank 0 formed a world with no peers")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []frame{
		{Type: frameColl, Seq: 0, Clock: 0, Bytes: 0, Payload: nil},
		{Type: frameColl, Seq: 42, Clock: 1.25, Bytes: 4096, Payload: []byte("hello world")},
		{Type: frameHello, Payload: bytes.Repeat([]byte{0xAB}, 1<<16)},
		{Type: frameAbort, Seq: ^uint64(0), Clock: -1.5, Bytes: 1e308},
	}
	for i, f := range cases {
		var buf bytes.Buffer
		if err := writeFrame(&buf, &f); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		if got.Type != f.Type || got.Seq != f.Seq || got.Clock != f.Clock || got.Bytes != f.Bytes {
			t.Errorf("case %d: header mismatch: got %+v want %+v", i, got, f)
		}
		if !bytes.Equal(got.Payload, f.Payload) {
			t.Errorf("case %d: payload mismatch (%d vs %d bytes)", i, len(got.Payload), len(f.Payload))
		}
		if buf.Len() != 0 {
			t.Errorf("case %d: %d trailing bytes", i, buf.Len())
		}
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	// Bad magic.
	var buf bytes.Buffer
	writeFrame(&buf, &frame{Type: frameColl})
	raw := buf.Bytes()
	raw[0] ^= 0xFF
	if _, err := readFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err = %v", err)
	}

	// Unknown type.
	buf.Reset()
	writeFrame(&buf, &frame{Type: frameColl})
	raw = buf.Bytes()
	raw[2] = 99
	if _, err := readFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "type") {
		t.Errorf("bad type: err = %v", err)
	}

	// Oversized length prefix must fail before allocating.
	buf.Reset()
	writeFrame(&buf, &frame{Type: frameColl})
	raw = buf.Bytes()
	raw[27], raw[28], raw[29], raw[30] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := readFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversize: err = %v", err)
	}

	// Truncated payload.
	buf.Reset()
	writeFrame(&buf, &frame{Type: frameColl, Payload: []byte("abcdef")})
	raw = buf.Bytes()[:buf.Len()-3]
	if _, err := readFrame(bytes.NewReader(raw)); err == nil {
		t.Error("truncated payload: expected error")
	}

	// Oversized write is refused symmetrically.
	tooBig := frame{Type: frameColl, Payload: make([]byte, maxFramePayload+1)}
	if err := writeFrame(&bytes.Buffer{}, &tooBig); err == nil {
		t.Error("oversize write accepted")
	}
}

// rawPeer joins a world of size ranks as its last rank by hand, over bare
// connections: it says hello at the rendezvous, reads the peer table and
// dials every rank in between, and returns one connection per real rank —
// a peer that speaks the framing and nothing else, for injecting frames no
// honest rank would send.
func rawPeer(t *testing.T, rendezvous string, size int) []net.Conn {
	t.Helper()
	me := size - 1
	hello := func(addr, mesh string) net.Conn {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Errorf("raw peer dialing %s: %v", addr, err)
			return nil
		}
		t.Cleanup(func() { conn.Close() })
		if err := writeFrame(conn, &frame{Type: frameHello, Payload: helloMsg{Rank: me, Addr: mesh}.encode()}); err != nil {
			t.Errorf("raw peer hello to %s: %v", addr, err)
		}
		return conn
	}
	conns := make([]net.Conn, me)
	// The last rank is dialed by nobody; the address it announces is never used.
	if conns[0] = hello(rendezvous, "127.0.0.1:1"); conns[0] == nil {
		return nil
	}
	pf, err := readFrame(conns[0])
	if err != nil || pf.Type != framePeers {
		t.Errorf("raw peer awaiting the peer table: type %d, %v", pf.Type, err)
		return nil
	}
	addrs, err := decodePeers(pf.Payload)
	if err != nil {
		t.Errorf("raw peer decoding the peer table: %v", err)
		return nil
	}
	for r := 1; r < me; r++ {
		if conns[r] = hello(addrs[r], ""); conns[r] == nil {
			return nil
		}
	}
	return conns
}

// TestMalformedRowFailsEveryRank: a peer's collective frame whose payload is
// not a whole number of elements — 7 bytes into an exchange of uint64 — is a
// communication failure like a torn connection: the rank that reads it
// returns an error naming the sender and what it sent, the world aborts, and
// every rank is out in bounded time. It used to be a bare panic: one stack
// trace, attributed to nobody. Both receive paths are held to it, the
// copy-out under Alltoallv and the in-place view under Rounds — and so is
// AgreeCommit, where the same 7 bytes are a valid byte row but not a vote.
// So are the two rows that describe a payload: a packed exchange's item
// lengths that do not add up to its bytes, and a stream header announcing
// a negative length (its first word, 1, is the round count; the frame
// after it is what a stream's header was when a round-count allreduce
// came first).
func TestMalformedRowFailsEveryRank(t *testing.T) {
	const p = 3 // ranks 0 and 1 are real, rank 2 is the raw peer
	const notRows = "rank 2 sent 7 bytes, not a multiple of element size 8"
	sevenBytes := [][]byte{[]byte("7 bytes")}
	for _, path := range []struct {
		name     string
		exchange func(c *Comm)
		frames   [][]byte // what the raw peer sends, collective after collective
		want     string
	}{
		{"alltoallv", func(c *Comm) { Alltoallv(c, make([][]uint64, p)) }, sevenBytes, notRows},
		{"rounds", func(c *Comm) {
			Rounds(c, NewRoundBufs(2), 3, func([][]uint64) {}, func([][]uint64) {})
		}, sevenBytes, notRows},
		{"agreecommit", func(c *Comm) { AgreeCommit(c, CommitVote{OK: true}) }, sevenBytes, "agree commit: commit vote from rank 2"},
		{"packed", func(c *Comm) {
			for _, b := range AlltoallvPacked(c, make([]PackedBufs, p)) {
				b.Items()
			}
		}, [][]byte{[]byte("7 bytes"), castToBytes([]int32{5})},
			"alltoallv packed: rank 2 sent 7 bytes under item lengths summing to 5"},
		{"stream-header", func(c *Comm) {
			IAlltoallvStreamed(c, make([]PackedBufs, p), StreamOpts{}, func(StreamDelivery) {})
		}, [][]byte{castToBytes([]int32{1, -5}), castToBytes([]int32{-5})},
			"streamed header: rank 2 sent item 0 of length -5"},
	} {
		t.Run(path.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			errs := make(chan error, p-1)
			for rank := 0; rank < p-1; rank++ {
				go func() {
					boot := &JoinBootstrap{Rank: rank, Size: p, Rendezvous: ln.Addr().String(), Timeout: 10 * time.Second}
					if rank == 0 {
						boot.Listener = ln
					}
					tr, err := Connect(boot)
					if err != nil {
						errs <- fmt.Errorf("rank %d: Connect: %w", rank, err)
						return
					}
					errs <- RunTransport(tr, nil, func(c *Comm) error { path.exchange(c); return nil })
				}()
			}
			for _, conn := range rawPeer(t, ln.Addr().String(), p) {
				for seq, payload := range path.frames {
					bad := &frame{Type: frameColl, Seq: uint64(seq), Payload: payload}
					if err := writeFrame(conn, bad); err != nil {
						t.Errorf("raw peer writing its frame: %v", err)
					}
				}
			}
			named := false
			for i := 0; i < p-1; i++ {
				select {
				case err := <-errs:
					switch {
					case err == nil:
						t.Errorf("a rank completed an exchange holding a malformed 7-byte row")
					case strings.Contains(err.Error(), "panicked"):
						t.Errorf("a malformed row surfaced as a panic: %v", err)
					case strings.Contains(err.Error(), path.want):
						named = true
					}
				case <-time.After(20 * time.Second):
					t.Fatal("a rank is still in the exchange 20 s after a malformed row arrived")
				}
			}
			if !named {
				t.Errorf("no rank's error names the sender and the malformed row")
			}
		})
	}
}
