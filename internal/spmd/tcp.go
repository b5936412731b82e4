package spmd

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// The TCP transport: one OS process (or goroutine, in tests) per rank,
// exchanging length-prefixed frames over per-peer persistent connections.
//
// A world forms in one conversation on one port, rank 0's rendezvous — the
// only address anyone is ever told (Kademlia's rule: a node joins by
// contacting one known node). A connection to it opens with one of two
// frames:
//
//   - frameJoin, "where do I go?": a host agent asking for its host's rank
//     range. A launcher's rank 0 answers with a frameAssign from its host
//     table and the connection closes; the agent forks that range with the
//     same rendezvous address in the DIBELLA_* env contract.
//   - frameHello, "here I am": a placed rank introducing itself (rank +
//     mesh listen address). The connection stays: it is that rank's mesh
//     edge to rank 0.
//
// Once P-1 hellos have arrived rank 0 replies to each with the full address
// table. Rank i then dials every rank 0 < j < i and accepts connections
// from every j > i, so each unordered pair shares exactly one connection.
// Until the world stands nothing read from a socket may claim more than
// maxControlPayload.
//
// Each exchange is one frame per peer in each direction, carrying the
// sender's virtual clock and byte count in the header; since every rank
// hears from every other rank, each computes the world maxima locally —
// the same quantities the in-process slots accumulate.

// helloMsg is the payload of a frameHello.
type helloMsg struct {
	Rank int
	Addr string // mesh listen address (rendezvous connection only)
}

// peerMsg is carried on a peer's frame channel: one decoded frame or the
// terminal receive error.
type peerMsg struct {
	f   frame
	err error
}

// outFrame is one queued outbound collective frame. wg is signalled once
// the frame has been written and flushed (or failed, with the error stored
// in *errp); the happens-before edge of wg makes errp safe to read after
// wg.Wait.
type outFrame struct {
	f    *frame
	wg   *sync.WaitGroup
	errp *error
}

// peerConn is one persistent rank-to-rank connection. After world
// formation a dedicated writer goroutine owns the outbound direction,
// draining sendq in FIFO order — the property that keeps collective frames
// sequence-ordered on the wire even with several exchanges in flight.
type peerConn struct {
	conn   net.Conn
	wmu    sync.Mutex // serializes writes (writer goroutine vs. abort)
	bw     *bufio.Writer
	whdr   frameHeader // written under wmu
	rhdr   frameHeader // the read loop's
	frames chan peerMsg
	sendq  chan outFrame
}

type tcpTransport struct {
	rank, size int
	peers      []*peerConn // indexed by rank; nil at own index
	seq        uint64      // collective sequence number
	// Confined to the rank's own goroutine, which alone posts and waits:
	// the header wait returns, reused by the next wait, and the handles of
	// completed exchanges, reused by later posts.
	recv [][]byte
	idle []*tcpPending

	done     chan struct{} // closed on shutdown; unblocks readers/receivers
	shutdown sync.Once
	aborted  bool
	amu      sync.Mutex
}

// dialTCP forms (this rank's endpoint of) a TCP world and returns once
// every pairwise connection is established, i.e. when all ranks have
// arrived. The transport is ready for collectives on return.
func dialTCP(p *JoinBootstrap) (Transport, error) {
	switch {
	case p.Size <= 0:
		return nil, fmt.Errorf("spmd: world size %d must be positive", p.Size)
	case p.Rank < 0 || p.Rank >= p.Size:
		return nil, fmt.Errorf("spmd: rank %d out of range [0,%d)", p.Rank, p.Size)
	case p.Rendezvous == "" && !(p.Rank == 0 && p.Listener != nil):
		return nil, errors.New("spmd: a placement needs a rendezvous address")
	}
	t := &tcpTransport{
		rank:  p.Rank,
		size:  p.Size,
		peers: make([]*peerConn, p.Size),
		recv:  make([][]byte, p.Size),
		done:  make(chan struct{}),
	}
	deadline := formDeadline(p.Timeout)
	var err error
	if p.Rank == 0 {
		err = t.formRoot(p, deadline)
	} else {
		err = t.formLeaf(p, deadline)
	}
	if err != nil {
		t.Close()
		return nil, err
	}
	for r, p := range t.peers {
		if r == t.rank {
			continue
		}
		p.conn.SetDeadline(time.Time{})
		go t.readLoop(p)
		go t.writeLoop(p)
	}
	return t, nil
}

// formRoot runs rank 0's side of world formation: answer placement
// requests, accept P-1 hellos, learn every rank's mesh address, broadcast
// the table.
func (t *tcpTransport) formRoot(p *JoinBootstrap, deadline time.Time) error {
	ln := p.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", p.Rendezvous)
		if err != nil {
			return fmt.Errorf("spmd: rank 0 rendezvous listen: %w", err)
		}
	}
	addrs, err := t.acceptHigher(ln, p.hosts, deadline)
	if err != nil {
		return err
	}
	addrs[0] = ln.Addr().String()
	table := encodePeers(addrs)
	for r := 1; r < t.size; r++ {
		p := t.peers[r]
		if err := p.write(&frame{Type: framePeers, Payload: table}); err != nil {
			return fmt.Errorf("spmd: rank 0 sending peer table to rank %d: %w", r, err)
		}
	}
	return nil
}

// formLeaf runs rank i>0's side: introduce ourselves to rank 0, learn the
// address table, dial lower ranks, accept higher ones.
func (t *tcpTransport) formLeaf(p *JoinBootstrap, deadline time.Time) error {
	dialer := net.Dialer{Deadline: deadline}
	root, err := dialer.Dial("tcp", p.Rendezvous)
	if err != nil {
		return fmt.Errorf("spmd: rank %d dialing rendezvous %s: %w", t.rank, p.Rendezvous, err)
	}
	// Bind the mesh listener where the route to the rendezvous says peers
	// are: a rendezvous reached over loopback means a one-machine world.
	bind := p.ListenAddr
	if bind == "" {
		bind = ":0"
		if ra, ok := root.RemoteAddr().(*net.TCPAddr); ok && ra.IP.IsLoopback() {
			bind = "127.0.0.1:0"
		}
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		root.Close()
		return fmt.Errorf("spmd: rank %d mesh listen: %w", t.rank, err)
	}
	defer ln.Close()
	// Advertise the mesh listener under the interface this rank reaches
	// the rendezvous from: a ":0"-style bind has no routable host of its
	// own, and the rendezvous path is the one route peers are known to
	// share with us.
	if err := t.introduce(0, root, advertiseAddr(ln.Addr(), root.LocalAddr()), deadline); err != nil {
		return fmt.Errorf("spmd: rank %d introducing itself to rendezvous %s: %w", t.rank, p.Rendezvous, err)
	}
	// Read the table unbuffered: rank 0 may already be streaming
	// collective frames behind it, and a throwaway buffered reader would
	// swallow their first bytes.
	pf, err := readFrame(root)
	if err != nil {
		return fmt.Errorf("spmd: rank %d awaiting peer table: %w", t.rank, err)
	}
	if pf.Type != framePeers {
		return fmt.Errorf("spmd: rank %d expected peer table, got frame type %d", t.rank, pf.Type)
	}
	addrs, err := decodePeers(pf.Payload)
	if err != nil {
		return fmt.Errorf("spmd: rank %d decoding peer table: %w", t.rank, err)
	}
	if len(addrs) != t.size {
		return fmt.Errorf("spmd: rank %d peer table has %d entries, want %d", t.rank, len(addrs), t.size)
	}
	for r := 1; r < t.rank; r++ {
		conn, err := dialer.Dial("tcp", addrs[r])
		if err == nil {
			err = t.introduce(r, conn, "", deadline)
		}
		if err != nil {
			return fmt.Errorf("spmd: rank %d dialing rank %d at %s: %w", t.rank, r, addrs[r], err)
		}
	}
	_, err = t.acceptHigher(ln, nil, deadline)
	return err
}

// introduce sends this rank's hello on a freshly dialed connection — addr is
// its mesh listen address, which only the rendezvous needs — and installs
// the connection as the edge to rank r. It owns conn: a failure closes it.
func (t *tcpTransport) introduce(r int, conn net.Conn, addr string, deadline time.Time) error {
	conn.SetDeadline(deadline)
	hello := helloMsg{Rank: t.rank, Addr: addr}
	err := writeFrame(conn, &frame{Type: frameHello, Payload: hello.encode()})
	if err != nil {
		err = fmt.Errorf("spmd: sending hello: %w", err)
	} else {
		err = t.admit(r, conn)
	}
	if err != nil {
		conn.Close()
	}
	return err
}

// advertiseAddr returns the mesh address to announce to peers: the bound
// listener address, with an unspecified host (a ":0"-style bind) replaced
// by the interface this rank reaches the rendezvous from — the one address
// peers are known to share a route with.
func advertiseAddr(ln, local net.Addr) string {
	host, port, err := net.SplitHostPort(ln.String())
	if err != nil {
		return ln.String()
	}
	if ip := net.ParseIP(host); host != "" && (ip == nil || !ip.IsUnspecified()) {
		return ln.String()
	}
	if ta, ok := local.(*net.TCPAddr); ok {
		return net.JoinHostPort(ta.IP.String(), port)
	}
	return ln.String()
}

// acceptHigher takes connections off this rank's formation listener until
// every higher rank has said hello — only higher ranks dial: every rank > 0
// the rendezvous, rank j the mesh listener of each rank 0 < i < j — and
// returns the mesh addresses they announced. Opening frames are read under
// the formation cap, their senders not yet known to be peers, and a peer
// speaking another protocol (mismatched binaries) is refused by name. On
// the rendezvous a connection may open with a placement request instead: it
// is answered from hosts and closed, and is not an arrival. The listener is
// closed on return.
func (t *tcpTransport) acceptHigher(ln net.Listener, hosts *hostTable, deadline time.Time) ([]string, error) {
	defer ln.Close()
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	addrs := make([]string, t.size)
	for need := t.size - 1 - t.rank; need > 0; {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("spmd: rank %d accepting peers (%d still to arrive): %w", t.rank, need, err)
		}
		conn.SetDeadline(deadline)
		f, err := readFrame(conn)
		h, herr := decodeHello(f.Payload)
		switch {
		case err != nil:
			err = fmt.Errorf("spmd: rank %d reading hello: %w", t.rank, err)
		case f.Type == frameJoin && t.rank == 0:
			if err = hosts.answer(conn, f.Payload); err == nil {
				conn.Close()
				continue
			}
		case f.Type != frameHello:
			err = fmt.Errorf("spmd: rank %d expected hello, got frame type %d", t.rank, f.Type)
		case herr != nil:
			err = fmt.Errorf("spmd: rank %d decoding hello: %w", t.rank, herr)
		case h.Rank <= t.rank || h.Rank >= t.size:
			err = fmt.Errorf("spmd: rank %d of %d got a hello from rank %d, which has no reason to dial it", t.rank, t.size, h.Rank)
		default:
			err = t.admit(h.Rank, conn)
		}
		if err != nil {
			conn.Close()
			return nil, err
		}
		addrs[h.Rank] = h.Addr
		need--
	}
	return addrs, nil
}

// admit installs a newly established connection as the peer edge for rank r.
func (t *tcpTransport) admit(r int, conn net.Conn) error {
	if t.peers[r] != nil {
		return fmt.Errorf("spmd: duplicate connection for rank %d", r)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	t.peers[r] = &peerConn{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 64<<10),
		// Capacity 2*MaxStreamDepth: a peer may post collectives ahead of
		// our consumption, and every non-blocking exchange is a Rounds
		// window (a build pass or a stream's chunk rounds; nothing is
		// posted ahead of one) or AlltoallvDuring's one. At depth d a peer
		// posts round q only after waiting round q-d, which needs our frame
		// of it, and while we wait round r we have posted up to r+d-1: at
		// most 2d of its frames arrive before we wait them. A parked reader
		// backpressures the peer's writer and its posts; sizing for the
		// deepest window keeps it deadlock-free whatever the socket buffers.
		frames: make(chan peerMsg, 2*MaxStreamDepth),
		// Same bound on the outbound side: one frame per in-flight
		// collective per peer.
		sendq: make(chan outFrame, 2*MaxStreamDepth),
	}
	return nil
}

// write sends one frame on the peer connection, serialized against
// concurrent abort notifications.
func (p *peerConn) write(f *frame) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if err := writeFrameBuf(p.bw, &p.whdr, f); err != nil {
		return err
	}
	return p.bw.Flush()
}

// writeLoop owns one peer connection's outbound direction after world
// formation: it drains sendq in FIFO order (preserving collective sequence
// order on the wire), flushes each frame, and signals the posting
// collective's WaitGroup. A write failure poisons the world; the loop then
// keeps draining so posts never block on a dead peer.
func (t *tcpTransport) writeLoop(p *peerConn) {
	for {
		select {
		case of := <-p.sendq:
			if err := p.write(of.f); err != nil {
				*of.errp = err
				of.wg.Done()
				t.Abort()
				continue
			}
			of.wg.Done()
		case <-t.done:
			// Fail any frames still queued so pending Waits unwind.
			for {
				select {
				case of := <-p.sendq:
					*of.errp = ErrAborted
					of.wg.Done()
				default:
					return
				}
			}
		}
	}
}

// readLoop decodes frames from one peer for the life of the world,
// delivering them (or the terminal error) to the collective receive
// path. Payloads come from the frame pool; the typed layer recycles
// them (recycleRecvBuf) once it is done with them.
func (t *tcpTransport) readLoop(p *peerConn) {
	br := bufio.NewReaderSize(p.conn, 64<<10)
	for {
		f, err := readFramePooled(br, &p.rhdr)
		var msg peerMsg
		switch {
		case err != nil:
			msg = peerMsg{err: fmt.Errorf("spmd: peer connection lost: %w", err)}
		case f.Type == frameAbort:
			msg = peerMsg{err: ErrAborted}
		case f.Type == frameColl:
			msg = peerMsg{f: f}
		default:
			msg = peerMsg{err: fmt.Errorf("spmd: unexpected frame type %d mid-world", f.Type)}
		}
		select {
		case p.frames <- msg:
		case <-t.done:
			return
		}
		if msg.err != nil {
			close(p.frames)
			return
		}
	}
}

// recvColl receives the next collective frame from rank src, enforcing the
// sequence number so diverged collective schedules fail loudly instead of
// delivering wrong data.
func (t *tcpTransport) recvColl(src int, seq uint64) (frame, error) {
	select {
	case m, ok := <-t.peers[src].frames:
		if !ok {
			return frame{}, fmt.Errorf("spmd: rank %d connection already failed", src)
		}
		if m.err != nil {
			return frame{}, m.err
		}
		if m.f.Seq != seq {
			return frame{}, fmt.Errorf("spmd: rank %d sent collective #%d, expected #%d (collective schedules diverged)",
				src, m.f.Seq, seq)
		}
		return m.f, nil
	case <-t.done:
		return frame{}, ErrAborted
	}
}

// tcpPending is one posted non-blocking exchange: the sequence it was
// assigned, this rank's contributions, the frames queued on the per-peer
// writer goroutines and their completion tracking. A handle whose wait
// succeeded has no reader left and serves a later post.
type tcpPending struct {
	t            *tcpTransport
	seq          uint64
	clock, bytes float64
	own          []byte  // this rank's own column
	frames       []frame // the outbound frame per peer, indexed by rank
	wg           sync.WaitGroup
	writeErrs    []error
}

// ialltoallv posts one collective: a frame per peer is enqueued on the
// per-peer writer goroutines (FIFO per connection, so frames stay in
// sequence order on the wire) and the handle is returned without waiting
// for either the writes or the peers.
func (t *tcpTransport) ialltoallv(send [][]byte, clock, sentBytes float64) (pendingExchange, error) {
	if t.isAborted() {
		return nil, ErrAborted
	}
	var h *tcpPending
	if n := len(t.idle); n > 0 {
		h, t.idle = t.idle[n-1], t.idle[:n-1]
	} else {
		h = &tcpPending{t: t, frames: make([]frame, t.size), writeErrs: make([]error, t.size)}
	}
	h.seq, h.clock, h.bytes, h.own = t.seq, clock, sentBytes, send[t.rank]
	t.seq++
	for dst := 0; dst < t.size; dst++ {
		if dst == t.rank {
			continue
		}
		h.wg.Add(1)
		h.frames[dst] = frame{
			Type: frameColl, Seq: h.seq,
			Clock: clock, Bytes: sentBytes,
			Payload: send[dst],
		}
		of := outFrame{f: &h.frames[dst], wg: &h.wg, errp: &h.writeErrs[dst]}
		select {
		case t.peers[dst].sendq <- of:
		case <-t.done:
			h.writeErrs[dst] = ErrAborted
			h.wg.Done()
		}
	}
	return h, nil
}

// wait blocks for one frame from every peer (enforcing the handle's
// sequence number), then for this rank's own writes to flush — so that
// once the final collective of a world has been waited, a graceful Close
// cannot strand bytes a peer is still expecting.
func (h *tcpPending) wait() ([][]byte, float64, float64, error) {
	t := h.t
	maxClock, maxBytes := h.clock, h.bytes
	var collErr error
	for src := 0; src < t.size; src++ {
		if src == t.rank {
			t.recv[src] = h.own
			continue
		}
		f, err := t.recvColl(src, h.seq)
		if err != nil {
			collErr = err
			break
		}
		t.recv[src] = f.Payload
		if f.Clock > maxClock {
			maxClock = f.Clock
		}
		if f.Bytes > maxBytes {
			maxBytes = f.Bytes
		}
	}
	if collErr == nil {
		h.wg.Wait()
		for _, err := range h.writeErrs {
			if err != nil {
				collErr = fmt.Errorf("spmd: collective send failed: %w", err)
				break
			}
		}
		if collErr == nil {
			// Flushed and received: nothing refers to the handle any more.
			// Its send rows go with it, not to be pinned until the reuse.
			h.own = nil
			clear(h.frames)
			t.idle = append(t.idle, h)
			return t.recv, maxClock, maxBytes, nil
		}
	}
	// Failure path. Classify before tearing down (Abort sets the flag we
	// map to ErrAborted), then abort the world so the writer goroutines
	// fail any still-queued frames before we return. failQueued backstops
	// the race where a post enqueued a frame just as its writeLoop drained
	// and exited — without it that frame's Done would never fire and the
	// wg.Wait below would hang instead of unwinding with ErrAborted.
	if t.isAborted() || errors.Is(collErr, ErrAborted) {
		collErr = ErrAborted
	}
	t.Abort()
	t.failQueued()
	h.wg.Wait()
	return nil, 0, 0, collErr
}

// failQueued drains every peer's send queue, failing the queued frames.
// Only the rank's own goroutine posts frames, and it is the caller here,
// so no new frame can appear behind the sweep; anything a writeLoop still
// holds mid-write fails through the closed connection instead.
func (t *tcpTransport) failQueued() {
	for r, p := range t.peers {
		if r == t.rank || p == nil {
			continue
		}
		for {
			select {
			case of := <-p.sendq:
				*of.errp = ErrAborted
				of.wg.Done()
				continue
			default:
			}
			break
		}
	}
}

func (t *tcpTransport) Rank() int    { return t.rank }
func (t *tcpTransport) Size() int    { return t.size }
func (t *tcpTransport) shared() bool { return false }

// recycleRecvBuf returns a received frame payload to the pool once the
// typed layer is done with it (recvBufRecycler).
func (t *tcpTransport) recycleRecvBuf(b []byte) { putFrameBuf(b) }

func (t *tcpTransport) isAborted() bool {
	t.amu.Lock()
	defer t.amu.Unlock()
	return t.aborted
}

// Abort poisons the world: peers are notified best-effort with an abort
// frame, then every connection is torn down. Ranks blocked in collectives
// (local or remote) unwind with ErrAborted.
func (t *tcpTransport) Abort() {
	t.amu.Lock()
	t.aborted = true
	t.amu.Unlock()
	t.shutdown.Do(func() {
		abort := &frame{Type: frameAbort}
		for r, p := range t.peers {
			if r == t.rank || p == nil {
				continue
			}
			p.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			p.write(abort) // best-effort; the close below is the backstop
		}
		t.teardown()
	})
}

// Close releases the transport. It is the graceful shutdown — by BSP
// discipline all ranks have completed the same collectives, so closing
// cannot strand a peer mid-exchange.
func (t *tcpTransport) Close() error {
	t.shutdown.Do(t.teardown)
	return nil
}

func (t *tcpTransport) teardown() {
	close(t.done)
	for r, p := range t.peers {
		if r == t.rank || p == nil {
			continue
		}
		p.conn.Close()
	}
}
