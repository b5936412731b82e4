package spmd

import (
	"io"
	"sync"
)

// Frame-payload buffer pooling for the TCP transport's read path. Every
// mid-world collective frame used to allocate its payload afresh; under
// serve-mode traffic (many small query collectives per second, for the
// life of the daemon) that allocation pressure is constant. The typed
// layer always copies received bytes out of a non-shared transport's
// buffers (castFromBytes), so once a collective has been decoded the raw
// payload can go straight back to the pool.
//
// The handoff is explicit: a transport that can reuse its receive
// buffers implements recvBufRecycler, and the typed collectives return
// each buffer after copy-out — skipping the rank's own column, which
// aliases the caller's send buffer rather than a pooled one.

// maxPooledBuf caps what the pool retains: a one-off giant frame should
// be reclaimed by the GC, not pinned for the life of the world. The cap
// covers one full default hash-pass round to a single peer (dht's
// MaxKmersPerRound, 1<<19 records of 16 bytes): at 4 MiB it sat on the
// mean frame of a two-rank build (half a round, give or take a few KB), so
// every other such frame was allocated fresh and dropped.
const maxPooledBuf = 8 << 20

var framePool sync.Pool

// getFrameBuf returns a length-n buffer, reusing a pooled one when its
// capacity suffices (undersized pooled buffers are dropped to the GC).
func getFrameBuf(n int) []byte {
	if v, _ := framePool.Get().(*[]byte); v != nil && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]byte, n)
}

// putFrameBuf returns a buffer to the pool. Nil, empty, and oversized
// buffers are dropped.
func putFrameBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	framePool.Put(&b)
}

// recvBufRecycler is implemented by transports whose received payload
// buffers come from the frame pool and may be reused once the typed
// layer has copied the data out. The mem transport does not implement
// it: its "received" slices alias the senders' own memory.
type recvBufRecycler interface {
	RecycleRecvBuf(b []byte)
}

// readFramePooled reads one mid-world frame: the payload may be as large
// as a collective's (maxFramePayload) and is drawn from the frame pool
// instead of a fresh allocation. Only the collective read loop uses it —
// formation-time frames (hello, peer table, join) keep plain readFrame and
// its small cap, since their senders are not yet known to be peers.
func readFramePooled(r io.Reader) (frame, error) {
	return readFrameBuf(r, maxFramePayload, getFrameBuf)
}
