package spmd

import (
	"io"
	"math/bits"
	"sync"
	"unsafe"
)

// Frame-payload buffer pooling for the TCP transport's read path. A
// mid-world collective frame's payload is read into a pooled buffer and goes
// back to the pool when the typed layer is done with it: after the copy-out
// for a collective whose result escapes to the caller (Alltoallv, the
// gathers), after process returns for a round of Rounds, which reads the
// payload where it landed.
//
// Buffers are kept by power-of-two size class, so a pass whose frames double
// (dht's 8-byte Bloom records, then its 16-byte hash records) finds the
// first pass's buffers still pooled under their own class instead of popping
// each one, finding it short and dropping it. Every buffer is allocated as
// []uint64: 8-byte aligned, which is every pointer-free element type's
// alignment or a multiple of it, so a payload can be viewed as a []T in
// place.
//
// The handoff is explicit: a transport that can reuse its receive buffers
// implements recvBufRecycler, and the typed layer returns each buffer it is
// done with — skipping the rank's own column, which aliases the caller's
// send buffer rather than a pooled one.

const (
	minPooledShift = 6 // 64 B: a small collective's frame
	// maxPooledBuf caps what the pool retains: a one-off giant frame should
	// be reclaimed by the GC, not pinned for the life of the world. The cap
	// is one full default hash-pass round addressed to a single peer (dht's
	// MaxKmersPerRound, 1<<16 records of 16 bytes), the largest frame a
	// build ships however skewed its keys; a two-rank build's half-round
	// frames scatter a few KB around 512 KiB and land in the top two
	// classes.
	maxPooledShift = 20
	maxPooledBuf   = 1 << maxPooledShift
)

// framePools[k] holds buffers of exactly 1<<(minPooledShift+k) bytes, each
// as the pointer to its first byte: a pointer travels in an interface
// without a box, so a Put allocates nothing.
var framePools [maxPooledShift - minPooledShift + 1]sync.Pool

// sizeClass is the smallest class holding n bytes, 0 < n <= maxPooledBuf.
func sizeClass(n int) int {
	return max(bits.Len(uint(n-1)), minPooledShift) - minPooledShift
}

// alignedBuf allocates n bytes at 8-byte alignment.
func alignedBuf(n int) []byte {
	w := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8)
}

// getFrameBuf returns a length-n, 8-byte-aligned buffer, n > 0: a pooled
// one of n's size class when there is one, a new one of that class
// otherwise, and a plain allocation above maxPooledBuf.
func getFrameBuf(n int) []byte {
	if n > maxPooledBuf {
		return alignedBuf(n)[:n]
	}
	k := sizeClass(n)
	size := 1 << (minPooledShift + k)
	if p, _ := framePools[k].Get().(*byte); p != nil {
		return unsafe.Slice(p, size)[:n]
	}
	return alignedBuf(size)[:n]
}

// putFrameBuf returns a buffer to its class's pool. Anything that is not a
// whole class-sized, 8-byte-aligned buffer — nil, empty, oversized, a
// caller's own slice — is dropped.
func putFrameBuf(b []byte) {
	c := cap(b)
	if c < 1<<minPooledShift || c > maxPooledBuf || c&(c-1) != 0 {
		return
	}
	p := unsafe.SliceData(b)
	if uintptr(unsafe.Pointer(p))%8 != 0 {
		return
	}
	framePools[sizeClass(c)].Put(p)
}

// recvBufRecycler is implemented by transports whose received payload
// buffers come from the frame pool and may be reused once the typed
// layer is done with them. The mem transport does not implement
// it: its "received" slices alias the senders' own memory.
type recvBufRecycler interface {
	recycleRecvBuf(b []byte)
}

// readFramePooled reads one mid-world frame: the payload may be as large
// as a collective's (maxFramePayload) and is drawn from the frame pool
// instead of a fresh allocation. Only the collective read loop uses it —
// formation-time frames (hello, peer table, join) keep plain readFrame and
// its small cap, since their senders are not yet known to be peers.
func readFramePooled(r io.Reader) (frame, error) {
	return readFrameBuf(r, maxFramePayload, getFrameBuf)
}
