package spmd

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestFrameBufPool exercises the pool's reuse contract: a returned
// buffer with sufficient capacity is handed back, undersized and
// oversized buffers are not.
func TestFrameBufPool(t *testing.T) {
	// Drain whatever other tests left behind so identity checks below
	// see only what this test puts.
	for framePool.Get() != nil {
	}

	// The race detector makes sync.Pool drop Puts at random, so reuse
	// is asserted over several attempts rather than a single round trip.
	reused := false
	for i := 0; i < 100 && !reused; i++ {
		b := make([]byte, 256)
		putFrameBuf(b)
		got := getFrameBuf(128)
		if len(got) != 128 {
			t.Fatalf("getFrameBuf(128) returned len %d", len(got))
		}
		reused = &got[0] == &b[0]
	}
	if !reused {
		t.Errorf("pooled buffer was never reused for a smaller request")
	}

	// An undersized pooled buffer is dropped, not returned short.
	putFrameBuf(make([]byte, 16))
	got := getFrameBuf(64)
	if len(got) != 64 {
		t.Fatalf("getFrameBuf(64) returned len %d", len(got))
	}

	// The largest frame a default build ships — one whole hash-pass round
	// (1<<19 records of 16 bytes) to a single peer — is retained, so the
	// two-rank build's half-round frames, which scatter a few KB around
	// 4 MiB, all are.
	for i := 0; i < 100; i++ {
		round := make([]byte, (1<<19)*16)
		putFrameBuf(round)
		if got := getFrameBuf(len(round)/2 + 4096); &got[0] == &round[0] {
			break
		} else if i == 99 {
			t.Errorf("a full hash-pass round's frame (%d bytes) was never reused", len(round))
		}
	}

	// Oversized buffers never enter the pool.
	huge := make([]byte, maxPooledBuf+1)
	putFrameBuf(huge)
	if v, _ := framePool.Get().(*[]byte); v != nil && cap(*v) > maxPooledBuf {
		t.Errorf("oversized buffer (cap %d) retained by the pool", cap(*v))
	}

	// Nil and empty are dropped silently.
	putFrameBuf(nil)
	putFrameBuf(make([]byte, 0))
}

// TestReadFramePooled round-trips frames through the pooled read path
// and confirms a recycled payload buffer is reused for the next frame.
func TestReadFramePooled(t *testing.T) {
	for framePool.Get() != nil {
	}

	payload := []byte("query batch bytes")
	const rounds = 100
	var wire bytes.Buffer
	for i := 0; i < rounds; i++ {
		f := frame{Type: frameColl, Seq: uint64(i), Clock: 1.5, Bytes: 17, Payload: payload}
		if err := writeFrame(&wire, &f); err != nil {
			t.Fatal(err)
		}
	}

	// Reuse is probabilistic under the race detector (sync.Pool drops
	// Puts at random there); over many recycled reads at least one must
	// come back from the pool.
	reused := false
	var prev *byte
	for i := 0; i < rounds; i++ {
		f, err := readFramePooled(&wire)
		if err != nil {
			t.Fatal(err)
		}
		if f.Seq != uint64(i) || !bytes.Equal(f.Payload, payload) {
			t.Fatalf("frame %d decoded as seq %d payload %q", i, f.Seq, f.Payload)
		}
		if p := unsafe.SliceData(f.Payload); p == prev {
			reused = true
		} else {
			prev = p
		}
		putFrameBuf(f.Payload)
	}
	if !reused {
		t.Errorf("no recycled payload buffer was ever reused by a pooled read")
	}
}
