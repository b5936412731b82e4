package spmd

import (
	"bytes"
	"testing"
	"unsafe"
)

// drainFramePools empties every size class, so identity checks see only
// what the test itself puts.
func drainFramePools() {
	for k := range framePools {
		for framePools[k].Get() != nil {
		}
	}
}

// reusedFor reports whether a pooled buffer of put bytes ever comes back for
// a request of get bytes. The race detector makes sync.Pool drop Puts at
// random, so reuse is looked for over several attempts rather than a single
// round trip.
func reusedFor(t *testing.T, put, get int) bool {
	t.Helper()
	for i := 0; i < 100; i++ {
		b := getFrameBuf(put)
		putFrameBuf(b)
		got := getFrameBuf(get)
		if len(got) != get {
			t.Fatalf("getFrameBuf(%d) returned len %d", get, len(got))
		}
		if &got[0] == &b[0] {
			return true
		}
	}
	return false
}

// TestFrameBufPool exercises the pool's reuse contract: a buffer comes back
// for any request of its size class and for no other, whatever was pooled
// in between, and what is not a class-sized aligned buffer never enters.
func TestFrameBufPool(t *testing.T) {
	drainFramePools()

	if !reusedFor(t, 256, 129) {
		t.Errorf("pooled buffer was never reused for a smaller request of its class")
	}
	if reusedFor(t, 256, 128) || reusedFor(t, 256, 257) {
		t.Errorf("a 256-byte buffer served a request of another class")
	}
	for _, n := range []int{1, 63, 64, 65, 4096, maxPooledBuf - 1, maxPooledBuf} {
		b := getFrameBuf(n)
		if c := cap(b); len(b) != n || c < n || c&(c-1) != 0 || c > 2*max(n, 1<<minPooledShift-1) {
			t.Errorf("getFrameBuf(%d): len %d cap %d, want the smallest power-of-two class holding it", n, len(b), c)
		}
		if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
			t.Errorf("getFrameBuf(%d) is not 8-byte aligned", n)
		}
	}

	// The build's pass change: frames of 8-byte records, then of 16-byte
	// ones twice the size. The first pass's buffers stay pooled under their
	// own class while the second pass runs, and the second pass reuses its
	// own from the second frame on — a one-slot pool popped the short buffer,
	// dropped it and allocated afresh, every frame.
	const bloomFrame, hashFrame = (1 << 15) * 8, (1 << 15) * 16
	if !reusedFor(t, bloomFrame, bloomFrame-4096) {
		t.Errorf("a Bloom-pass frame was never reused")
	}
	kept := getFrameBuf(bloomFrame)
	putFrameBuf(kept)
	if !reusedFor(t, hashFrame, hashFrame-4096) {
		t.Errorf("a hash-pass frame was never reused with Bloom-pass frames pooled")
	}

	// The largest frame a default build ships — one whole hash-pass round
	// (1<<16 records of 16 bytes) to a single peer — is retained.
	if !reusedFor(t, (1<<16)*16, (1<<16)*16-4096) {
		t.Errorf("a full hash-pass round's frame (%d bytes) was never reused", (1<<16)*16)
	}

	// Oversized buffers never enter the pool; nor does a caller's slice
	// that is not a whole class-sized buffer, nor nil, nor empty.
	drainFramePools()
	putFrameBuf(getFrameBuf(maxPooledBuf + 1))
	putFrameBuf(make([]byte, 100))
	putFrameBuf(getFrameBuf(256)[8:])
	putFrameBuf(nil)
	putFrameBuf(make([]byte, 0))
	for k := range framePools {
		if framePools[k].Get() != nil {
			t.Errorf("class %d retained a buffer that is not one of its own", k)
		}
	}
}

// TestReadFramePooled round-trips frames through the pooled read path
// and confirms a recycled payload buffer is reused for the next frame.
func TestReadFramePooled(t *testing.T) {
	drainFramePools()

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
