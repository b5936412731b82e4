package spmd

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dibella/internal/wire"
)

var (
	sampleHello  = helloMsg{Rank: 3, Addr: "10.0.0.7:4123"}
	samplePeers  = []string{"127.0.0.1:1", "", "[::1]:65535"}
	sampleJoin   = joinMsg{HostIndex: -1, Hostname: "nid00042"}
	sampleAssign = assignMsg{HostIndex: 2, RankStart: 8, RankEnd: 12, Size: 16, Refused: "every host slot is already assigned"}
)

// controlCodecs is every formation payload as (sample encoding, decode and
// re-encode): what the truncation and fuzz checks run over.
var controlCodecs = []struct {
	name   string
	sample []byte
	recode func(b []byte) (back []byte, elems int, err error)
}{
	{"hello", sampleHello.encode(), func(b []byte) ([]byte, int, error) {
		m, err := decodeHello(b)
		return m.encode(), 1, err
	}},
	{"peers", encodePeers(samplePeers), func(b []byte) ([]byte, int, error) {
		addrs, err := decodePeers(b)
		return encodePeers(addrs), len(addrs), err
	}},
	{"join", sampleJoin.encode(), func(b []byte) ([]byte, int, error) {
		m, err := decodeJoin(b)
		return m.encode(), 1, err
	}},
	{"assign", sampleAssign.encode(), func(b []byte) ([]byte, int, error) {
		m, err := decodeAssign(b)
		return m.encode(), 1, err
	}},
}

func TestControlPayloadsRoundTrip(t *testing.T) {
	if got, err := decodeHello(sampleHello.encode()); err != nil || got != sampleHello {
		t.Errorf("hello: %+v, %v", got, err)
	}
	if got, err := decodePeers(encodePeers(samplePeers)); err != nil || !reflect.DeepEqual(got, samplePeers) {
		t.Errorf("peers: %q, %v", got, err)
	}
	if got, err := decodeJoin(sampleJoin.encode()); err != nil || got != sampleJoin {
		t.Errorf("join: %+v, %v", got, err)
	}
	if got, err := decodeAssign(sampleAssign.encode()); err != nil || got != sampleAssign {
		t.Errorf("assign: %+v, %v", got, err)
	}
}

// TestControlPayloadsRejectCorruption: every proper prefix is a truncation,
// a trailing byte is refused, and a foreign identity is named as such
// whatever follows it.
func TestControlPayloadsRejectCorruption(t *testing.T) {
	for _, c := range controlCodecs {
		for cut := 0; cut < len(c.sample); cut++ {
			if _, _, err := c.recode(c.sample[:cut]); !errors.Is(err, wire.ErrTruncated) {
				t.Errorf("%s cut to %d bytes: err = %v, want truncated", c.name, cut, err)
			}
		}
		if _, _, err := c.recode(append(append([]byte(nil), c.sample...), 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", c.name)
		}
		foreign := append([]byte(nil), c.sample...)
		foreign[0] ^= 0xFF
		if _, _, err := c.recode(foreign); err == nil || !strings.Contains(err.Error(), "protocol magic") {
			t.Errorf("%s: foreign magic: %v", c.name, err)
		}
		other := append(wire.U32(wire.U32(nil, protoMagic), protoVersion-1), "anything at all"...)
		if _, _, err := c.recode(other); err == nil || !strings.Contains(err.Error(), "protocol version") {
			t.Errorf("%s: other version: %v", c.name, err)
		}
	}
}

// FuzzControlPayloads: no bytes off a formation socket panic a decoder or
// size more elements than they have bytes, and what decodes re-encodes to
// the same bytes.
func FuzzControlPayloads(f *testing.F) {
	for i, c := range controlCodecs {
		f.Add(uint8(i), c.sample)
	}
	f.Add(uint8(1), wire.U32(writeProto(nil), 1<<32-1)) // a peer table of 2^32-1 addresses
	f.Fuzz(func(t *testing.T, which uint8, b []byte) {
		c := controlCodecs[int(which)%len(controlCodecs)]
		back, elems, err := c.recode(b)
		if err != nil {
			return
		}
		if elems > len(b) {
			t.Fatalf("%s: %d elements from %d bytes", c.name, elems, len(b))
		}
		if !bytes.Equal(back, b) {
			t.Fatalf("%s: re-encoding differs: %x -> %x", c.name, b, back)
		}
	})
}

// TestHeaderOnlyStrangerHoldsNoPayloadMemory: whoever finds the rendezvous
// port and sends it a 31-byte header claiming the largest collective payload
// is refused by name before the claim is allocated. net.Pipe makes the
// order observable: a Write returns once the reader has consumed it (or
// hung up), so after the second Write the reader is past its buffer set-up.
func TestHeaderOnlyStrangerHoldsNoPayloadMemory(t *testing.T) {
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := readFrame(server)
		server.Close()
		done <- err
	}()
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	hdr := wire.U8(wire.U16(nil, frameMagic), uint8(frameHello))
	hdr = wire.U32(wire.F64(wire.F64(wire.U64(hdr, 0), 0), 0), maxFramePayload)
	if _, err := client.Write(hdr); err != nil {
		t.Fatal(err)
	}
	client.Write([]byte{0}) // fails once the reader has refused and hung up
	if grown := int64(live()) - int64(before); grown > 1<<20 {
		t.Errorf("a stalled header claiming %d bytes pinned %d bytes of heap", maxFramePayload, grown)
	}
	client.Close()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("formation-time frame claiming %d bytes: err = %v, want the limit named", maxFramePayload, err)
	}
}

// FuzzReadFrame: no bytes off a socket panic the frame reader or make it
// ask for a payload buffer above the limit it was given (here the input's
// own length, which no acceptable frame exceeds), and what it accepts
// writeFrame renders back to the same bytes.
func FuzzReadFrame(f *testing.F) {
	for i, typ := range []frameType{frameHello, framePeers, frameJoin, frameAssign} {
		var buf bytes.Buffer
		writeFrame(&buf, &frame{Type: typ, Payload: controlCodecs[i].sample})
		f.Add(buf.Bytes())
	}
	var buf bytes.Buffer
	writeFrame(&buf, &frame{Type: frameColl, Seq: 42, Clock: 1.25, Bytes: 4096, Payload: []byte("hello world")})
	writeFrame(&buf, &frame{Type: frameAbort, Seq: ^uint64(0), Clock: -1.5, Bytes: 1e308})
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		asked := 0
		got, err := readFrameBuf(bytes.NewReader(b), uint32(len(b)), func(n int) []byte {
			asked += n
			return make([]byte, n)
		})
		if asked > len(b) {
			t.Fatalf("asked for %d payload bytes of a %d-byte input", asked, len(b))
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := writeFrame(&again, &got); err != nil || !bytes.Equal(again.Bytes(), b[:again.Len()]) {
			t.Fatalf("frame re-encoding differs (%v): %x -> %x", err, b, again.Bytes())
		}
	})
}
