package spmd

import (
	"fmt"
	"io"

	"dibella/internal/wire"
)

// The TCP backend's wire format: length-prefixed binary frames. Every
// frame is a fixed 31-byte header followed by the payload:
//
//	magic   uint16  0xD1BE ("diBElla"), catches stream desync/garbage
//	type    uint8   frameHello | framePeers | frameColl | frameAbort | frameJoin | frameAssign
//	seq     uint64  collective sequence number (frameColl only)
//	clock   float64 sender's virtual clock contribution (IEEE-754 bits)
//	bytes   float64 sender's total payload bytes this collective
//	plen    uint32  payload length
//	payload [plen]byte
//
// Header and control payloads are written with internal/wire (big-endian
// integers, length-prefixed strings). Control frames (hello, peers, join,
// assign) carry the payloads defined at the end of this file, each opening
// with the protocol identity; collective frames carry raw bytes whose
// meaning belongs to the typed layer.

type frameType uint8

const (
	// frameHello is the dialer's first frame on a new connection: its rank
	// and, on the rendezvous connection, its mesh listen address.
	frameHello frameType = iota + 1
	// framePeers is rank 0's rendezvous reply: every rank's mesh address.
	framePeers
	// frameColl carries one collective's payload for the receiving rank.
	frameColl
	// frameAbort poisons the receiver's world (a peer failed).
	frameAbort
	// frameJoin is a host agent's request for a placement in a host-list
	// world: its host index (or -1) and hostname, sent to the rendezvous in
	// place of a hello.
	frameJoin
	// frameAssign is rank 0's reply: the agent's contiguous rank range and
	// the world size, or why there is no placement for it.
	frameAssign
)

const (
	frameMagic      = 0xD1BE
	frameHeaderSize = 2 + 1 + 8 + 8 + 8 + 4
	// maxFramePayload bounds a single rank-to-rank transfer; a corrupt
	// length prefix fails fast instead of attempting a huge allocation.
	maxFramePayload = 1 << 30
	// maxControlPayload bounds what is read while a world forms, when the
	// sender may be any stranger who found the rendezvous port. The largest
	// honest control payload is the peer table: Size short strings.
	maxControlPayload = 1 << 20
)

// frame is one decoded wire frame.
type frame struct {
	Type    frameType
	Seq     uint64
	Clock   float64
	Bytes   float64
	Payload []byte
}

// writeFrame writes one frame to w.
func writeFrame(w io.Writer, f *frame) error {
	if len(f.Payload) > maxFramePayload {
		return fmt.Errorf("spmd: frame payload %d exceeds limit %d", len(f.Payload), maxFramePayload)
	}
	hdr := wire.U8(wire.U16(make([]byte, 0, frameHeaderSize), frameMagic), uint8(f.Type))
	hdr = wire.F64(wire.F64(wire.U64(hdr, f.Seq), f.Clock), f.Bytes)
	hdr = wire.U32(hdr, uint32(len(f.Payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one formation-time frame from r, whatever its type: a
// payload claim above maxControlPayload is refused before it is allocated.
// The returned payload is freshly allocated and owned by the caller.
func readFrame(r io.Reader) (frame, error) {
	return readFrameBuf(r, maxControlPayload, func(n int) []byte { return make([]byte, n) })
}

// readFrameBuf reads one frame from r, refusing a payload longer than limit
// and obtaining the payload buffer from alloc (which must return a length-n
// slice). The pooled mid-world read path passes maxFramePayload and
// getFrameBuf.
func readFrameBuf(r io.Reader, limit uint32, alloc func(n int) []byte) (frame, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	h := wire.NewReader(hdr[:])
	if m := h.U16(); m != frameMagic {
		return frame{}, fmt.Errorf("spmd: bad frame magic %#04x (stream desync?)", m)
	}
	f := frame{Type: frameType(h.U8()), Seq: h.U64(), Clock: h.F64(), Bytes: h.F64()}
	if f.Type < frameHello || f.Type > frameAssign {
		return frame{}, fmt.Errorf("spmd: unknown frame type %d", f.Type)
	}
	plen := h.U32()
	if plen > limit {
		return frame{}, fmt.Errorf("spmd: frame payload %d exceeds limit %d", plen, limit)
	}
	if plen > 0 {
		f.Payload = alloc(int(plen))
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return frame{}, fmt.Errorf("spmd: short frame payload: %w", err)
		}
	}
	return f, nil
}

// Control payloads. Each opens with the protocol identity (writeProto /
// openPayload), so a peer that is not this binary is refused by name before
// any other field is believed.

// Wire-protocol identity. A peer whose binary speaks a different protocol
// (or is not dibella at all) is rejected with a clear error during world
// formation, instead of failing later with a frame-decode panic
// mid-collective. Version 2 dropped the application-config payload from
// the join assignment and the worker environment; version 3 replaced the
// gob control payloads with the ones below; version 4 moved the placement
// request onto the rendezvous port (the assignment names no second port and
// may carry a refusal).
const (
	protoMagic   = 0x44694245 // "DiBE"
	protoVersion = 4
)

func writeProto(b []byte) []byte { return wire.U32(wire.U32(b, protoMagic), protoVersion) }

// openPayload returns a Reader over a control payload, positioned past its
// identity and already failed if that identity is foreign.
func openPayload(b []byte) *wire.Reader {
	r := wire.NewReader(b)
	magic, version := r.U32(), r.U32()
	switch {
	case magic != protoMagic:
		r.Fail(fmt.Errorf("peer protocol magic %#08x, want %#08x (peer is not a dibella process, or predates protocol version 3?)", magic, protoMagic))
	case version != protoVersion:
		r.Fail(fmt.Errorf("peer speaks protocol version %d, this binary speaks %d (mismatched dibella binaries?)", version, protoVersion))
	}
	return r
}

// rank-sized ints travel as int32: HostIndex is -1 when unknown.
func putInt(b []byte, v int) []byte { return wire.U32(b, uint32(int32(v))) }
func getInt(r *wire.Reader) int     { return int(int32(r.U32())) }

func (h helloMsg) encode() []byte {
	return wire.Bytes(putInt(writeProto(nil), h.Rank), h.Addr)
}

func decodeHello(b []byte) (h helloMsg, err error) {
	r := openPayload(b)
	h = helloMsg{Rank: getInt(r), Addr: r.String()}
	return h, r.Finish()
}

// encodePeers renders rank 0's rendezvous reply: every rank's mesh address.
func encodePeers(addrs []string) []byte {
	b := wire.U32(writeProto(nil), uint32(len(addrs)))
	for _, a := range addrs {
		b = wire.Bytes(b, a)
	}
	return b
}

func decodePeers(b []byte) ([]string, error) {
	r := openPayload(b)
	addrs := make([]string, r.Count(uint64(r.U32()), 4))
	for i := range addrs {
		addrs[i] = r.String()
	}
	return addrs, r.Finish()
}

func (m joinMsg) encode() []byte {
	return wire.Bytes(putInt(writeProto(nil), m.HostIndex), m.Hostname)
}

func decodeJoin(b []byte) (m joinMsg, err error) {
	r := openPayload(b)
	m = joinMsg{HostIndex: getInt(r), Hostname: r.String()}
	return m, r.Finish()
}

func (m assignMsg) encode() []byte {
	b := putInt(putInt(putInt(writeProto(nil), m.HostIndex), m.RankStart), m.RankEnd)
	return wire.Bytes(putInt(b, m.Size), m.Refused)
}

func decodeAssign(b []byte) (m assignMsg, err error) {
	r := openPayload(b)
	m = assignMsg{HostIndex: getInt(r), RankStart: getInt(r), RankEnd: getInt(r), Size: getInt(r), Refused: r.String()}
	return m, r.Finish()
}
