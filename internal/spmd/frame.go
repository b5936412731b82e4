package spmd

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
// All integers are big-endian. Control frames (hello/peers) carry
// gob-encoded payloads; collective frames carry raw bytes whose meaning
// belongs to the typed layer.

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
	// frameJoin is a host agent's request to enter a host-list world: its
	// host index (or -1) and hostname, sent to the launcher's join port.
	frameJoin
	// frameAssign is the launcher's join reply: the agent's contiguous
	// rank range, the world size, and the rendezvous port.
	frameAssign
)

const (
	frameMagic      = 0xD1BE
	frameHeaderSize = 2 + 1 + 8 + 8 + 8 + 4
	// maxFramePayload bounds a single rank-to-rank transfer; a corrupt
	// length prefix fails fast instead of attempting a huge allocation.
	maxFramePayload = 1 << 30
)

// frame is one decoded wire frame.
type frame struct {
	Type    frameType
	Seq     uint64
	Clock   float64
	Bytes   float64
	Payload []byte
}

// putFrameHeader encodes f's header into buf[:frameHeaderSize].
func putFrameHeader(buf []byte, f *frame) {
	binary.BigEndian.PutUint16(buf[0:], frameMagic)
	buf[2] = byte(f.Type)
	binary.BigEndian.PutUint64(buf[3:], f.Seq)
	binary.BigEndian.PutUint64(buf[11:], math.Float64bits(f.Clock))
	binary.BigEndian.PutUint64(buf[19:], math.Float64bits(f.Bytes))
	binary.BigEndian.PutUint32(buf[27:], uint32(len(f.Payload)))
}

// writeFrame writes one frame to w.
func writeFrame(w io.Writer, f *frame) error {
	if len(f.Payload) > maxFramePayload {
		return fmt.Errorf("spmd: frame payload %d exceeds limit %d", len(f.Payload), maxFramePayload)
	}
	var hdr [frameHeaderSize]byte
	putFrameHeader(hdr[:], f)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame from r. The returned payload is freshly
// allocated and owned by the caller.
func readFrame(r io.Reader) (frame, error) {
	return readFrameBuf(r, func(n int) []byte { return make([]byte, n) })
}

// readFrameBuf reads one frame from r, obtaining the payload buffer from
// alloc (which must return a length-n slice). The pooled read path
// passes getFrameBuf; everything else allocates fresh.
func readFrameBuf(r io.Reader, alloc func(n int) []byte) (frame, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	if m := binary.BigEndian.Uint16(hdr[0:]); m != frameMagic {
		return frame{}, fmt.Errorf("spmd: bad frame magic %#04x (stream desync?)", m)
	}
	f := frame{
		Type:  frameType(hdr[2]),
		Seq:   binary.BigEndian.Uint64(hdr[3:]),
		Clock: math.Float64frombits(binary.BigEndian.Uint64(hdr[11:])),
		Bytes: math.Float64frombits(binary.BigEndian.Uint64(hdr[19:])),
	}
	if f.Type < frameHello || f.Type > frameAssign {
		return frame{}, fmt.Errorf("spmd: unknown frame type %d", f.Type)
	}
	plen := binary.BigEndian.Uint32(hdr[27:])
	if plen > maxFramePayload {
		return frame{}, fmt.Errorf("spmd: frame payload %d exceeds limit %d", plen, maxFramePayload)
	}
	if plen > 0 {
		f.Payload = alloc(int(plen))
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return frame{}, fmt.Errorf("spmd: short frame payload: %w", err)
		}
	}
	return f, nil
}
