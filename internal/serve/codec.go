package serve

import (
	"bytes"
	"fmt"
	"io"

	"dibella/internal/pipeline"
	"dibella/internal/wire"
)

// Frontend wire format, following the spmd framing idiom: a fixed header
// (magic, type, payload length) ahead of a payload written with
// internal/wire. The frontend protocol is independent of the SPMD
// transport — a mem-backed world serves the same frames a tcp-backed one
// does.
const (
	// frontendMagic opens every frame. Its high byte brands a dibella
	// frontend, its low byte is the protocol version: 0xBF framed gob
	// payloads, 0xC0 a QueryResult that named a home rank, 0xC1 frames the
	// messages below. A peer of another version
	// is refused by name (ErrBadVersion) at its first header, and because
	// the whole magic differs an older build drops this one's frames at
	// once instead of waiting on a length it misreads.
	frontendMagic uint16 = 0xD1C1

	// maxFrontendPayload bounds one frame; a request larger than this is
	// malformed, not merely over the admission limit.
	maxFrontendPayload = 64 << 20
)

// Frontend frame types.
const (
	frameQuery    uint8 = 1 // client -> server: queryRequest
	frameShutdown uint8 = 2 // client -> server: the tenant, as one wire string
	framePAF      uint8 = 3 // server -> client: QueryResult
	frameErr      uint8 = 4 // server -> client: errorResponse
)

const frontendHeaderLen = 2 + 1 + 4

// queryRequest is one client query batch.
type queryRequest struct {
	Tenant string
	Reads  []pipeline.QueryRead
}

// errorResponse is a structured rejection or failure.
type errorResponse struct {
	Code string
	Msg  string
}

// readsLen, appendReads and readReads are the read list of a queryRequest
// and of the servOp that broadcasts it: a count, then each read's name and
// sequence. Decoded sequences alias the buffer.
func readsLen(reads []pipeline.QueryRead) int {
	n := 4
	for _, q := range reads {
		n += 8 + len(q.Name) + len(q.Seq)
	}
	return n
}

func appendReads(b []byte, reads []pipeline.QueryRead) []byte {
	b = wire.U32(b, uint32(len(reads)))
	for _, q := range reads {
		b = wire.Bytes(wire.Bytes(b, q.Name), q.Seq)
	}
	return b
}

func readReads(r *wire.Reader) []pipeline.QueryRead {
	// A read is at least its two length fields.
	n := r.Count(uint64(r.U32()), 8)
	if n == 0 {
		return nil
	}
	reads := make([]pipeline.QueryRead, n)
	for i := range reads {
		reads[i] = pipeline.QueryRead{Name: r.String(), Seq: r.Bytes()}
	}
	return reads
}

func (q queryRequest) encode() []byte {
	b := make([]byte, 0, 4+len(q.Tenant)+readsLen(q.Reads))
	return appendReads(wire.Bytes(b, q.Tenant), q.Reads)
}

func decodeQueryRequest(b []byte) (queryRequest, error) {
	r := wire.NewReader(b)
	q := queryRequest{Tenant: r.String(), Reads: readReads(r)}
	return q, r.Finish()
}

func decodeTenant(b []byte) (string, error) {
	r := wire.NewReader(b)
	tenant := r.String()
	return tenant, r.Finish()
}

func (q QueryResult) encode() []byte {
	b := wire.Bytes(make([]byte, 0, 24+len(q.PAF)), q.PAF)
	b = wire.U32(b, uint32(q.Records))
	return wire.F64(wire.F64(b, q.VirtualSeconds), q.QueueWaitSecs)
}

func decodeQueryResult(b []byte) (QueryResult, error) {
	r := wire.NewReader(b)
	q := QueryResult{
		PAF: r.Bytes(), Records: int(r.U32()),
		VirtualSeconds: r.F64(), QueueWaitSecs: r.F64(),
	}
	return q, r.Finish()
}

func (e errorResponse) encode() []byte { return wire.Bytes(wire.Bytes(nil, e.Code), e.Msg) }

func decodeErrorResponse(b []byte) (errorResponse, error) {
	r := wire.NewReader(b)
	e := errorResponse{Code: r.String(), Msg: r.String()}
	return e, r.Finish()
}

func (op servOp) encode() []byte {
	b := make([]byte, 0, 5+len(op.Msg)+readsLen(op.Batch))
	return appendReads(wire.Bytes(wire.U8(b, uint8(op.Kind)), op.Msg), op.Batch)
}

func decodeServOp(b []byte) (servOp, error) {
	r := wire.NewReader(b)
	op := servOp{Kind: int(r.U8()), Msg: r.String(), Batch: readReads(r)}
	return op, r.Finish()
}

// writeFrontendFrame writes one frame.
func writeFrontendFrame(w io.Writer, typ uint8, payload []byte) error {
	if len(payload) > maxFrontendPayload {
		return fmt.Errorf("serve: frame payload %d exceeds limit %d", len(payload), maxFrontendPayload)
	}
	hdr := wire.U8(wire.U16(make([]byte, 0, frontendHeaderLen), frontendMagic), typ)
	if _, err := w.Write(wire.U32(hdr, uint32(len(payload)))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrontendFrame reads one frame and returns its type and payload.
// io.EOF before any header byte means a clean close; a peer speaking
// another protocol version is ErrBadVersion. The payload buffer grows with
// the bytes that arrive, never from the header's claim alone: a client that
// announces maxFrontendPayload and then stalls holds a header's worth of
// memory.
func readFrontendFrame(r io.Reader) (uint8, []byte, error) {
	var hdr [frontendHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("serve: truncated frame header")
		}
		return 0, nil, err
	}
	h := wire.NewReader(hdr[:])
	switch m := h.U16(); {
	case m == frontendMagic:
	case m>>8 == frontendMagic>>8:
		return 0, nil, fmt.Errorf("%w: peer framed %#04x, this binary frames %#04x", ErrBadVersion, m, frontendMagic)
	default:
		return 0, nil, fmt.Errorf("serve: bad frame magic %#04x", m)
	}
	typ, plen := h.U8(), int(h.U32())
	if plen > maxFrontendPayload {
		return 0, nil, fmt.Errorf("serve: frame payload %d exceeds limit %d", plen, maxFrontendPayload)
	}
	var body bytes.Buffer
	// MinRead spare bytes let ReadFrom see EOF without growing again.
	body.Grow(min(plen, 64<<10) + bytes.MinRead)
	if _, err := body.ReadFrom(io.LimitReader(r, int64(plen))); err != nil {
		return 0, nil, fmt.Errorf("serve: reading frame payload: %w", err)
	}
	if body.Len() < plen {
		return 0, nil, fmt.Errorf("serve: truncated frame payload (%d of %d bytes)", body.Len(), plen)
	}
	return typ, body.Bytes(), nil
}
