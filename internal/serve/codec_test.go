package serve

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"runtime"
	"testing"

	"dibella/internal/pipeline"
	"dibella/internal/wire"
)

var (
	testReads = []pipeline.QueryRead{
		{Name: "q_1", Seq: []byte("ACGTACGTAC")},
		{Name: "", Seq: []byte("G")},
		{Name: "q_empty"},
	}
	sampleRequest = queryRequest{Tenant: "alice", Reads: testReads}
	sampleResult  = QueryResult{PAF: []byte("a\tb\n"), Records: 1, VirtualSeconds: 0.5, QueueWaitSecs: 1e-3}
	sampleError   = errorResponse{Code: "queue-full", Msg: "4 in flight"}
	sampleOp      = servOp{Kind: opQuery, Batch: testReads}
)

// messageCodecs is every frontend message and the op broadcast as (sample
// encoding, decode and re-encode): what the truncation and fuzz checks run
// over. elems is the number of reads the decoder sized a slice for.
var messageCodecs = []struct {
	name   string
	sample []byte
	recode func(b []byte) (back []byte, elems int, err error)
}{
	{"queryRequest", sampleRequest.encode(), func(b []byte) ([]byte, int, error) {
		m, err := decodeQueryRequest(b)
		return m.encode(), len(m.Reads), err
	}},
	{"shutdown", wire.Bytes(nil, "alice"), func(b []byte) ([]byte, int, error) {
		tenant, err := decodeTenant(b)
		return wire.Bytes(nil, tenant), 0, err
	}},
	{"QueryResult", sampleResult.encode(), func(b []byte) ([]byte, int, error) {
		m, err := decodeQueryResult(b)
		return m.encode(), 0, err
	}},
	{"errorResponse", sampleError.encode(), func(b []byte) ([]byte, int, error) {
		m, err := decodeErrorResponse(b)
		return m.encode(), 0, err
	}},
	{"servOp", sampleOp.encode(), func(b []byte) ([]byte, int, error) {
		m, err := decodeServOp(b)
		return m.encode(), len(m.Batch), err
	}},
}

func TestMessagesRoundTrip(t *testing.T) {
	if got, err := decodeQueryRequest(sampleRequest.encode()); err != nil || got.Tenant != "alice" || !sameReads(got.Reads, testReads) {
		t.Errorf("queryRequest: %+v, %v", got, err)
	}
	if got, err := decodeQueryRequest(queryRequest{}.encode()); err != nil || got.Reads != nil {
		t.Errorf("empty queryRequest: %+v, %v", got, err)
	}
	if got, err := decodeTenant(wire.Bytes(nil, "bob")); err != nil || got != "bob" {
		t.Errorf("shutdown tenant: %q, %v", got, err)
	}
	if got, err := decodeQueryResult(sampleResult.encode()); err != nil || !reflect.DeepEqual(got, sampleResult) {
		t.Errorf("QueryResult: %+v, %v", got, err)
	}
	if got, err := decodeErrorResponse(sampleError.encode()); err != nil || got != sampleError {
		t.Errorf("errorResponse: %+v, %v", got, err)
	}
	for _, op := range []servOp{sampleOp, {Kind: opStop}, {Kind: opFail, Msg: "listen: in use"}} {
		got, err := decodeServOp(op.encode())
		if err != nil || got.Kind != op.Kind || got.Msg != op.Msg || !sameReads(got.Batch, op.Batch) {
			t.Errorf("servOp %+v: %+v, %v", op, got, err)
		}
	}
}

func sameReads(a, b []pipeline.QueryRead) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !bytes.Equal(a[i].Seq, b[i].Seq) {
			return false
		}
	}
	return true
}

func TestMessagesRejectCorruption(t *testing.T) {
	for _, c := range messageCodecs {
		for cut := 0; cut < len(c.sample); cut++ {
			if _, _, err := c.recode(c.sample[:cut]); !errors.Is(err, wire.ErrTruncated) {
				t.Errorf("%s cut to %d bytes: err = %v, want truncated", c.name, cut, err)
			}
		}
		if _, _, err := c.recode(append(append([]byte(nil), c.sample...), 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", c.name)
		}
	}
	// A read count the payload cannot hold is refused before it sizes a slice.
	if _, err := decodeQueryRequest(wire.U32(wire.Bytes(nil, "t"), 1<<32-1)); !errors.Is(err, wire.ErrTruncated) {
		t.Errorf("2^32-1 reads declared: %v", err)
	}
}

func TestFrontendFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := sampleRequest.encode()
	if err := writeFrontendFrame(&buf, frameQuery, payload); err != nil {
		t.Fatal(err)
	}
	if err := writeFrontendFrame(&buf, frameShutdown, nil); err != nil {
		t.Fatal(err)
	}
	stream := append([]byte(nil), buf.Bytes()...)
	typ, body, err := readFrontendFrame(&buf)
	if err != nil || typ != frameQuery || !bytes.Equal(body, payload) {
		t.Fatalf("first frame: type %d, %d bytes, %v", typ, len(body), err)
	}
	typ, body, err = readFrontendFrame(&buf)
	if err != nil || typ != frameShutdown || len(body) != 0 {
		t.Fatalf("empty frame: type %d, %d bytes, %v", typ, len(body), err)
	}
	for cut := 1; cut < frontendHeaderLen+len(payload); cut++ {
		if _, _, err := readFrontendFrame(bytes.NewReader(stream[:cut])); err == nil {
			t.Errorf("frame cut to %d bytes accepted", cut)
		}
	}
	over := wire.U32(stream[:3:3], 1<<32-1)
	if _, _, err := readFrontendFrame(bytes.NewReader(over)); err == nil {
		t.Error("4 GiB payload claim accepted")
	}
}

// gobEraQuery is what a gob-era dibella-query opens with: the 0xD1BF
// magic, type, length, then a gob stream.
func gobEraQuery() []byte {
	frame := wire.U32(wire.U8(wire.U16(nil, 0xD1BF), frameQuery), 40)
	return append(frame, bytes.Repeat([]byte{0x2b, 0xff, 0x81, 0x03}, 10)...)
}

// TestGobEraClientIsRefusedByName: the daemon answers a gob-era client
// with the bad-version error frame, which this build's client surfaces as
// the ErrBadVersion sentinel, and keeps serving.
func TestGobEraClientIsRefusedByName(t *testing.T) {
	indexed, _, _ := splitDataset(t, 5, 3)
	var refusal, shutdownErr error
	runServeWorld(t, 2, indexed[:8], serveTestConfig(), Options{Addr: "127.0.0.1:0"}, func(addr string) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			refusal = err
			return
		}
		defer conn.Close()
		if _, err := conn.Write(gobEraQuery()); err != nil {
			refusal = err
			return
		}
		typ, body, err := readFrontendFrame(conn)
		if err == nil && typ == frameErr {
			var e errorResponse
			if e, err = decodeErrorResponse(body); err == nil {
				err = codeErr(e.Code, e.Msg)
			}
		}
		refusal = err
		cl, err := Dial(addr)
		if err != nil {
			shutdownErr = err
			return
		}
		defer cl.Close()
		shutdownErr = cl.Shutdown("")
	})
	if !errors.Is(refusal, ErrBadVersion) {
		t.Errorf("gob-era client got %v, want ErrBadVersion", refusal)
	}
	if code, ok := RejectionCode(refusal); !ok || code != "bad-version" {
		t.Errorf("RejectionCode = %q, %v", code, ok)
	}
	if shutdownErr != nil {
		t.Errorf("daemon stopped serving after the refusal: %v", shutdownErr)
	}
}

// TestHeaderOnlyClientHoldsNoPayloadMemory: a client that announces the
// largest legal payload and then stalls costs the daemon a header, not
// 64 MiB. net.Pipe makes the stall observable: a Write returns once the
// reader has consumed it, so after the second Write the reader is past its
// buffer set-up and parked on the next byte.
func TestHeaderOnlyClientHoldsNoPayloadMemory(t *testing.T) {
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() {
		_, _, err := readFrontendFrame(server)
		done <- err
	}()
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	hdr := wire.U32(wire.U8(wire.U16(nil, frontendMagic), frameQuery), maxFrontendPayload)
	if _, err := client.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	if grown := int64(live()) - int64(before); grown > 1<<20 {
		t.Errorf("a stalled header claiming %d bytes pinned %d bytes of heap", maxFrontendPayload, grown)
	}
	client.Close()
	if err := <-done; err == nil {
		t.Error("frame with 1 of 64 Mi payload bytes accepted")
	}
}

// FuzzFrontend: bytes off the frontend socket never panic the frame reader
// or a message decoder, never buy more memory than they are long, and
// whatever decodes re-encodes to the same bytes.
func FuzzFrontend(f *testing.F) {
	for i, c := range messageCodecs {
		var buf bytes.Buffer
		writeFrontendFrame(&buf, frameQuery, c.sample)
		f.Add(uint8(i), buf.Bytes())
	}
	f.Add(uint8(0), gobEraQuery())
	f.Fuzz(func(t *testing.T, which uint8, b []byte) {
		typ, body, err := readFrontendFrame(bytes.NewReader(b))
		if err != nil {
			return
		}
		if len(body) > len(b)-frontendHeaderLen {
			t.Fatalf("%d payload bytes from a %d-byte input", len(body), len(b))
		}
		var again bytes.Buffer
		if err := writeFrontendFrame(&again, typ, body); err != nil || !bytes.Equal(again.Bytes(), b[:again.Len()]) {
			t.Fatalf("frame re-encoding differs (%v): %x -> %x", err, b, again.Bytes())
		}
		c := messageCodecs[int(which)%len(messageCodecs)]
		back, elems, err := c.recode(body)
		if err != nil {
			return
		}
		if elems > len(body) {
			t.Fatalf("%s: %d reads from %d bytes", c.name, elems, len(body))
		}
		if !bytes.Equal(back, body) {
			t.Fatalf("%s: re-encoding differs: %x -> %x", c.name, body, back)
		}
	})
}
