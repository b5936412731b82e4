package serve

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dibella/internal/pipeline"
	"dibella/internal/walltime"
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
	{"queryRequest", sampleRequest.encode(nil), func(b []byte) ([]byte, int, error) {
		m, err := decodeQueryRequest(b)
		return m.encode(nil), len(m.Reads), err
	}},
	{"shutdown", wire.Bytes(nil, "alice"), func(b []byte) ([]byte, int, error) {
		tenant, err := decodeTenant(b)
		return wire.Bytes(nil, tenant), 0, err
	}},
	{"QueryResult", sampleResult.encode(nil), func(b []byte) ([]byte, int, error) {
		m, err := decodeQueryResult(b)
		return m.encode(nil), 0, err
	}},
	{"errorResponse", sampleError.encode(nil), func(b []byte) ([]byte, int, error) {
		m, err := decodeErrorResponse(b)
		return m.encode(nil), 0, err
	}},
	{"servOp", sampleOp.encode(nil), func(b []byte) ([]byte, int, error) {
		m, err := decodeServOp(b)
		return m.encode(nil), len(m.Batch), err
	}},
}

func TestMessagesRoundTrip(t *testing.T) {
	if got, err := decodeQueryRequest(sampleRequest.encode(nil)); err != nil || got.Tenant != "alice" || !sameReads(got.Reads, testReads) {
		t.Errorf("queryRequest: %+v, %v", got, err)
	}
	if got, err := decodeQueryRequest(queryRequest{}.encode(nil)); err != nil || got.Reads != nil {
		t.Errorf("empty queryRequest: %+v, %v", got, err)
	}
	if got, err := decodeTenant(wire.Bytes(nil, "bob")); err != nil || got != "bob" {
		t.Errorf("shutdown tenant: %q, %v", got, err)
	}
	if got, err := decodeQueryResult(sampleResult.encode(nil)); err != nil || !reflect.DeepEqual(got, sampleResult) {
		t.Errorf("QueryResult: %+v, %v", got, err)
	}
	if got, err := decodeErrorResponse(sampleError.encode(nil)); err != nil || got != sampleError {
		t.Errorf("errorResponse: %+v, %v", got, err)
	}
	for _, op := range []servOp{sampleOp, {Kind: opStop}, {Kind: opFail, Msg: "listen: in use"}} {
		got, err := decodeServOp(op.encode(nil))
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

// callCounter records each Write it is handed.
type callCounter struct {
	bytes.Buffer
	calls int
}

func (w *callCounter) Write(b []byte) (int, error) {
	w.calls++
	return w.Buffer.Write(b)
}

// TestFrontendFrameIsOneWrite: every frame the daemon and the client send —
// a reply, a refusal, a query, a shutdown — reaches the connection as one
// Write, a megabyte reply included, and reads back as the payload it holds.
func TestFrontendFrameIsOneWrite(t *testing.T) {
	bigPAF := QueryResult{PAF: bytes.Repeat([]byte("r\tq\n"), 1<<18), Records: 1 << 18}
	for _, c := range []struct {
		name    string
		typ     uint8
		frame   []byte
		payload []byte
	}{
		{"reply", framePAF, sampleResult.encode(newFrame(framePAF)), sampleResult.encode(nil)},
		{"large reply", framePAF, bigPAF.encode(newFrame(framePAF)), bigPAF.encode(nil)},
		{"refusal", frameErr, sampleError.encode(newFrame(frameErr)), sampleError.encode(nil)},
		{"query", frameQuery, sampleRequest.encode(newFrame(frameQuery)), sampleRequest.encode(nil)},
		{"shutdown", frameShutdown, wire.Bytes(newFrame(frameShutdown), "alice"), wire.Bytes(nil, "alice")},
	} {
		var w callCounter
		if err := writeFrontendFrame(&w, c.frame); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if w.calls != 1 {
			t.Errorf("%s: %d Write calls for one frame, want 1", c.name, w.calls)
		}
		typ, body, err := readFrontendFrame(&w)
		if err != nil || typ != c.typ || !bytes.Equal(body, c.payload) {
			t.Errorf("%s: read back type %d, %d bytes (want %d), %v", c.name, typ, len(body), len(c.payload), err)
		}
		if w.Len() != 0 {
			t.Errorf("%s: %d bytes past the frame", c.name, w.Len())
		}
	}
}

func TestFrontendFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := sampleRequest.encode(nil)
	if err := writeFrontendFrame(&buf, append(newFrame(frameQuery), payload...)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrontendFrame(&buf, newFrame(frameShutdown)); err != nil {
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
		cl, err := DialTimeout(addr, 0)
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

// TestStalledPayloadLosesItsConnection: a connection may sit idle between
// frames for as long as it likes, but a client that sends a header and part
// of the payload it announced, then stalls, is cut off once
// frontendPayloadTimeout passes, and the goroutine serving it exits.
func TestStalledPayloadLosesItsConnection(t *testing.T) {
	defer func(d time.Duration) { frontendPayloadTimeout = d }(frontendPayloadTimeout)
	frontendPayloadTimeout = 100 * time.Millisecond
	baseline := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &server{}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if conn, err := ln.Accept(); err == nil {
			s.handleConn(&frontConn{Conn: conn})
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ln.Close()

	// Idle for three timeouts before the first header: still connected.
	time.Sleep(3 * frontendPayloadTimeout)
	client.SetReadDeadline(walltime.Deadline(frontendPayloadTimeout))
	var ne net.Error
	if _, err := client.Read(make([]byte, 1)); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("an idle connection between frames was closed: read returned %v", err)
	}

	// A header claiming 1 MiB, one byte of it, then nothing.
	hdr := wire.U32(wire.U8(wire.U16(nil, frontendMagic), frameQuery), 1<<20)
	if _, err := client.Write(append(hdr, 0)); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() {
		client.SetReadDeadline(time.Time{})
		_, err := client.Read(make([]byte, 1))
		closed <- err
	}()
	select {
	case err := <-closed:
		if err == nil {
			t.Fatal("the daemon answered a frame it never received")
		}
	case <-time.After(20 * frontendPayloadTimeout):
		t.Fatalf("a stalled payload held its connection for %v, bound %v", 20*frontendPayloadTimeout, frontendPayloadTimeout)
	}
	<-served
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after the connection closed, %d before it opened", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMidFrameConnectionsAreNotEvicted: when every held connection is
// mid-frame, a connection past the cap is the one closed, and the held ones
// keep waiting for their payloads.
func TestMidFrameConnectionsAreNotEvicted(t *testing.T) {
	defer func(n int) { maxFrontendConns = n }(maxFrontendConns)
	maxFrontendConns = 2
	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &server{}
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		s.acceptLoop(ln)
	}()
	// A header claiming 1 MiB and one byte of it: mid-frame until the
	// payload timeout.
	hdr := append(wire.U32(wire.U8(wire.U16(nil, frontendMagic), frameQuery), 1<<20), 0)
	var held []net.Conn
	for range maxFrontendConns {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(hdr); err != nil {
			t.Fatal(err)
		}
		held = append(held, conn)
	}
	for i := 0; ; i++ {
		s.connMu.Lock()
		busy := len(s.conns) == maxFrontendConns
		for _, c := range s.conns {
			busy = busy && c.idleSince == 0
		}
		s.connMu.Unlock()
		if busy {
			break
		}
		if i == 200 {
			t.Fatal("the held connections never read their headers")
		}
		time.Sleep(5 * time.Millisecond)
	}
	extra, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	extra.SetReadDeadline(walltime.Deadline(5 * time.Second))
	var ne net.Error
	if _, err := extra.Read(make([]byte, 1)); err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Errorf("a connection past a cap of mid-frame ones was held: read returned %v", err)
	}
	for i, conn := range held {
		conn.SetReadDeadline(walltime.Deadline(50 * time.Millisecond))
		if _, err := conn.Read(make([]byte, 1)); !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("mid-frame connection %d was closed: read returned %v", i, err)
		}
	}
	ln.Close()
	<-accepted
	s.closeConns()
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after the connections closed, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTricklingPayloadLosesItsConnection is the slow-loris half of the
// payload bound: a client that keeps a frame's payload coming, one byte
// every 50 ms and so never idle for long, still loses its connection once
// frontendPayloadTimeout has passed since the header. The deadline is set
// once per frame, not refreshed per read. No reply frame is sent, the
// handler goroutine exits, and a well-formed client is served afterwards.
func TestTricklingPayloadLosesItsConnection(t *testing.T) {
	defer func(d time.Duration) { frontendPayloadTimeout = d }(frontendPayloadTimeout)
	frontendPayloadTimeout = 500 * time.Millisecond
	const drip = 50 * time.Millisecond
	indexed, query, _ := splitDataset(t, 5, 3)
	var paf []byte
	stats := runServeWorld(t, 2, indexed, serveTestConfig(), Options{
		Addr: "127.0.0.1:0", MaxBatches: 1, Tenants: []string{"alice"},
	}, func(addr string) {
		cl, err := DialTimeout(addr, 5*time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		// A refusal round trip: the good client's handler is up before
		// the baseline is counted.
		if err := cl.Shutdown("mallory"); !errors.Is(err, ErrBadTenant) {
			t.Errorf("wrong-tenant shutdown: got %v, want ErrBadTenant", err)
			return
		}
		baseline := runtime.NumGoroutine()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := conn.Write(wire.U32(wire.U8(wire.U16(nil, frontendMagic), frameQuery), 1<<20)); err != nil {
			t.Error(err)
			conn.Close()
			return
		}
		start := time.Now()
		stop, dripped := make(chan struct{}), make(chan int)
		go func() {
			n := 0
			defer func() { dripped <- n }()
			tick := time.NewTicker(drip)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if _, err := conn.Write([]byte{0}); err != nil {
						return
					}
					n++
				}
			}
		}()
		conn.SetReadDeadline(walltime.Deadline(4 * frontendPayloadTimeout))
		got, err := conn.Read(make([]byte, 1))
		held := time.Since(start)
		close(stop)
		bytesSent := <-dripped
		conn.Close()
		var ne net.Error
		switch {
		case got > 0:
			t.Errorf("the daemon answered a frame it never received")
		case errors.As(err, &ne) && ne.Timeout():
			t.Errorf("a trickling payload (%d bytes, one per %v) still held its connection after %v", bytesSent, drip, 4*frontendPayloadTimeout)
		case held > 2*frontendPayloadTimeout:
			t.Errorf("a trickling payload held its connection for %v, bound 2×%v", held, frontendPayloadTimeout)
		case bytesSent < 2:
			t.Errorf("only %d payload bytes trickled in before the close: not a trickle", bytesSent)
		}
		for i := 0; runtime.NumGoroutine() > baseline; i++ {
			if i == 100 {
				t.Errorf("%d goroutines after the trickling connection closed, %d before", runtime.NumGoroutine(), baseline)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		res, err := cl.Query("alice", query)
		if err != nil {
			t.Errorf("well-formed client after the trickle: %v", err)
			return
		}
		paf = res.PAF
	})
	if stats.Served != 1 || len(paf) == 0 {
		t.Errorf("served %d batches, %d PAF bytes; want 1 batch with rows", stats.Served, len(paf))
	}
}

// FuzzFrontend: bytes off the frontend socket never panic the frame reader
// or a message decoder, never buy more memory than they are long, and
// whatever decodes re-encodes to the same bytes.
func FuzzFrontend(f *testing.F) {
	for i, c := range messageCodecs {
		var buf bytes.Buffer
		writeFrontendFrame(&buf, append(newFrame(frameQuery), c.sample...))
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
		if err := writeFrontendFrame(&again, append(newFrame(typ), body...)); err != nil || !bytes.Equal(again.Bytes(), b[:again.Len()]) {
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
