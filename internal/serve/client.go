package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"dibella/internal/pipeline"
	"dibella/internal/walltime"
	"dibella/internal/wire"
)

// Client speaks the frontend protocol to a running daemon. One client
// drives one connection; requests on it are answered in order.
type Client struct {
	conn    net.Conn
	bw      *bufio.Writer
	br      *bufio.Reader
	timeout time.Duration
}

// DialTimeout connects to a daemon's frontend, bounding the connection
// attempt and — via SetTimeout — every subsequent request/response
// round trip. timeout <= 0 means no bound.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	var conn net.Conn
	var err error
	if timeout > 0 {
		conn, err = net.DialTimeout("tcp", addr, timeout)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	cl := &Client{conn: conn, bw: bufio.NewWriter(conn), br: bufio.NewReader(conn)}
	cl.SetTimeout(timeout)
	return cl, nil
}

// SetTimeout bounds each subsequent request/response round trip (write
// through reply read). 0 removes the bound. A timeout surfaces as the
// connection's deadline error — a transport failure, deliberately
// distinct from the daemon's typed admission rejections.
func (cl *Client) SetTimeout(d time.Duration) { cl.timeout = d }

// deadline arms the per-request connection deadline, if one is set.
func (cl *Client) deadline() {
	if cl.timeout > 0 {
		cl.conn.SetDeadline(walltime.Deadline(cl.timeout))
	}
}

// QueryResult is one served batch's answer.
type QueryResult struct {
	PAF            []byte  // rendered PAF lines
	Records        int     // alignment records
	VirtualSeconds float64 // modeled service time on the daemon's clock
	QueueWaitSecs  float64 // wall seconds the batch waited for admission-order service
}

// roundTrip sends one frame and reads the daemon's answer to it. An error
// frame comes back as the error it carries.
func (cl *Client) roundTrip(frame []byte) (uint8, []byte, error) {
	cl.deadline()
	if err := writeFrontendFrame(cl.bw, frame); err != nil {
		return 0, nil, err
	}
	if err := cl.bw.Flush(); err != nil {
		return 0, nil, err
	}
	typ, body, err := readFrontendFrame(cl.br)
	if err == nil && typ == frameErr {
		var e errorResponse
		if e, err = decodeErrorResponse(body); err == nil {
			err = codeErr(e.Code, e.Msg)
		}
	}
	return typ, body, err
}

// Query sends one batch and waits for its answer. Admission rejections
// come back as errors matching the package sentinels under errors.Is
// (ErrQueueFull, ErrBadTenant, ErrTooLarge, ErrEmptyBatch,
// ErrShuttingDown); a daemon from another build answers ErrBadVersion.
func (cl *Client) Query(tenant string, reads []pipeline.QueryRead) (*QueryResult, error) {
	typ, body, err := cl.roundTrip(queryRequest{Tenant: tenant, Reads: reads}.encode(newFrame(frameQuery)))
	if err != nil {
		return nil, err
	}
	if typ != framePAF {
		return nil, fmt.Errorf("serve: unexpected frame type %d", typ)
	}
	res, err := decodeQueryResult(body)
	if err != nil {
		return nil, fmt.Errorf("serve: malformed reply: %w", err)
	}
	return &res, nil
}

// Shutdown asks the daemon to stop admitting work and exit once the
// admitted queue drains.
func (cl *Client) Shutdown(tenant string) error {
	typ, _, err := cl.roundTrip(wire.Bytes(newFrame(frameShutdown), tenant))
	if errors.Is(err, ErrShuttingDown) {
		return nil // the expected acknowledgement
	}
	if err != nil {
		return err
	}
	return fmt.Errorf("serve: unexpected frame type %d acknowledging shutdown", typ)
}

// Close closes the connection.
func (cl *Client) Close() error { return cl.conn.Close() }
