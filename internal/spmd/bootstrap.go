package spmd

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Who a process is in a world is decided apart from how bytes move: a
// Bootstrap answers "which rank am I, how big is the world, where is its
// rendezvous" with a JoinBootstrap, and Connect turns that answer into a
// live Transport. Three bootstraps cover the launch modes:
//
//   - HostListBootstrap (hostlist.go): the launcher, for one host or many.
//     It becomes rank 0, binds the rendezvous, and forks what runs on this
//     machine.
//   - HostJoinBootstrap (hostlist.go): a host agent (`dibella -join`). It
//     asks the rendezvous for its host's rank range and forks that.
//   - JoinBootstrap: one rank whose placement is already known — every
//     forked worker, and every process a scheduler (SLURM array jobs, k8s
//     indexed jobs, ...) places by exporting the DIBELLA_* contract.
//
// The conversation they hold on the rendezvous port is told in tcp.go.
// Formation moves coordinates only, never application payload: whatever an
// application's ranks must agree on before running (cmd/dibella's flags)
// travels over the formed Transport, the same way under every bootstrap.

// Bootstrap forms one process's view of an SPMD world. Form may spawn
// helper processes (workers, host agents); Finish reaps them after the
// run, folding their exit status into the run's error. Finish must be
// called exactly once, after the transport obtained from Connect is done
// (or after Connect fails).
type Bootstrap interface {
	Form() (*JoinBootstrap, error)
	Finish(runErr error) error
}

// JoinBootstrap is one process's placement in a world: what every
// Bootstrap's Form returns and what the TCP transport is dialed from. A
// placement that is already known is its own bootstrap.
type JoinBootstrap struct {
	Rank int // this process's rank, in [0, Size)
	Size int // world size P

	// Rendezvous is rank 0's listen address (host:port), the one address of
	// a world. Rank 0 may leave it empty when Listener is set.
	Rendezvous string

	// Listener, on rank 0, is the rendezvous socket already bound: a
	// launcher binds port 0, hands the resolved address to what it forks
	// and the socket to its own rank 0, so no child can beat the bind.
	Listener net.Listener

	// ListenAddr overrides where a rank > 0 binds its mesh listener. Unset,
	// a rank that reaches the rendezvous over loopback binds "127.0.0.1:0"
	// and any other ":0", advertised to peers under the interface that
	// faces the rendezvous.
	ListenAddr string

	// Timeout bounds world formation: dials, handshakes, placement
	// requests, and the wait for slower ranks to arrive (default 30s).
	// Collectives themselves never time out — BSP ranks legitimately wait
	// on the slowest peer.
	Timeout time.Duration

	// hosts, on a launcher's rank 0, is the table placement requests are
	// answered from; without one they are refused.
	hosts *hostTable
}

// Form returns the placement itself.
func (b *JoinBootstrap) Form() (*JoinBootstrap, error) { return b, nil }

// Finish is a no-op: a placed rank spawned nothing.
func (b *JoinBootstrap) Finish(runErr error) error { return runErr }

// formDeadline turns a formation timeout (default 30s) into a deadline.
func formDeadline(timeout time.Duration) time.Time {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return time.Now().Add(timeout)
}

// Connect forms this process's placement via the bootstrap and dials the
// TCP transport for it. On failure the pre-bound rendezvous listener (if
// any) is closed, so aborted launches do not leak sockets; the caller still
// owes the bootstrap a Finish.
func Connect(b Bootstrap) (Transport, error) {
	p, err := b.Form()
	if err != nil {
		return nil, err
	}
	tr, err := dialTCP(p)
	if err != nil && p.Listener != nil {
		p.Listener.Close()
	}
	return tr, err
}

// The DIBELLA_* env contract: how a parent (launcher, host agent, or a
// scheduler's job script) places a process in a world. Consumed by
// BootstrapFromEnv.
const (
	// EnvRendezvous is rank 0's rendezvous address. With EnvRank it places
	// one rank; alone it tells the process to ask that address for a
	// placement, as `-join` does.
	EnvRendezvous = "DIBELLA_RENDEZVOUS"
	// EnvRank is this process's rank (requires EnvWorldSize, EnvRendezvous).
	EnvRank = "DIBELLA_RANK"
	// EnvWorldSize is the world size P.
	EnvWorldSize = "DIBELLA_WORLD_SIZE"
	// EnvListenAddr optionally overrides the mesh listener bind address
	// (JoinBootstrap.ListenAddr).
	EnvListenAddr = "DIBELLA_LISTEN_ADDR"
)

// BootstrapFromEnv reads the DIBELLA_* env contract: a JoinBootstrap when
// EnvRank is set, a HostJoinBootstrap when only EnvRendezvous is, nil when
// neither is (this process was started by hand). timeout bounds formation
// either way; a set-but-malformed contract is an error.
func BootstrapFromEnv(timeout time.Duration) (Bootstrap, error) {
	rendezvous := os.Getenv(EnvRendezvous)
	_, placed := os.LookupEnv(EnvRank)
	if !placed && rendezvous == "" {
		return nil, nil
	}
	if !placed {
		return &HostJoinBootstrap{Addr: rendezvous, Timeout: timeout}, nil
	}
	rank, err := envInt(EnvRank)
	if err != nil {
		return nil, err
	}
	size, err := envInt(EnvWorldSize)
	if err != nil {
		return nil, err
	}
	if rendezvous == "" {
		return nil, fmt.Errorf("spmd: %s is set but %s is empty", EnvRank, EnvRendezvous)
	}
	return &JoinBootstrap{
		Rank: rank, Size: size, Rendezvous: rendezvous,
		ListenAddr: os.Getenv(EnvListenAddr), Timeout: timeout,
	}, nil
}

func envInt(name string) (int, error) {
	s := os.Getenv(name)
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("spmd: %s=%q: %v", name, s, err)
	}
	return v, nil
}

// worker is one forked helper process.
type worker struct {
	cmd   *exec.Cmd
	pw    *prefixWriter
	label string
}

// forkRankWorkers forks ranks [start,end) of a size-rank world as
// env-contract workers of the current binary. On a fork failure the
// already-started workers are reaped.
func forkRankWorkers(start, end, size int, rendezvous string, out io.Writer) ([]worker, error) {
	var workers []worker
	for r := start; r < end; r++ {
		w, err := forkWorker(fmt.Sprintf("rank %d", r), out, rendezvous,
			EnvRank+"="+strconv.Itoa(r), EnvWorldSize+"="+strconv.Itoa(size))
		if err != nil {
			reapWorkers(workers)
			return nil, err
		}
		workers = append(workers, w)
	}
	return workers, nil
}

// forkWorker starts one copy of the current binary (same arguments) placed
// through the env contract: the parent's environment scrubbed of DIBELLA_*
// (an agent's own coordinates must not leak into its children) plus the
// rendezvous and the child's coords; the formation deadline comes with the
// command line. Both output streams are prefixed "[label] " so interleaved
// logs stay attributable.
func forkWorker(label string, out io.Writer, rendezvous string, coords ...string) (worker, error) {
	exe, err := os.Executable()
	if err != nil {
		return worker{}, err
	}
	cmd := exec.Command(exe, os.Args[1:]...)
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "DIBELLA_") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(append(cmd.Env, EnvRendezvous+"="+rendezvous), coords...)
	pw := newPrefixWriter(out, "["+label+"] ")
	// Workers never own the launcher's stdout (the PAF stream); both
	// their streams are demoted to prefixed log output. exec.Cmd copies
	// through a pipe and Wait joins the copier, so no bytes are lost.
	cmd.Stdout = pw
	cmd.Stderr = pw
	if err := cmd.Start(); err != nil {
		return worker{}, fmt.Errorf("spmd: starting %s: %w", label, err)
	}
	return worker{cmd: cmd, pw: pw, label: label}, nil
}

// reapWorkers kills and waits out already-started workers after a launch
// failure so none linger.
func reapWorkers(workers []worker) {
	for _, w := range workers {
		w.cmd.Process.Kill()
		w.cmd.Wait()
		w.pw.Close()
	}
}

// waitWorkers waits for every worker, merging exit failures into runErr
// (preferring a worker's concrete failure over secondary ErrAborted noise).
func waitWorkers(workers []worker, runErr error) error {
	for _, w := range workers {
		err := w.cmd.Wait()
		w.pw.Close()
		if err != nil && (runErr == nil || errors.Is(runErr, ErrAborted)) {
			runErr = fmt.Errorf("%s: %w", w.label, err)
		}
	}
	return runErr
}

// prefixWriter prefixes every output line with a fixed tag ("[rank 3] "),
// so the merged stderr of a multi-process world stays attributable. It
// buffers partial lines across Write calls and emits only whole lines
// (plus the final fragment on Close), keeping concurrent writers from
// interleaving mid-line.
type prefixWriter struct {
	mu     sync.Mutex
	out    io.Writer
	prefix []byte
	buf    []byte // pending partial line
}

func newPrefixWriter(out io.Writer, prefix string) *prefixWriter {
	return &prefixWriter{out: out, prefix: []byte(prefix)}
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(b)
	for {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			p.buf = append(p.buf, b...)
			return n, nil
		}
		line := make([]byte, 0, len(p.prefix)+len(p.buf)+i+1)
		line = append(line, p.prefix...)
		line = append(line, p.buf...)
		line = append(line, b[:i+1]...)
		p.buf = p.buf[:0]
		if _, err := p.out.Write(line); err != nil {
			return n - len(b) + i + 1, err
		}
		b = b[i+1:]
	}
}

// Close flushes a trailing unterminated line, if any.
func (p *prefixWriter) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.buf) == 0 {
		return nil
	}
	line := append(append(append([]byte(nil), p.prefix...), p.buf...), '\n')
	p.buf = p.buf[:0]
	_, err := p.out.Write(line)
	return err
}
