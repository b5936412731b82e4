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

// World formation is split from byte transport (in the spirit of go-p2p's
// separation of addressing from swarms): a Bootstrap answers "who am I,
// how big is the world, and where is the rendezvous", and Connect turns
// that answer into a live Transport. Three bootstraps cover the launch
// modes:
//
//   - ForkBootstrap: single-host worlds. The calling process becomes rank
//     0, binds a loopback rendezvous, and forks Size-1 copies of its own
//     binary; children pick up their coordinates from DIBELLA_* env vars
//     (JoinBootstrapFromEnv), not from CLI flags.
//   - HostListBootstrap / HostJoinBootstrap (hostlist.go): multi-host
//     worlds. The launcher assigns contiguous rank ranges per host and
//     serves a join protocol; agents on other machines enter with
//     HostJoinBootstrap (the `dibella -join` mode) and fork their local
//     share of ranks.
//   - JoinBootstrap: one explicitly-placed rank. Schedulers (SLURM array
//     jobs, k8s indexed jobs, ...) that already know every process's rank
//     export the DIBELLA_* env contract themselves.
//
// Formation moves coordinates only, never application payload: whatever an
// application's ranks must agree on before running (cmd/dibella's flags)
// travels over the formed Transport, the same way under every bootstrap.

// World is a Bootstrap's answer: one process's coordinates in a formed
// (or forming) world, ready to hand to the TCP transport.
type World struct {
	Rank int // this process's rank, in [0, Size)
	Size int // world size P

	// Rendezvous is rank 0's listen address. Empty only on rank 0 when
	// Listener is set.
	Rendezvous string

	// Listener is the pre-bound rendezvous socket (rank 0 launchers bind
	// before forking so children cannot beat them to the accept loop).
	Listener net.Listener

	// ListenAddr is where ranks > 0 bind their mesh listener (default
	// "127.0.0.1:0"; multi-host worlds use ":0" and advertise the
	// interface facing the rendezvous).
	ListenAddr string

	// FormTimeout bounds world formation (default 30s).
	FormTimeout time.Duration
}

// Bootstrap forms one process's view of an SPMD world. Form may spawn
// helper processes (workers, join agents); Finish reaps them after the
// run, folding their exit status into the run's error. Finish must be
// called exactly once, after the transport obtained from Connect is done
// (or after Connect fails).
type Bootstrap interface {
	Form() (World, error)
	Finish(runErr error) error
}

// Connect forms this process's world coordinates via the bootstrap and
// dials the TCP transport for them. On failure the world's pre-bound
// rendezvous listener (if any) is closed, so aborted launches do not leak
// sockets; the caller still owes the bootstrap a Finish.
func Connect(b Bootstrap) (Transport, error) {
	w, err := b.Form()
	if err != nil {
		return nil, err
	}
	tr, err := dialTCP(tcpConfig{
		Rank:       w.Rank,
		Size:       w.Size,
		Rendezvous: w.Rendezvous,
		Listener:   w.Listener,
		ListenAddr: w.ListenAddr,
		Timeout:    w.FormTimeout,
	})
	if err != nil {
		if w.Listener != nil {
			w.Listener.Close()
		}
		return nil, err
	}
	return tr, nil
}

// The DIBELLA_* env contract: how a parent (launcher, join agent, or a
// scheduler's job script) places one worker process in a world. Consumed
// by JoinBootstrapFromEnv.
const (
	// EnvRank is this worker's rank (required; presence selects worker mode).
	EnvRank = "DIBELLA_RANK"
	// EnvWorldSize is the world size P (required with EnvRank).
	EnvWorldSize = "DIBELLA_WORLD_SIZE"
	// EnvRendezvous is rank 0's rendezvous address (required with EnvRank).
	EnvRendezvous = "DIBELLA_RENDEZVOUS"
	// EnvListenAddr optionally overrides the mesh listener bind address
	// (default "127.0.0.1:0"; multi-host launchers set ":0").
	EnvListenAddr = "DIBELLA_LISTEN_ADDR"
	// EnvFormTimeout optionally bounds world formation (Go duration).
	EnvFormTimeout = "DIBELLA_FORM_TIMEOUT"
	// EnvJoin carries a host-list launcher's join address to the simulated
	// local agents it spawns (the fork-level twin of the -join flag).
	EnvJoin = "DIBELLA_JOIN"
	// EnvHostIndex tells a spawned join agent which host-list entry it
	// stands in for, so rank-range assignment is deterministic.
	EnvHostIndex = "DIBELLA_HOST_INDEX"
)

// JoinBootstrap places one explicitly-coordinated rank: everything is
// already known, Form just validates and passes it through. It is the
// scheduler-integration entry point (SLURM et al. export the placement)
// and the worker-side half of ForkBootstrap.
type JoinBootstrap struct {
	Rank       int
	Size       int
	Rendezvous string
	Listener   net.Listener // optional pre-bound rendezvous (rank 0 only)
	ListenAddr string
	Timeout    time.Duration
}

// Form validates the explicit coordinates.
func (b *JoinBootstrap) Form() (World, error) {
	if b.Size <= 0 {
		return World{}, fmt.Errorf("spmd: world size %d must be positive", b.Size)
	}
	if b.Rank < 0 || b.Rank >= b.Size {
		return World{}, fmt.Errorf("spmd: rank %d out of range [0,%d)", b.Rank, b.Size)
	}
	if b.Rendezvous == "" && !(b.Rank == 0 && b.Listener != nil) {
		return World{}, errors.New("spmd: JoinBootstrap needs a rendezvous address")
	}
	return World{
		Rank: b.Rank, Size: b.Size,
		Rendezvous: b.Rendezvous, Listener: b.Listener,
		ListenAddr: b.ListenAddr, FormTimeout: b.Timeout,
	}, nil
}

// Finish is a no-op: a joined rank spawned nothing.
func (b *JoinBootstrap) Finish(runErr error) error { return runErr }

// JoinBootstrapFromEnv builds a JoinBootstrap from the DIBELLA_* env
// contract. ok is false when EnvRank is unset (this process was not
// launched as a worker); a set-but-malformed contract is an error.
func JoinBootstrapFromEnv() (b *JoinBootstrap, ok bool, err error) {
	rankStr, ok := os.LookupEnv(EnvRank)
	if !ok {
		return nil, false, nil
	}
	rank, err := strconv.Atoi(rankStr)
	if err != nil {
		return nil, true, fmt.Errorf("spmd: %s=%q: %v", EnvRank, rankStr, err)
	}
	sizeStr := os.Getenv(EnvWorldSize)
	size, err := strconv.Atoi(sizeStr)
	if err != nil {
		return nil, true, fmt.Errorf("spmd: %s=%q: %v", EnvWorldSize, sizeStr, err)
	}
	b = &JoinBootstrap{
		Rank:       rank,
		Size:       size,
		Rendezvous: os.Getenv(EnvRendezvous),
		ListenAddr: os.Getenv(EnvListenAddr),
	}
	if b.Rendezvous == "" {
		return nil, true, fmt.Errorf("spmd: %s is set but %s is empty", EnvRank, EnvRendezvous)
	}
	if s := os.Getenv(EnvFormTimeout); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			return nil, true, fmt.Errorf("spmd: %s=%q: %v", EnvFormTimeout, s, err)
		}
		b.Timeout = d
	}
	return b, true, nil
}

// ForkBootstrap forms a single-host world by forking Size-1 copies of the
// current binary (same arguments) as worker processes. Workers inherit
// their coordinates through the DIBELLA_* env contract — no internal CLI
// flags leak into their command lines — and their stderr/stdout are
// prefixed with "[rank N] " so interleaved logs stay attributable.
type ForkBootstrap struct {
	Size int

	// Timeout bounds world formation (default 30s), propagated to the
	// workers via EnvFormTimeout.
	Timeout time.Duration

	// Output receives the workers' prefixed stderr+stdout and the
	// launcher's own progress line (default os.Stderr).
	Output io.Writer

	workers []worker
}

// Form binds the loopback rendezvous, forks the workers, and returns rank
// 0's coordinates. On failure every already-started worker is killed and
// reaped and the listener is closed.
func (b *ForkBootstrap) Form() (World, error) {
	if b.Size <= 0 {
		return World{}, fmt.Errorf("spmd: world size %d must be positive", b.Size)
	}
	out := b.Output
	if out == nil {
		out = os.Stderr
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return World{}, fmt.Errorf("spmd: binding rendezvous port: %w", err)
	}
	addr := ln.Addr().String()
	fmt.Fprintf(out, "tcp transport: launching %d worker processes (rendezvous %s)\n", b.Size-1, addr)
	workers, err := forkRankWorkers(1, b.Size, b.Size, addr, "", b.Timeout, out)
	if err != nil {
		ln.Close()
		return World{}, err
	}
	b.workers = workers
	return World{Rank: 0, Size: b.Size, Rendezvous: addr, Listener: ln, FormTimeout: b.Timeout}, nil
}

// Finish waits for every forked worker and merges exit failures into
// runErr. When a worker fails, rank 0 typically unwinds first with the
// generic ErrAborted; the worker's own exit error is preferred so the
// originating failure is what surfaces.
func (b *ForkBootstrap) Finish(runErr error) error {
	return waitWorkers(b.workers, runErr)
}

// worker is one forked helper process.
type worker struct {
	cmd   *exec.Cmd
	pw    *prefixWriter
	label string
}

// workerEnv builds the child environment for one env-contract worker:
// the parent's environment scrubbed of DIBELLA_* (a join agent's own
// coordinates must not leak into its children) plus the child's own.
func workerEnv(rank, size int, rendezvous, listenAddr string, timeout time.Duration) []string {
	env := scrubEnv(os.Environ())
	env = append(env,
		EnvRank+"="+strconv.Itoa(rank),
		EnvWorldSize+"="+strconv.Itoa(size),
		EnvRendezvous+"="+rendezvous,
	)
	if listenAddr != "" {
		env = append(env, EnvListenAddr+"="+listenAddr)
	}
	if timeout > 0 {
		env = append(env, EnvFormTimeout+"="+timeout.String())
	}
	return env
}

// scrubEnv drops every DIBELLA_* variable from an environment.
func scrubEnv(env []string) []string {
	out := env[:0:len(env)]
	for _, kv := range env {
		if !strings.HasPrefix(kv, "DIBELLA_") {
			out = append(out, kv)
		}
	}
	return out
}

// forkRankWorkers forks ranks [start,end) of a size-rank world as
// env-contract workers of the current binary, with "[rank N] "-prefixed
// output. On a fork failure the already-started workers are reaped.
func forkRankWorkers(start, end, size int, rendezvous, listenAddr string,
	timeout time.Duration, out io.Writer) ([]worker, error) {

	var workers []worker
	for r := start; r < end; r++ {
		w, err := forkWorker(os.Args[1:], workerEnv(r, size, rendezvous, listenAddr, timeout),
			out, fmt.Sprintf("[rank %d] ", r))
		if err != nil {
			reapWorkers(workers)
			return nil, fmt.Errorf("spmd: starting worker rank %d: %w", r, err)
		}
		w.label = fmt.Sprintf("worker rank %d", r)
		workers = append(workers, w)
	}
	return workers, nil
}

// forkWorker starts one copy of the current binary with the given args and
// environment, routing both its output streams through a line prefixer.
func forkWorker(args, env []string, out io.Writer, prefix string) (worker, error) {
	exe, err := os.Executable()
	if err != nil {
		return worker{}, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = env
	pw := newPrefixWriter(out, prefix)
	// Workers never own the launcher's stdout (the PAF stream); both
	// their streams are demoted to prefixed log output. exec.Cmd copies
	// through a pipe and Wait joins the copier, so no bytes are lost.
	cmd.Stdout = pw
	cmd.Stderr = pw
	if err := cmd.Start(); err != nil {
		return worker{}, err
	}
	return worker{cmd: cmd, pw: pw}, nil
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
