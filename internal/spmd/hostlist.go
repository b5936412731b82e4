package spmd

import (
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"
)

// The host-list launch: a world on one machine or spanning several, formed
// from a `-hosts h1,h2:4,...` list (`-transport tcp -p N` is the list
// "127.0.0.1:N"). The launcher runs on the first host, becomes
// rank 0, and gives each host a contiguous rank range. An agent started on
// another host with `dibella -join <rendezvous>` (HostJoinBootstrap) asks
// for its range and forks its local share of ranks, which then enter the
// world exactly like the launcher's own workers. Hosts that resolve to
// loopback are "simulated": the launcher forks their agents itself, so a
// multi-host launch can be rehearsed end-to-end on one machine.

// HostSpec is one host-list entry: a host and the number of ranks it
// contributes.
type HostSpec struct {
	Host  string
	Ranks int // 0 after parsing = share the unallocated ranks evenly
}

// ParseHostList parses a comma-separated "host[:ranks]" list, split as
// net.SplitHostPort splits an address: an IPv6 host is bracketed
// ("[::1]:2", "[::1]"; the brackets are not part of Host), and an
// unbracketed entry with more than one ':' is a bare IPv6 host ("::1").
// Entries without an explicit count get Ranks 0; AssignHostRanks fills
// them.
func ParseHostList(spec string) ([]HostSpec, error) {
	var hosts []HostSpec
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		h := HostSpec{Host: entry}
		if host, count, err := net.SplitHostPort(entry); err == nil {
			n, err := strconv.Atoi(count)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("spmd: host entry %q: rank count after ':' must be a positive integer", entry)
			}
			h = HostSpec{Host: host, Ranks: n}
		} else if inner, ok := strings.CutPrefix(entry, "["); ok {
			if h.Host, ok = strings.CutSuffix(inner, "]"); !ok {
				return nil, fmt.Errorf("spmd: host entry %q: want [host] or [host]:ranks", entry)
			}
		}
		if h.Host == "" {
			return nil, fmt.Errorf("spmd: host entry %q has an empty host", entry)
		}
		hosts = append(hosts, h)
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("spmd: empty host list")
	}
	return hosts, nil
}

// AssignHostRanks distributes total ranks over the host list: entries with
// explicit counts keep them, the rest split the remainder as evenly as
// possible (earlier hosts take the extra rank). Every host must end up
// with at least one rank and the counts must sum to total.
func AssignHostRanks(hosts []HostSpec, total int) ([]HostSpec, error) {
	if total <= 0 {
		return nil, fmt.Errorf("spmd: world size %d must be positive", total)
	}
	out := append([]HostSpec(nil), hosts...)
	explicit, open := 0, 0
	for _, h := range out {
		if h.Ranks > 0 {
			explicit += h.Ranks
		} else {
			open++
		}
	}
	if open == 0 {
		if explicit != total {
			return nil, fmt.Errorf("spmd: host list provides %d ranks, world size is %d", explicit, total)
		}
		return out, nil
	}
	rem := total - explicit
	if rem < open {
		return nil, fmt.Errorf("spmd: %d ranks left for %d hosts without explicit counts (world size %d)", rem, open, total)
	}
	base, extra := rem/open, rem%open
	for i := range out {
		if out[i].Ranks == 0 {
			out[i].Ranks = base
			if extra > 0 {
				out[i].Ranks++
				extra--
			}
		}
	}
	return out, nil
}

// hostRanges returns each host's contiguous [start,end) rank range and the
// world size.
func hostRanges(hosts []HostSpec) ([][2]int, int) {
	ranges := make([][2]int, len(hosts))
	start := 0
	for i, h := range hosts {
		ranges[i] = [2]int{start, start + h.Ranks}
		start += h.Ranks
	}
	return ranges, start
}

// isLoopbackHost reports whether a host entry refers to the local loopback
// interface (a simulated host the launcher can fork an agent for).
func isLoopbackHost(host string) bool {
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// joinMsg is the payload of a frameJoin: an agent asking for its
// assignment.
type joinMsg struct {
	Hostname string // os.Hostname, matched against the host list
}

// assignMsg is the payload of a frameAssign: rank 0's reply.
type assignMsg struct {
	HostIndex int
	RankStart int // the agent runs this rank itself ...
	RankEnd   int // ... and forks (RankStart, RankEnd) as local workers
	Size      int
	Refused   string // non-empty: why the agent gets no placement
}

// hostTable is the launcher's record of which host-list entries have been
// handed to an agent; rank 0's accept loop answers placement requests from
// it. A world of explicitly placed ranks has none (nil) and refuses them.
type hostTable struct {
	hosts    []HostSpec
	assigned []bool
	out      io.Writer
}

// place picks the host-list entry for one request — by hostname, then
// first free — and marks it taken.
func (h *hostTable) place(req joinMsg) assignMsg {
	if h == nil {
		return assignMsg{Refused: "its ranks are placed explicitly, not from a host list: there is no placement to ask for"}
	}
	firstFree := func(ok func(i int) bool) int {
		for i := 1; i < len(h.hosts); i++ {
			if !h.assigned[i] && ok(i) {
				return i
			}
		}
		return -1
	}
	idx := firstFree(func(i int) bool { return h.hosts[i].Host == req.Hostname })
	if idx < 0 {
		idx = firstFree(func(int) bool { return true })
	}
	if idx < 0 {
		return assignMsg{Refused: "every host slot is already assigned"}
	}
	h.assigned[idx] = true
	ranges, size := hostRanges(h.hosts)
	// Name the actual joiner: a first-free fallback assignment (e.g. FQDN
	// hostnames that don't match the list entries) would otherwise be
	// invisible in the log.
	fmt.Fprintf(h.out, "hosts: host %d (%s, agent %q) joined, assigned ranks %d-%d\n",
		idx, h.hosts[idx].Host, req.Hostname, ranges[idx][0], ranges[idx][1]-1)
	return assignMsg{HostIndex: idx, RankStart: ranges[idx][0], RankEnd: ranges[idx][1], Size: size}
}

// answer replies to the placement request that opened conn. A request that
// cannot be placed is told why and costs the forming world nothing.
func (h *hostTable) answer(conn net.Conn, payload []byte) error {
	req, err := decodeJoin(payload)
	if err != nil {
		return fmt.Errorf("spmd: decoding join request: %w", err)
	}
	if err := writeFrame(conn, &frame{Type: frameAssign, Payload: h.place(req).encode()}); err != nil {
		return fmt.Errorf("spmd: sending assignment to %q: %w", req.Hostname, err)
	}
	return nil
}

// HostListBootstrap launches a world from the first host of the list. The
// calling process becomes rank 0 and forks its host's remaining ranks;
// every other host is either simulated (loopback entries — the launcher
// forks a local agent) or joined manually by running `dibella -join
// <rendezvous>` there.
type HostListBootstrap struct {
	// Hosts is the fully-assigned host list (every Ranks >= 1; see
	// ParseHostList + AssignHostRanks). Hosts[0] is this machine.
	Hosts []HostSpec

	// Timeout bounds world formation, including the wait for every host's
	// agent (default 30s).
	Timeout time.Duration

	// Output receives launcher progress and the forked processes'
	// prefixed output (default os.Stderr).
	Output io.Writer

	// NoSpawn suppresses all forking (rank workers and simulated agents);
	// every other participant is provided externally. Used by in-process
	// tests and manual launches.
	NoSpawn bool

	// Listener, when set, is the pre-bound rendezvous socket (tests bind
	// first so the address is known before Form runs). Unset, Form binds
	// the first entry's address for an all-loopback list and every
	// interface otherwise.
	Listener net.Listener

	workers []worker
}

// Form binds the rendezvous — the one socket a launcher listens on — forks
// this host's workers and the simulated hosts' agents, and returns rank 0's
// placement carrying the host table.
func (b *HostListBootstrap) Form() (*JoinBootstrap, error) {
	ranges, size := hostRanges(b.Hosts)
	bind := net.JoinHostPort(b.Hosts[0].Host, "0")
	for i, h := range b.Hosts {
		if h.Ranks <= 0 {
			return nil, fmt.Errorf("spmd: host %d (%s) has %d ranks; run the list through AssignHostRanks", i, h.Host, h.Ranks)
		}
		if !isLoopbackHost(h.Host) {
			bind = ":0"
		}
	}
	out := b.Output
	if out == nil {
		out = os.Stderr
	}
	ln := b.Listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", bind); err != nil {
			return nil, fmt.Errorf("spmd: binding rendezvous port: %w", err)
		}
	}
	fail := func(err error) (*JoinBootstrap, error) {
		ln.Close()
		reapWorkers(b.workers)
		b.workers = nil
		return nil, err
	}
	// The address every other process reaches the rendezvous at: the
	// listener may be bound to every interface, so the routable host comes
	// from the host list.
	_, port, err := net.SplitHostPort(ln.Addr().String())
	if err != nil {
		return fail(fmt.Errorf("spmd: rendezvous listener: %w", err))
	}
	rendezvous := net.JoinHostPort(b.Hosts[0].Host, port)
	fmt.Fprintf(out, "tcp transport: world of %d ranks over %d host(s); rendezvous %s\n",
		size, len(b.Hosts), rendezvous)

	if !b.NoSpawn {
		// This host's remaining ranks (rank 0 is the calling process).
		if b.workers, err = forkRankWorkers(1, ranges[0][1], size, rendezvous, out); err != nil {
			return fail(err)
		}
		// Simulated hosts: loopback entries get their agent forked locally,
		// told where to ask but not which entry it is (the launcher places
		// it by hostname, then first free); real hosts are joined by the
		// operator.
		for i := 1; i < len(b.Hosts); i++ {
			if !isLoopbackHost(b.Hosts[i].Host) {
				fmt.Fprintf(out, "hosts: waiting for `dibella -join %s` on %s (ranks %d-%d)\n",
					rendezvous, b.Hosts[i].Host, ranges[i][0], ranges[i][1]-1)
				continue
			}
			w, err := forkWorker(fmt.Sprintf("host %d", i), out, rendezvous)
			if err != nil {
				return fail(err)
			}
			b.workers = append(b.workers, w)
		}
	}
	return &JoinBootstrap{
		Rank: 0, Size: size, Rendezvous: rendezvous, Listener: ln, Timeout: b.Timeout,
		hosts: &hostTable{hosts: b.Hosts, assigned: make([]bool, len(b.Hosts)), out: out},
	}, nil
}

// Finish reaps the launcher's forked processes (this host's workers and
// any simulated agents), merging their exit status into runErr.
func (b *HostListBootstrap) Finish(runErr error) error {
	return waitWorkers(b.workers, runErr)
}

// HostJoinBootstrap enters a host-list world from another machine (the
// `dibella -join <rendezvous>` mode): it asks the rendezvous for an
// assignment, forks this host's remaining ranks, and becomes the first
// rank of the assigned range itself.
type HostJoinBootstrap struct {
	// Addr is the world's rendezvous address, as the launcher printed it.
	Addr string

	// Timeout bounds the placement request and world formation (default
	// 30s).
	Timeout time.Duration

	// Output receives progress and the forked workers' prefixed output
	// (default os.Stderr).
	Output io.Writer

	// NoSpawn suppresses forking the range's remaining ranks (tests).
	NoSpawn bool

	workers []worker
}

// Form requests this host's assignment and forks its local workers.
func (b *HostJoinBootstrap) Form() (*JoinBootstrap, error) {
	out := b.Output
	if out == nil {
		out = os.Stderr
	}
	deadline := formDeadline(b.Timeout)
	conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", b.Addr)
	if err != nil {
		return nil, fmt.Errorf("spmd: dialing rendezvous %s: %w", b.Addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	hostname, _ := os.Hostname()
	join := joinMsg{Hostname: hostname}
	if err := writeFrame(conn, &frame{Type: frameJoin, Payload: join.encode()}); err != nil {
		return nil, fmt.Errorf("spmd: sending join request to %s: %w", b.Addr, err)
	}
	f, err := readFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("spmd: awaiting assignment from %s: %w", b.Addr, err)
	}
	if f.Type != frameAssign {
		return nil, fmt.Errorf("spmd: expected assignment, got frame type %d", f.Type)
	}
	assign, err := decodeAssign(f.Payload)
	if err != nil {
		return nil, fmt.Errorf("spmd: decoding assignment: %w", err)
	}
	if assign.Refused != "" {
		return nil, fmt.Errorf("spmd: the world at %s refused the join: %s", b.Addr, assign.Refused)
	}
	if assign.RankStart < 0 || assign.RankStart >= assign.RankEnd || assign.RankEnd > assign.Size {
		return nil, fmt.Errorf("spmd: assignment ranks [%d,%d) of %d is malformed",
			assign.RankStart, assign.RankEnd, assign.Size)
	}
	fmt.Fprintf(out, "joined world as host %d: ranks %d-%d of %d (rendezvous %s)\n",
		assign.HostIndex, assign.RankStart, assign.RankEnd-1, assign.Size, b.Addr)

	if !b.NoSpawn {
		// Workers inherit the agent's command line, which may be just
		// `-join <addr>`: like every rank, they learn the run's
		// configuration from rank 0 once the world has formed.
		b.workers, err = forkRankWorkers(assign.RankStart+1, assign.RankEnd, assign.Size, b.Addr, out)
		if err != nil {
			return nil, err
		}
	}
	return &JoinBootstrap{Rank: assign.RankStart, Size: assign.Size, Rendezvous: b.Addr, Timeout: b.Timeout}, nil
}

// Finish reaps this host's forked workers.
func (b *HostJoinBootstrap) Finish(runErr error) error {
	return waitWorkers(b.workers, runErr)
}
