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

// The host-list launch protocol: a world spanning machines, formed from a
// `-hosts h1,h2:4,...` list (or hostfile). The launcher runs on the first
// host, becomes rank 0, and assigns each host a contiguous rank range. It
// binds two public listeners: the rendezvous (the TCP transport's usual
// world-formation port) and a join port. An agent started on another host
// with `dibella -join <join-addr>` (HostJoinBootstrap) asks the join port
// for its assignment, receives its rank range plus the rendezvous port —
// placement, nothing else — and forks its local share of ranks, which then
// enter world formation exactly like single-host workers. Hosts that resolve to loopback are
// "simulated": the launcher forks their join agents itself, so a
// multi-host launch can be rehearsed end-to-end on one machine.

// HostSpec is one host-list entry: a host and the number of ranks it
// contributes.
type HostSpec struct {
	Host  string
	Ranks int // 0 after parsing = share the unallocated ranks evenly
}

// ParseHostList parses a comma-separated "host[:ranks]" list. Entries
// without an explicit count get Ranks 0; AssignHostRanks fills them.
func ParseHostList(spec string) ([]HostSpec, error) {
	var hosts []HostSpec
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		h := HostSpec{Host: entry}
		if i := strings.LastIndexByte(entry, ':'); i >= 0 {
			n, err := strconv.Atoi(entry[i+1:])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("spmd: host entry %q: rank count after ':' must be a positive integer", entry)
			}
			h = HostSpec{Host: entry[:i], Ranks: n}
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

// ParseHostFile parses a hostfile: one "host[:ranks]" per line, blank
// lines and '#' comments ignored.
func ParseHostFile(path string) ([]HostSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line != "" {
			entries = append(entries, line)
		}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("spmd: hostfile %s lists no hosts", path)
	}
	return ParseHostList(strings.Join(entries, ","))
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
	HostIndex int    // host-list index the agent stands in for; <= 0 if unknown
	Hostname  string // os.Hostname, matched against the host list as a fallback
}

// assignMsg is the payload of a frameAssign: the launcher's reply.
type assignMsg struct {
	HostIndex      int
	RankStart      int // the agent runs this rank itself ...
	RankEnd        int // ... and forks (RankStart, RankEnd) as local workers
	Size           int
	RendezvousPort int // combined with the join address's host by the agent
}

// HostListBootstrap launches a multi-host world from the first host of the
// list. The calling process becomes rank 0 and forks its host's remaining
// ranks; every other host is either simulated (loopback entries — the
// launcher forks a local join agent) or joined manually by running
// `dibella -join <addr>` there.
type HostListBootstrap struct {
	// Hosts is the fully-assigned host list (every Ranks >= 1; see
	// ParseHostList + AssignHostRanks). Hosts[0] is this machine.
	Hosts []HostSpec

	// BindAddr is where the rendezvous and join listeners bind (default
	// ":0": all interfaces, ephemeral ports).
	BindAddr string

	// Timeout bounds world formation, including the wait for every
	// host's join (default 30s).
	Timeout time.Duration

	// Output receives launcher progress and the forked processes'
	// prefixed output (default os.Stderr).
	Output io.Writer

	// NoSpawn suppresses all forking (rank workers and simulated join
	// agents); every other participant is provided externally. Used by
	// in-process tests and manual launches.
	NoSpawn bool

	// JoinListener and RendezvousListener, when set, are pre-bound
	// sockets (tests bind first so the join address is known before Form
	// runs).
	JoinListener       net.Listener
	RendezvousListener net.Listener

	workers []worker
}

// Form binds the rendezvous and join ports, forks this host's workers and
// the simulated hosts' agents, then serves the join protocol until every
// host has its assignment. It returns rank 0's coordinates.
func (b *HostListBootstrap) Form() (World, error) {
	ranges, size := hostRanges(b.Hosts)
	for i, h := range b.Hosts {
		if h.Ranks <= 0 {
			return World{}, fmt.Errorf("spmd: host %d (%s) has %d ranks; run the list through AssignHostRanks", i, h.Host, h.Ranks)
		}
	}
	out := b.Output
	if out == nil {
		out = os.Stderr
	}
	timeout := b.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	bind := b.BindAddr
	if bind == "" {
		bind = ":0"
	}

	rln := b.RendezvousListener
	if rln == nil {
		var err error
		if rln, err = net.Listen("tcp", bind); err != nil {
			return World{}, fmt.Errorf("spmd: binding rendezvous port: %w", err)
		}
	}
	jln := b.JoinListener
	if jln == nil {
		var err error
		if jln, err = net.Listen("tcp", bind); err != nil {
			rln.Close()
			return World{}, fmt.Errorf("spmd: binding join port: %w", err)
		}
	}
	fail := func(err error) (World, error) {
		jln.Close()
		rln.Close()
		reapWorkers(b.workers)
		b.workers = nil
		return World{}, err
	}
	rdvPort, err := portOf(rln.Addr())
	if err != nil {
		return fail(err)
	}
	// Address this host's own processes (and, via the assignment, every
	// joining host) use to reach the rendezvous: the listener bound ":0",
	// so the routable host must come from the host list / join address.
	rendezvous := net.JoinHostPort(b.Hosts[0].Host, strconv.Itoa(rdvPort))
	joinAddr := jln.Addr().String()
	if port, err := portOf(jln.Addr()); err == nil {
		joinAddr = net.JoinHostPort(b.Hosts[0].Host, strconv.Itoa(port))
	}
	fmt.Fprintf(out, "hosts: world of %d ranks over %d hosts; rendezvous %s, join address %s\n",
		size, len(b.Hosts), rendezvous, joinAddr)

	if !b.NoSpawn {
		// This host's remaining ranks (rank 0 is the calling process).
		workers, err := forkRankWorkers(1, ranges[0][1], size, rendezvous, ":0", timeout, out)
		if err != nil {
			return fail(err)
		}
		b.workers = workers
		// Simulated hosts: loopback entries get their join agent forked
		// locally; real hosts are joined by the operator.
		for i := 1; i < len(b.Hosts); i++ {
			if !isLoopbackHost(b.Hosts[i].Host) {
				fmt.Fprintf(out, "hosts: waiting for `dibella -join %s` on %s (ranks %d-%d)\n",
					joinAddr, b.Hosts[i].Host, ranges[i][0], ranges[i][1]-1)
				continue
			}
			env := scrubEnv(os.Environ())
			env = append(env,
				EnvJoin+"="+joinAddr,
				EnvHostIndex+"="+strconv.Itoa(i),
				EnvFormTimeout+"="+timeout.String(),
			)
			w, err := forkWorker(os.Args[1:], env, out, fmt.Sprintf("[host %d] ", i))
			if err != nil {
				return fail(fmt.Errorf("spmd: starting simulated host %d (%s): %w", i, b.Hosts[i].Host, err))
			}
			w.label = fmt.Sprintf("host %d (%s)", i, b.Hosts[i].Host)
			b.workers = append(b.workers, w)
		}
	}

	if err := b.serveJoins(jln, ranges, size, rdvPort, timeout, out); err != nil {
		return fail(err)
	}
	jln.Close()
	return World{
		Rank: 0, Size: size,
		Rendezvous: rendezvous, Listener: rln,
		ListenAddr: ":0", FormTimeout: timeout,
	}, nil
}

// serveJoins answers one join per non-launcher host, matching agents to
// host-list entries by explicit index, then hostname, then first-free.
func (b *HostListBootstrap) serveJoins(jln net.Listener, ranges [][2]int, size, rdvPort int,
	timeout time.Duration, out io.Writer) error {

	deadline := time.Now().Add(timeout)
	if tl, ok := jln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	assigned := make([]bool, len(b.Hosts))
	for joined := 1; joined < len(b.Hosts); joined++ {
		conn, err := jln.Accept()
		if err != nil {
			return fmt.Errorf("spmd: waiting for host joins (%d/%d hosts arrived): %w",
				joined, len(b.Hosts), err)
		}
		idx, agent, err := b.answerJoin(conn, assigned, ranges, size, rdvPort, deadline)
		conn.Close()
		if err != nil {
			return err
		}
		assigned[idx] = true
		// Name the actual joiner: a first-free fallback assignment (e.g.
		// FQDN hostnames that don't match the list entries) would
		// otherwise be invisible in the log.
		fmt.Fprintf(out, "hosts: host %d (%s, agent %q) joined, assigned ranks %d-%d\n",
			idx, b.Hosts[idx].Host, agent, ranges[idx][0], ranges[idx][1]-1)
	}
	return nil
}

// answerJoin handles one join connection: validates the request, picks the
// host-list entry, and replies with the assignment. agent is the joiner's
// self-reported hostname, for log attribution.
func (b *HostListBootstrap) answerJoin(conn net.Conn, assigned []bool, ranges [][2]int,
	size, rdvPort int, deadline time.Time) (idx int, agent string, err error) {

	conn.SetDeadline(deadline)
	f, err := readFrame(conn)
	if err != nil {
		return 0, "", fmt.Errorf("spmd: reading join request: %w", err)
	}
	if f.Type != frameJoin {
		return 0, "", fmt.Errorf("spmd: expected join request, got frame type %d", f.Type)
	}
	req, err := decodeJoin(f.Payload)
	if err != nil {
		return 0, "", fmt.Errorf("spmd: decoding join request: %w", err)
	}
	idx = -1
	switch {
	case req.HostIndex > 0 && req.HostIndex < len(b.Hosts) && !assigned[req.HostIndex]:
		idx = req.HostIndex
	default:
		for i := 1; i < len(b.Hosts); i++ {
			if !assigned[i] && b.Hosts[i].Host == req.Hostname {
				idx = i
				break
			}
		}
		if idx < 0 {
			for i := 1; i < len(b.Hosts); i++ {
				if !assigned[i] {
					idx = i
					break
				}
			}
		}
	}
	if idx < 0 {
		return 0, "", fmt.Errorf("spmd: join from %q but every host slot is already assigned", req.Hostname)
	}
	reply := assignMsg{
		HostIndex: idx, RankStart: ranges[idx][0], RankEnd: ranges[idx][1],
		Size: size, RendezvousPort: rdvPort,
	}
	if err := writeFrame(conn, &frame{Type: frameAssign, Payload: reply.encode()}); err != nil {
		return 0, "", fmt.Errorf("spmd: sending assignment to host %d: %w", idx, err)
	}
	return idx, req.Hostname, nil
}

// Finish reaps the launcher's forked processes (this host's workers and
// any simulated join agents), merging their exit status into runErr.
func (b *HostListBootstrap) Finish(runErr error) error {
	return waitWorkers(b.workers, runErr)
}

// HostJoinBootstrap enters a host-list world from another machine (the
// `dibella -join <addr>` mode): it asks the launcher's join port for an
// assignment, forks this host's remaining ranks, and becomes the first
// rank of the assigned range itself.
type HostJoinBootstrap struct {
	// Addr is the launcher's join address.
	Addr string

	// HostIndex pins this agent to a host-list entry (launcher-forked
	// simulated agents set it); <= 0 lets the launcher match by hostname
	// or first-free slot.
	HostIndex int

	// Timeout bounds the join exchange and world formation (default 30s).
	Timeout time.Duration

	// Output receives progress and the forked workers' prefixed output
	// (default os.Stderr).
	Output io.Writer

	// NoSpawn suppresses forking the range's remaining ranks (tests).
	NoSpawn bool

	workers []worker
}

// Form requests this host's assignment and forks its local workers.
func (b *HostJoinBootstrap) Form() (World, error) {
	out := b.Output
	if out == nil {
		out = os.Stderr
	}
	timeout := b.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", b.Addr)
	if err != nil {
		return World{}, fmt.Errorf("spmd: dialing join address %s: %w", b.Addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	hostname, _ := os.Hostname()
	join := joinMsg{HostIndex: b.HostIndex, Hostname: hostname}
	if err := writeFrame(conn, &frame{Type: frameJoin, Payload: join.encode()}); err != nil {
		return World{}, fmt.Errorf("spmd: sending join request to %s: %w", b.Addr, err)
	}
	f, err := readFrame(conn)
	if err != nil {
		return World{}, fmt.Errorf("spmd: awaiting assignment from %s: %w", b.Addr, err)
	}
	if f.Type != frameAssign {
		return World{}, fmt.Errorf("spmd: expected assignment, got frame type %d", f.Type)
	}
	assign, err := decodeAssign(f.Payload)
	if err != nil {
		return World{}, fmt.Errorf("spmd: decoding assignment: %w", err)
	}
	if assign.RankStart < 0 || assign.RankStart >= assign.RankEnd || assign.RankEnd > assign.Size {
		return World{}, fmt.Errorf("spmd: assignment ranks [%d,%d) of %d is malformed",
			assign.RankStart, assign.RankEnd, assign.Size)
	}
	launcherHost, _, err := net.SplitHostPort(b.Addr)
	if err != nil {
		return World{}, fmt.Errorf("spmd: join address %q: %w", b.Addr, err)
	}
	rendezvous := net.JoinHostPort(launcherHost, strconv.Itoa(assign.RendezvousPort))
	fmt.Fprintf(out, "joined world as host %d: ranks %d-%d of %d (rendezvous %s)\n",
		assign.HostIndex, assign.RankStart, assign.RankEnd-1, assign.Size, rendezvous)

	if !b.NoSpawn {
		// Workers inherit the agent's command line, which may be just
		// `-join <addr>`: like every rank, they learn the run's
		// configuration from rank 0 once the world has formed.
		workers, err := forkRankWorkers(assign.RankStart+1, assign.RankEnd, assign.Size,
			rendezvous, ":0", timeout, out)
		if err != nil {
			return World{}, err
		}
		b.workers = workers
	}
	return World{
		Rank: assign.RankStart, Size: assign.Size,
		Rendezvous: rendezvous, ListenAddr: ":0", FormTimeout: timeout,
	}, nil
}

// Finish reaps this host's forked workers.
func (b *HostJoinBootstrap) Finish(runErr error) error {
	return waitWorkers(b.workers, runErr)
}

// portOf extracts the port of a bound listener address.
func portOf(a net.Addr) (int, error) {
	ta, ok := a.(*net.TCPAddr)
	if !ok {
		return 0, fmt.Errorf("spmd: %v is not a TCP address", a)
	}
	return ta.Port, nil
}
