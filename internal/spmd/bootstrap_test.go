package spmd

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dibella/internal/wire"
)

func TestJoinBootstrapFromEnv(t *testing.T) {
	if b, err := BootstrapFromEnv(0); b != nil || err != nil {
		t.Skipf("the test environment already carries a DIBELLA_* placement (%v, %v)", b, err)
	}
	t.Run("parses", func(t *testing.T) {
		t.Setenv(EnvRank, "0")
		t.Setenv(EnvWorldSize, "4")
		t.Setenv(EnvRendezvous, "127.0.0.1:9999")
		t.Setenv(EnvFormTimeout, "5s")
		boot, err := BootstrapFromEnv(time.Minute)
		b, ok := boot.(*JoinBootstrap)
		if !ok || err != nil {
			t.Fatalf("boot=%T err=%v", boot, err)
		}
		if b.Rank != 0 || b.Size != 4 || b.Rendezvous != "127.0.0.1:9999" || b.Timeout != 5*time.Second {
			t.Errorf("parsed %+v", b)
		}
	})
	t.Run("asks for a placement", func(t *testing.T) {
		t.Setenv(EnvRendezvous, "127.0.0.1:9999")
		t.Setenv(EnvHostIndex, "2")
		boot, err := BootstrapFromEnv(time.Minute)
		b, ok := boot.(*HostJoinBootstrap)
		if !ok || err != nil {
			t.Fatalf("boot=%T err=%v", boot, err)
		}
		if b.Addr != "127.0.0.1:9999" || b.HostIndex != 2 || b.Timeout != time.Minute {
			t.Errorf("parsed %+v", b)
		}
	})
	t.Run("malformed rank", func(t *testing.T) {
		t.Setenv(EnvRank, "two")
		t.Setenv(EnvWorldSize, "4")
		t.Setenv(EnvRendezvous, "127.0.0.1:9999")
		if b, err := BootstrapFromEnv(0); b != nil || err == nil {
			t.Errorf("boot=%v err=%v, want set-but-malformed", b, err)
		}
	})
	t.Run("missing rendezvous", func(t *testing.T) {
		t.Setenv(EnvRank, "1")
		t.Setenv(EnvWorldSize, "4")
		t.Setenv(EnvRendezvous, "")
		if b, err := BootstrapFromEnv(0); b != nil || err == nil {
			t.Errorf("boot=%v err=%v, want error", b, err)
		}
	})
}

func TestJoinBootstrapValidation(t *testing.T) {
	if _, err := Connect(&JoinBootstrap{Rank: 0, Size: 0}); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := Connect(&JoinBootstrap{Rank: 3, Size: 2, Rendezvous: "x:1"}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := Connect(&JoinBootstrap{Rank: 1, Size: 2}); err == nil {
		t.Error("missing rendezvous accepted")
	}
}

func TestParseHostList(t *testing.T) {
	hosts, err := ParseHostList("a, b:3 ,c")
	if err != nil {
		t.Fatal(err)
	}
	want := []HostSpec{{"a", 0}, {"b", 3}, {"c", 0}}
	if fmt.Sprint(hosts) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", hosts, want)
	}
	for _, bad := range []string{"", "a:0", "a:-1", "a:x", ":4"} {
		if _, err := ParseHostList(bad); err == nil {
			t.Errorf("ParseHostList(%q) accepted", bad)
		}
	}
}

func TestAssignHostRanks(t *testing.T) {
	hosts, err := AssignHostRanks([]HostSpec{{"a", 0}, {"b", 3}, {"c", 0}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if hosts[0].Ranks != 3 || hosts[1].Ranks != 3 || hosts[2].Ranks != 2 {
		t.Errorf("assignment %v", hosts)
	}
	ranges, size := hostRanges(hosts)
	if size != 8 || ranges[0] != [2]int{0, 3} || ranges[1] != [2]int{3, 6} || ranges[2] != [2]int{6, 8} {
		t.Errorf("ranges %v size %d", ranges, size)
	}
	// Explicit counts must sum to the world size.
	if _, err := AssignHostRanks([]HostSpec{{"a", 2}, {"b", 2}}, 8); err == nil {
		t.Error("sum mismatch accepted")
	}
	// Not enough ranks for the open hosts.
	if _, err := AssignHostRanks([]HostSpec{{"a", 7}, {"b", 0}, {"c", 0}}, 8); err == nil {
		t.Error("starved open hosts accepted")
	}
}

// syncBuffer is a goroutine-safe log sink for tests that run several
// bootstrap endpoints (each logging from its own goroutine) in one
// process.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestHostListBootstrapLoopback forms a 3-rank world across three
// simulated "hosts" entirely in-process: the launcher's rank 0 answers
// placement requests on the rendezvous while two HostJoinBootstrap agents —
// standing in for remote machines — fetch their assignments from that same
// address and dial back in. It is the loopback rehearsal of a real
// multi-host launch, without forking.
func TestHostListBootstrapLoopback(t *testing.T) {
	hosts := []HostSpec{{"127.0.0.1", 1}, {"127.0.0.1", 1}, {"127.0.0.1", 1}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The launcher and both join agents log concurrently from their own
	// goroutines; sharing a bare bytes.Buffer races.
	var log syncBuffer
	launcher := &HostListBootstrap{
		Hosts: hosts, Timeout: 20 * time.Second,
		Output: &log, NoSpawn: true, Listener: ln,
	}
	rendezvous := ln.Addr().String()

	const p = 3
	ranks := make([]int, p)
	sums := make([]int64, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	run := func(slot int, b Bootstrap) {
		defer wg.Done()
		tr, err := Connect(b)
		if err != nil {
			errs[slot] = err
			return
		}
		ranks[slot] = tr.Rank()
		errs[slot] = RunTransport(tr, nil, func(c *Comm) error {
			if c.Size() != p {
				return fmt.Errorf("size %d, want %d", c.Size(), p)
			}
			sums[slot] = AllreduceI64(c, int64(c.Rank()+1), OpSum)
			return nil
		})
		errs[slot] = b.Finish(errs[slot])
	}
	agent1 := &HostJoinBootstrap{Addr: rendezvous, HostIndex: 2, Timeout: 20 * time.Second, Output: &log, NoSpawn: true}
	agent2 := &HostJoinBootstrap{Addr: rendezvous, Timeout: 20 * time.Second, Output: &log, NoSpawn: true}
	wg.Add(3)
	go run(0, launcher)
	// Agent for host 2 carries its index; the host-1 agent relies on
	// first-free matching — both paths must assign correctly.
	go run(1, agent1)
	time.Sleep(100 * time.Millisecond) // let host 2 claim its slot first
	go run(2, agent2)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v\nlog:\n%s", i, err, log.String())
		}
	}
	if ranks[0] != 0 || ranks[1] != 2 || ranks[2] != 1 {
		t.Errorf("ranks = %v, want launcher 0, indexed agent 2, free agent 1", ranks)
	}
	for i, s := range sums {
		if s != 6 {
			t.Errorf("slot %d allreduce = %d, want 6", i, s)
		}
	}
	if !strings.Contains(log.String(), "joined, assigned ranks") {
		t.Errorf("launcher log missing join lines:\n%s", log.String())
	}
	if n := strings.Count(log.String(), "rendezvous "+rendezvous); n != 3 {
		t.Errorf("the one address was printed %d times (launcher once, each agent once), want 3:\n%s", n, log.String())
	}
}

// TestPlacedWorldRefusesJoin: a placement request arriving at a world of
// explicitly placed ranks — no host table to answer from — is told so by
// name, and costs the forming world nothing.
func TestPlacedWorldRefusesJoin(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rendezvous := ln.Addr().String()
	trs := make([]Transport, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	dial := func(rank int) {
		defer wg.Done()
		boot := &JoinBootstrap{Rank: rank, Size: 2, Rendezvous: rendezvous, Timeout: 20 * time.Second}
		if rank == 0 {
			boot.Listener = ln
		}
		trs[rank], errs[rank] = Connect(boot)
	}
	wg.Add(1)
	go dial(0)
	stray := &HostJoinBootstrap{Addr: rendezvous, Timeout: 20 * time.Second, Output: io.Discard, NoSpawn: true}
	if _, err := stray.Form(); err == nil || !strings.Contains(err.Error(), "placed explicitly") {
		t.Errorf("join to a placed world: err = %v, want a refusal naming the placed world", err)
	}
	wg.Add(1)
	go dial(1)
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		trs[rank].Close()
	}
}

// TestHandshakeRejectsVersionMismatch: a peer speaking a different
// protocol version must be refused with a clear error during world
// formation, not a mid-collective frame-decode failure.
func TestHandshakeRejectsVersionMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rootErr := make(chan error, 1)
	go func() {
		_, err := dialTCP(&JoinBootstrap{
			Rank: 0, Size: 2, Listener: ln, Timeout: 5 * time.Second,
		})
		rootErr <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	foreign := wire.U32(wire.U32(nil, protoMagic), protoVersion+7)
	if err := writeFrame(conn, &frame{Type: frameHello, Payload: foreign}); err != nil {
		t.Fatal(err)
	}
	err = <-rootErr
	if err == nil || !strings.Contains(err.Error(), "protocol version") {
		t.Errorf("rank 0 error = %v, want protocol version mismatch", err)
	}
}

// TestHandshakeRejectsForeignMagic: garbage hellos (e.g. an old binary or
// a stray client) fail with the protocol-magic error.
func TestHandshakeRejectsForeignMagic(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rootErr := make(chan error, 1)
	go func() {
		_, err := dialTCP(&JoinBootstrap{
			Rank: 0, Size: 2, Listener: ln, Timeout: 5 * time.Second,
		})
		rootErr <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// What a gob-era (protocol 2) binary's hello looks like from here:
	// bytes that do not open with the magic.
	if err := writeFrame(conn, &frame{Type: frameHello, Payload: []byte("\x2b\xff\x81\x03\x01\x01\x08helloMsg")}); err != nil {
		t.Fatal(err)
	}
	err = <-rootErr
	if err == nil || !strings.Contains(err.Error(), "protocol magic") {
		t.Errorf("rank 0 error = %v, want protocol magic mismatch", err)
	}
}

func TestPrefixWriter(t *testing.T) {
	var out bytes.Buffer
	pw := newPrefixWriter(&out, "[rank 3] ")
	for _, chunk := range []string{"hel", "lo\nwor", "ld\n", "tail"} {
		if _, err := pw.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	want := "[rank 3] hello\n[rank 3] world\n[rank 3] tail\n"
	if out.String() != want {
		t.Errorf("got %q want %q", out.String(), want)
	}
	// Close with nothing pending writes nothing.
	out.Reset()
	pw2 := newPrefixWriter(&out, "[x] ")
	pw2.Close()
	if out.Len() != 0 {
		t.Errorf("empty Close wrote %q", out.String())
	}
}

func TestConnectClosesListenerOnDialFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Connect(&JoinBootstrap{Rank: 5, Size: 2, Listener: ln})
	if err == nil {
		t.Fatal("broken world accepted")
	}
	// The pre-bound listener must have been closed: a second Close errors.
	if cerr := ln.Close(); cerr == nil {
		t.Error("Connect leaked the rendezvous listener on dial failure")
	}
}
