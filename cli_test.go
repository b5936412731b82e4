package dibella

// End-to-end CLI smoke tests: build the three commands and chain them the
// way a user would (seqgen -> dibella -> PAF). Skipped in -short mode to
// keep unit runs fast; the full suite exercises the actual binaries.

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"dibella/internal/paf"
	"dibella/internal/pipeline"
)

func buildTool(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func TestCLIPipelineRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test in short mode")
	}
	dir := t.TempDir()
	seqgen := buildTool(t, dir, "./cmd/seqgen")
	dibella := buildTool(t, dir, "./cmd/dibella")

	reads := filepath.Join(dir, "reads.fastq")
	truth := filepath.Join(dir, "truth.tsv")
	out, err := exec.Command(seqgen,
		"-genome", "20000", "-coverage", "12", "-mean-len", "1200",
		"-error-rate", "0.1", "-seed", "3",
		"-out", reads, "-truth", truth, "-min-overlap", "400",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("seqgen: %v\n%s", err, out)
	}
	if fi, err := os.Stat(reads); err != nil || fi.Size() == 0 {
		t.Fatalf("seqgen wrote nothing: %v", err)
	}

	pafPath := filepath.Join(dir, "overlaps.paf")
	out, err = exec.Command(dibella,
		"-in", reads, "-out", pafPath, "-p", "4", "-k", "17",
		"-seed-mode", "one", "-breakdown",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("dibella: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "alignments=") {
		t.Errorf("missing summary in output:\n%s", out)
	}
	if !strings.Contains(string(out), "sched=streamed") {
		t.Errorf("default run is not the streamed schedule:\n%s", out)
	}
	if !strings.Contains(string(out), "Alignment") {
		t.Errorf("missing breakdown in output:\n%s", out)
	}
	checkAlignRate(t, string(out))

	f, err := os.Open(pafPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := paf.Parse(f)
	if err != nil {
		t.Fatalf("CLI PAF output does not parse: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("CLI produced no alignments")
	}

	// Ground-truth file sanity.
	tdata, err := os.ReadFile(truth)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(string(tdata)), "\n")) < 2 {
		t.Error("truth file suspiciously small")
	}
}

// checkAlignRate requires a -breakdown run to print the alignment rate
// line, and its cells to be the summary's cells=.
func checkAlignRate(t *testing.T, out string) {
	t.Helper()
	var summary, rate string
	for _, line := range strings.Split(out, "\n") {
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "cells="); ok {
				summary = v
			}
		}
		if rest, ok := strings.CutPrefix(line, "alignment rate: "); ok {
			rate, _, _ = strings.Cut(rest, " cells;")
			if !strings.Contains(rest, "Mcells/s") {
				t.Errorf("alignment rate line without a rate: %q", line)
			}
		}
	}
	if rate == "" || rate != summary {
		t.Errorf("alignment rate line counts %q cells, summary cells=%q:\n%s", rate, summary, out)
	}
}

// TestCLITCPTransportMatchesMem is the acceptance check for the TCP
// backend: the same seeded read set run with -transport tcp across 4 real
// worker OS processes must produce byte-identical PAF output to the
// default in-process run, and the two must report the same thing: the
// same modeled ledger, and parsed-byte counters that tile the file.
func TestCLITCPTransportMatchesMem(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test in short mode")
	}
	dir := t.TempDir()
	seqgen := buildTool(t, dir, "./cmd/seqgen")
	dibella := buildTool(t, dir, "./cmd/dibella")

	reads := filepath.Join(dir, "reads.fastq")
	if out, err := exec.Command(seqgen,
		"-genome", "30000", "-coverage", "10", "-mean-len", "1500",
		"-error-rate", "0.06", "-seed", "11", "-out", reads,
	).CombinedOutput(); err != nil {
		t.Fatalf("seqgen: %v\n%s", err, out)
	}

	memPAF := filepath.Join(dir, "mem.paf")
	tcpPAF := filepath.Join(dir, "tcp.paf")
	// Profiling rides along on both runs: it must not change the PAF, one
	// process writes one pair of files, and the four processes of the TCP
	// world, whose command lines are identical, each write their own.
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	common := []string{"-in", reads, "-p", "4", "-k", "17", "-error-rate", "0.06",
		"-platform", "cori", "-nodes", "2", "-breakdown",
		"-cpuprofile", cpu, "-memprofile", mem}
	memOut, err := exec.Command(dibella, append(common, "-out", memPAF)...).CombinedOutput()
	if err != nil {
		t.Fatalf("dibella -transport mem: %v\n%s", err, memOut)
	}
	profiles := []string{cpu, mem}
	out, err := exec.Command(dibella,
		append(common, "-transport", "tcp", "-out", tcpPAF)...).CombinedOutput()
	if err != nil {
		t.Fatalf("dibella -transport tcp: %v\n%s", err, out)
	}
	for rank := 0; rank < 4; rank++ {
		profiles = append(profiles, cpu+".rank"+strconv.Itoa(rank), mem+".rank"+strconv.Itoa(rank))
	}
	for _, path := range profiles {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", filepath.Base(path), err)
		}
	}
	if !strings.Contains(string(out), "world of 4 ranks over 1 host(s); rendezvous 127.0.0.1:") {
		t.Errorf("tcp run did not announce a one-host loopback world:\n%s", out)
	}
	checkShardCounters(t, "mem", memOut, reads, 4)
	checkShardCounters(t, "tcp", out, reads, 4)
	memLedger := strings.Join(modeledLedger(t, "mem", memOut), "\n")
	if tcpLedger := strings.Join(modeledLedger(t, "tcp", out), "\n"); memLedger != tcpLedger {
		t.Errorf("modeled ledgers differ between transports:\nmem:\n%s\ntcp:\n%s", memLedger, tcpLedger)
	}

	memBytes, err := os.ReadFile(memPAF)
	if err != nil {
		t.Fatal(err)
	}
	tcpBytes, err := os.ReadFile(tcpPAF)
	if err != nil {
		t.Fatal(err)
	}
	if len(memBytes) == 0 {
		t.Fatal("mem run produced an empty PAF")
	}
	if !bytes.Equal(memBytes, tcpBytes) {
		t.Errorf("PAF output differs between transports (%d vs %d bytes)",
			len(memBytes), len(tcpBytes))
	}
}

// checkShardCounters requires a -breakdown run's per-rank parsed-byte
// counters to be the cooperative load's: each of ranks ranks parsed a
// proper shard of the file, and the shards tile it.
func checkShardCounters(t *testing.T, run string, out []byte, path string, ranks int) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "input bytes parsed per rank:"); ok {
			lines = append(lines, rest)
		}
	}
	if len(lines) != 1 {
		t.Fatalf("%s run printed %d parsed-byte counter lines, want 1:\n%s", run, len(lines), out)
	}
	fields := strings.Fields(lines[0])
	if len(fields) != ranks {
		t.Fatalf("%s run: expected %d per-rank counters, got %q", run, ranks, lines[0])
	}
	var sum int64
	for r, f := range fields {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			t.Fatalf("%s run: counter %q: %v", run, f, err)
		}
		if n <= 0 || n >= fi.Size() {
			t.Errorf("%s run: rank %d parsed %d bytes of a %d-byte file, want a proper shard", run, r, n, fi.Size())
		}
		sum += n
	}
	if sum != fi.Size() {
		t.Errorf("%s run: per-rank counters sum to %d, file is %d bytes", run, sum, fi.Size())
	}
}

// modeledLedger extracts what a -platform -breakdown run reports about the
// modeled machine: the summary's virtual= and overlap= fields, then every
// stage row without its wall and peak mem columns, which measure this host
// (over TCP the peak also counts borrowed receive frames).
func modeledLedger(t *testing.T, run string, out []byte) []string {
	t.Helper()
	var ledger []string
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if strings.HasPrefix(line, "ranks=") {
			for _, f := range fields {
				if strings.HasPrefix(f, "virtual=") || strings.HasPrefix(f, "overlap=") {
					ledger = append(ledger, f)
				}
			}
			continue
		}
		for _, stage := range pipeline.Stages {
			if fields[0] == string(stage) && len(fields) == 8 {
				ledger = append(ledger, strings.Join(append([]string{fields[0]}, fields[2:7]...), " "))
			}
		}
	}
	if want := 2 + len(pipeline.Stages); len(ledger) != want {
		t.Fatalf("%s run: found %d ledger entries, want %d:\n%s", run, len(ledger), want, out)
	}
	return ledger
}

// TestCLIPeakRSSBounded holds the build's memory bound where a user meets
// it: the built binary over loopback TCP on a sparse sample (2 Mb genome at
// 1x, 1.5 kb reads: the index build is most of the run), and the largest
// resident set any process of the tree reached. Both build passes exchange
// out of one fixed ring of cache-sized rows and read received frames where
// they land, so the peak is the reads, the table and a few MiB of exchange
// memory — 25 MiB on the sizing host. With a round's send buffers allocated
// fresh and every received row copied it was 54-56 MiB, following the input.
func TestCLIPeakRSSBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test in short mode")
	}
	dir := t.TempDir()
	seqgen := buildTool(t, dir, "./cmd/seqgen")
	dibella := buildTool(t, dir, "./cmd/dibella")

	reads := filepath.Join(dir, "reads.fastq")
	if out, err := exec.Command(seqgen,
		"-genome", "2000000", "-coverage", "1", "-mean-len", "1500",
		"-error-rate", "0.15", "-seed", "5", "-out", reads,
	).CombinedOutput(); err != nil {
		t.Fatalf("seqgen: %v\n%s", err, out)
	}
	cmd := exec.Command(dibella, "-in", reads, "-transport", "tcp", "-p", "2",
		"-k", "17", "-m", "10", "-out", filepath.Join(dir, "out.paf"))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("dibella -transport tcp: %v\n%s", err, out)
	}
	// The launcher is rank 0 and waits for the worker it forked, so its
	// rusage covers the tree; Maxrss is the largest of them, in KiB on Linux.
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		t.Skip("no rusage on this platform")
	}
	const ceilingMiB = 32
	peak := float64(ru.Maxrss) / 1024
	t.Logf("peak RSS of any process: %.1f MiB", peak)
	if peak > ceilingMiB {
		t.Errorf("peak RSS %.1f MiB, ceiling %d MiB: the build's memory follows its input again", peak, ceilingMiB)
	}
}

// TestCLIHostListMatchesMem is the multi-host acceptance check: a 4-rank
// world spanning two simulated "hosts" (-hosts 127.0.0.1,127.0.0.1 forks
// a real `-join` agent process for the second host, which forks its own
// worker) must produce byte-identical PAF to the in-process run, with
// each rank parsing only its byte-range shard of the input.
func TestCLIHostListMatchesMem(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test in short mode")
	}
	dir := t.TempDir()
	seqgen := buildTool(t, dir, "./cmd/seqgen")
	dibella := buildTool(t, dir, "./cmd/dibella")

	reads := filepath.Join(dir, "reads.fastq")
	if out, err := exec.Command(seqgen,
		"-genome", "30000", "-coverage", "10", "-mean-len", "1500",
		"-error-rate", "0.06", "-seed", "11", "-out", reads,
	).CombinedOutput(); err != nil {
		t.Fatalf("seqgen: %v\n%s", err, out)
	}
	memPAF := filepath.Join(dir, "mem.paf")
	hostsPAF := filepath.Join(dir, "hosts.paf")
	common := []string{"-in", reads, "-p", "4", "-k", "17", "-error-rate", "0.06"}
	if out, err := exec.Command(dibella,
		append(common, "-out", memPAF)...).CombinedOutput(); err != nil {
		t.Fatalf("dibella -transport mem: %v\n%s", err, out)
	}
	out, err := exec.Command(dibella, append(common,
		"-transport", "tcp", "-hosts", "127.0.0.1,127.0.0.1",
		"-breakdown", "-out", hostsPAF)...).CombinedOutput()
	if err != nil {
		t.Fatalf("dibella -hosts: %v\n%s", err, out)
	}
	for _, want := range []string{
		"world of 4 ranks over 2 host(s)", // launcher banner
		"joined, assigned ranks 2-3",      // the simulated host's join
		"[host 1] ",                       // its prefixed agent output
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("hosts run output missing %q:\n%s", want, out)
		}
	}
	checkShardCounters(t, "hosts", out, reads, 4)

	memBytes, err := os.ReadFile(memPAF)
	if err != nil {
		t.Fatal(err)
	}
	hostsBytes, err := os.ReadFile(hostsPAF)
	if err != nil {
		t.Fatal(err)
	}
	if len(memBytes) == 0 {
		t.Fatal("mem run produced an empty PAF")
	}
	if !bytes.Equal(memBytes, hostsBytes) {
		t.Errorf("PAF output differs between mem and -hosts runs (%d vs %d bytes)",
			len(memBytes), len(hostsBytes))
	}

	// The internal worker plumbing is env-based now; the old flags must
	// be rejected, not silently accepted.
	if out, err := exec.Command(dibella,
		"-in", reads, "-rank", "1", "-rendezvous", "127.0.0.1:9").CombinedOutput(); err == nil {
		t.Errorf("-rank/-rendezvous accepted:\n%s", out)
	}
}

// TestCLICheckpointResume is the operator-level restart drill: snapshot
// a run, kill it right after the DHT boundary commits (-ckpt-abort-after,
// exit 3), resume at a different world size on both transports, and
// require PAF byte-identical to the uninterrupted run.
func TestCLICheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test in short mode")
	}
	dir := t.TempDir()
	seqgen := buildTool(t, dir, "./cmd/seqgen")
	dibella := buildTool(t, dir, "./cmd/dibella")

	reads := filepath.Join(dir, "reads.fastq")
	if out, err := exec.Command(seqgen,
		"-genome", "20000", "-coverage", "10", "-mean-len", "1500",
		"-error-rate", "0.06", "-seed", "7", "-out", reads,
	).CombinedOutput(); err != nil {
		t.Fatalf("seqgen: %v\n%s", err, out)
	}

	freshPAF := filepath.Join(dir, "fresh.paf")
	if out, err := exec.Command(dibella,
		"-in", reads, "-p", "4", "-k", "17", "-error-rate", "0.06", "-out", freshPAF,
	).CombinedOutput(); err != nil {
		t.Fatalf("fresh run: %v\n%s", err, out)
	}
	freshBytes, err := os.ReadFile(freshPAF)
	if err != nil {
		t.Fatal(err)
	}
	if len(freshBytes) == 0 {
		t.Fatal("fresh run produced an empty PAF")
	}

	// Snapshot and kill after the DHT stage commits.
	ck := filepath.Join(dir, "ck")
	out, err := exec.Command(dibella,
		"-in", reads, "-p", "4", "-k", "17", "-error-rate", "0.06",
		"-ckpt-dir", ck, "-ckpt-abort-after", "dht",
	).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		t.Fatalf("kill run: want exit 3, got err=%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "aborted after checkpoint") {
		t.Errorf("kill run output missing abort notice:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(ck, "manifest.json")); err != nil {
		t.Fatalf("no manifest after kill: %v", err)
	}

	// Elastic resume at P=2 (mem) and P=3 (tcp worker processes).
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"mem-p2", []string{"-resume", ck, "-p", "2"}},
		{"tcp-p3", []string{"-resume", ck, "-p", "3", "-transport", "tcp"}},
	} {
		resumedPAF := filepath.Join(dir, tc.name+".paf")
		out, err := exec.Command(dibella, append(tc.args, "-out", resumedPAF)...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", tc.name, err, out)
		}
		if !strings.Contains(string(out), "resumed "+ck) {
			t.Errorf("%s output missing resume notice:\n%s", tc.name, out)
		}
		resumedBytes, err := os.ReadFile(resumedPAF)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(freshBytes, resumedBytes) {
			t.Errorf("%s: resumed PAF differs from fresh run (%d vs %d bytes)",
				tc.name, len(resumedBytes), len(freshBytes))
		}
	}

	// Output-affecting flags are rejected with -resume.
	if out, err := exec.Command(dibella, "-resume", ck, "-k", "19").CombinedOutput(); err == nil {
		t.Errorf("-resume -k accepted:\n%s", out)
	} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("-resume -k: want usage exit 2, got %v\n%s", err, out)
	}
}

// startHostLauncher launches a -hosts world whose second host must be
// joined externally, and returns the one address the launcher prints — its
// rendezvous — plus the command (still running).
func startHostLauncher(t *testing.T, dibella string, args []string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(dibella, args...)
	var buf bytes.Buffer
	pr, pw := io.Pipe()
	// Stdout (a PAF stream at most) is discarded: copying it into buf too
	// would race with the stderr copy and truncate the log.
	cmd.Stderr = io.MultiWriter(&buf, pw)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "; rendezvous "); i >= 0 {
				addrCh <- strings.TrimSpace(line[i+len("; rendezvous "):])
				break
			}
		}
		io.Copy(io.Discard, pr) // keep draining so the child never blocks
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr, &buf
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("launcher never printed its rendezvous:\n%s", buf.String())
		return nil, "", nil
	}
}

// TestCLIJoinConfigShipping: a `dibella -join <addr>` agent with no
// config flags must receive the launcher's configuration once the world
// has formed and produce the same output as an in-process run; an agent
// passing a conflicting config flag must fail the run with a clear error
// naming the flag.
func TestCLIJoinConfigShipping(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test in short mode")
	}
	dir := t.TempDir()
	seqgen := buildTool(t, dir, "./cmd/seqgen")
	dibella := buildTool(t, dir, "./cmd/dibella")

	reads := filepath.Join(dir, "reads.fastq")
	if out, err := exec.Command(seqgen,
		"-genome", "20000", "-coverage", "10", "-mean-len", "1500",
		"-error-rate", "0.06", "-seed", "11", "-out", reads,
	).CombinedOutput(); err != nil {
		t.Fatalf("seqgen: %v\n%s", err, out)
	}
	memPAF := filepath.Join(dir, "mem.paf")
	if out, err := exec.Command(dibella,
		"-in", reads, "-p", "4", "-k", "17", "-error-rate", "0.06", "-out", memPAF,
	).CombinedOutput(); err != nil {
		t.Fatalf("mem run: %v\n%s", err, out)
	}
	memBytes, err := os.ReadFile(memPAF)
	if err != nil {
		t.Fatal(err)
	}

	// "farhost" is not loopback, so the launcher waits for a real join
	// instead of simulating the second host.
	hostsPAF := filepath.Join(dir, "hosts.paf")
	launcher, joinAddr, launcherOut := startHostLauncher(t, dibella, []string{
		"-in", reads, "-p", "4", "-k", "17", "-error-rate", "0.06",
		"-hosts", "127.0.0.1:2,farhost:2", "-out", hostsPAF,
	})
	// The agent is given the one address the launcher printed and no config
	// flags at all: rank 0's ship to it (and to the worker it forks) over
	// the formed world.
	agentOut, agentErr := exec.Command(dibella, "-join", joinAddr).CombinedOutput()
	launchErr := launcher.Wait()
	if agentErr != nil {
		t.Fatalf("bare -join agent: %v\n%s", agentErr, agentOut)
	}
	if launchErr != nil {
		t.Fatalf("launcher: %v\n%s", launchErr, launcherOut.String())
	}
	// One address in the whole log: the banner and the -join hint name it.
	if log := launcherOut.String(); strings.Count(log, "127.0.0.1:") != 2 || strings.Count(log, joinAddr) != 2 {
		t.Errorf("launcher log names an address other than its rendezvous %s:\n%s", joinAddr, log)
	}
	hostsBytes, err := os.ReadFile(hostsPAF)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memBytes, hostsBytes) {
		t.Errorf("shipped-config world PAF differs from mem run (%d vs %d bytes)",
			len(hostsBytes), len(memBytes))
	}

	// Conflicting explicit joiner flag: formation fails, naming the flag.
	launcher2, joinAddr2, launcher2Out := startHostLauncher(t, dibella, []string{
		"-in", reads, "-p", "4", "-k", "17", "-error-rate", "0.06",
		"-hosts", "127.0.0.1:2,farhost:2",
	})
	agentOut2, agentErr2 := exec.Command(dibella, "-join", joinAddr2, "-k", "19").CombinedOutput()
	launcher2.Wait() // world aborts once the joiner bails; exit status is secondary
	_ = launcher2Out
	if agentErr2 == nil {
		t.Fatalf("conflicting -k joiner succeeded:\n%s", agentOut2)
	}
	for _, want := range []string{"conflict", "-k", "launcher says 17"} {
		if !strings.Contains(string(agentOut2), want) {
			t.Errorf("conflict error missing %q:\n%s", want, agentOut2)
		}
	}
}

// runPlacedWorld starts a 2-rank world the way a scheduler does: one
// dibella process per rank started by hand, coordinates in the DIBELLA_*
// env contract, no launcher. Rank 1 dials once and gives up, so it is
// re-run until rank 0 has bound the rendezvous. Returns each rank's
// combined output and exit error.
func runPlacedWorld(t *testing.T, dibella string, rank0Args, rank1Args []string) (outs [2]string, errs [2]error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rendezvous := ln.Addr().String()
	ln.Close()
	placed := func(rank int, args []string) *exec.Cmd {
		cmd := exec.Command(dibella, args...)
		cmd.Env = append(os.Environ(),
			"DIBELLA_RANK="+strconv.Itoa(rank), "DIBELLA_WORLD_SIZE=2", "DIBELLA_RENDEZVOUS="+rendezvous)
		return cmd
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		out, err := placed(0, rank0Args).CombinedOutput()
		outs[0], errs[0] = string(out), err
	}()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		out, err := placed(1, rank1Args).CombinedOutput()
		outs[1], errs[1] = string(out), err
		if !strings.Contains(outs[1], "connection refused") || time.Now().After(deadline) {
			break
		}
	}
	<-done
	return outs, errs
}

// TestCLISchedulerPlacedWorld covers the launch mode with no launcher at
// all. Like every rank but rank 0, a scheduler-placed rank learns the
// run's configuration from rank 0 over the formed world: (a) with no
// config flags of its own it runs rank 0's configuration, byte-identical
// to the in-process run; (b) with a flag that disagrees with rank 0's it
// fails the run on both ranks, naming the flag, instead of running a
// silently divergent world.
func TestCLISchedulerPlacedWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test in short mode")
	}
	dir := t.TempDir()
	seqgen := buildTool(t, dir, "./cmd/seqgen")
	dibella := buildTool(t, dir, "./cmd/dibella")

	reads := filepath.Join(dir, "reads.fastq")
	if out, err := exec.Command(seqgen,
		"-genome", "20000", "-coverage", "10", "-mean-len", "1500",
		"-error-rate", "0.06", "-seed", "11", "-out", reads,
	).CombinedOutput(); err != nil {
		t.Fatalf("seqgen: %v\n%s", err, out)
	}
	memPAF := filepath.Join(dir, "mem.paf")
	if out, err := exec.Command(dibella,
		"-in", reads, "-p", "2", "-k", "17", "-error-rate", "0.06", "-out", memPAF,
	).CombinedOutput(); err != nil {
		t.Fatalf("mem run: %v\n%s", err, out)
	}
	memBytes, err := os.ReadFile(memPAF)
	if err != nil {
		t.Fatal(err)
	}

	placedPAF := filepath.Join(dir, "placed.paf")
	rank0 := []string{"-in", reads, "-k", "17", "-error-rate", "0.06", "-out", placedPAF}
	outs, errs := runPlacedWorld(t, dibella, rank0, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("placed rank %d: %v\n%s", r, err, outs[r])
		}
	}
	placedBytes, err := os.ReadFile(placedPAF)
	if err != nil {
		t.Fatal(err)
	}
	if len(memBytes) == 0 || !bytes.Equal(memBytes, placedBytes) {
		t.Errorf("scheduler-placed world PAF differs from mem run (%d vs %d bytes)", len(placedBytes), len(memBytes))
	}

	outs, errs = runPlacedWorld(t, dibella, rank0, []string{"-k", "19"})
	for r := range errs {
		if errs[r] == nil {
			t.Errorf("rank %d of a world disagreeing on -k succeeded:\n%s", r, outs[r])
		}
		for _, want := range []string{"conflict", "rank 1: -k: this command says 19, launcher says 17"} {
			if !strings.Contains(outs[r], want) {
				t.Errorf("rank %d: conflict error missing %q:\n%s", r, want, outs[r])
			}
		}
	}
}

func TestCLIBenchList(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test in short mode")
	}
	dir := t.TempDir()
	bench := buildTool(t, dir, "./cmd/dibella-bench")
	out, err := exec.Command(bench, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("dibella-bench -list: %v\n%s", err, out)
	}
	for _, id := range []string{"table1", "table2", "fig3", "fig13"} {
		if !strings.Contains(string(out), id) {
			t.Errorf("missing experiment %q in list:\n%s", id, out)
		}
	}
	// Run the cheapest experiment end to end.
	out, err = exec.Command(bench, "-experiment", "table1", "-quiet").CombinedOutput()
	if err != nil {
		t.Fatalf("table1: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Cori") {
		t.Errorf("table1 output:\n%s", out)
	}
}

// TestCLIFlagValidation: nonsense flag values must be rejected at
// startup with a clear usage error (exit 2), not surface later as opaque
// panics or formation hangs. Unlike the other CLI smoke tests this one
// runs in -short mode too (and hence in CI): each case exits during flag
// validation, so the only real cost is one cached binary build.
func TestCLIFlagValidation(t *testing.T) {
	dir := t.TempDir()
	dibella := buildTool(t, dir, "./cmd/dibella")
	reads := filepath.Join(dir, "reads.fastq")
	if err := os.WriteFile(reads, []byte("@r0\nACGTACGTACGT\n+\nIIIIIIIIIIII\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-p", "0"}, "-p must be"},
		{[]string{"-p", "-3"}, "-p must be"},
		{[]string{"-k", "-1"}, "-k must be"},
		{[]string{"-k", "99"}, "-k must be"},
		{[]string{"-xdrop", "-7"}, "-xdrop must be"},
		{[]string{"-min-dist", "0"}, "-min-dist must be"},
		{[]string{"-m", "-2"}, "-m must be"},
		{[]string{"-error-rate", "1.5"}, "-error-rate must be"},
		{[]string{"-coverage", "0"}, "-coverage must be"},
		{[]string{"-genome", "-1"}, "-genome must be"},
		{[]string{"-nodes", "0"}, "-nodes must be"},
		{[]string{"-window", "0"}, "-window must be"},
		{[]string{"-seed", "foo"}, "unknown -seed"},
		{[]string{"-window", "7"}, "-window only applies"},
		{[]string{"-transport", "bogus"}, "unknown -transport"},
		{[]string{"-seed-mode", "bogus"}, "unknown -seed-mode"},
		{[]string{"-platform", "bogus"}, "unknown platform"},
		// The router's flag went with the router (PR 20); spelled in two
		// pieces so a grep for the name finds no Go source.
		{[]string{"-serve-addr", "127.0.0.1:0", "-route-" + "scorers", "x"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		args := append([]string{"-in", reads}, tc.args...)
		out, err := exec.Command(dibella, args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: want usage exit 2, got err=%v\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: output missing %q:\n%s", tc.args, tc.want, out)
		}
	}
}
