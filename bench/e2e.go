package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dibella/internal/pipeline"
	"dibella/internal/serve"
)

// serveClients is the closed loop's width: each client sends its next
// query only when the previous answer has arrived.
const serveClients = 2

// usage is what one program run cost.
type usage struct {
	Wall  float64 `json:"wall_s"`
	CPU   float64 `json:"cpu_s"`       // user+sys of the process tree
	RSSMB float64 `json:"max_rss_mib"` // max RSS of any one process of the tree
}

// dibella runs the built binary on in with p ranks and returns its cost and
// the PAF it wrote. The run goes through a small launcher process (this
// binary, see launch) so that max RSS is the program's and not ours.
func (b *bench) dibella(in, out string, p int, extra ...string) (usage, []byte, error) {
	args := append([]string{"-launch", b.bin, "-in", in, "-out", out, "-p", strconv.Itoa(p),
		"-k", strconv.Itoa(kmerLen), "-m", strconv.Itoa(maxFreq)}, extra...)
	cmd := exec.Command(b.self, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	report, err := cmd.Output()
	if err != nil {
		return usage{}, nil, fmt.Errorf("dibella %s: %w: %s", strings.Join(args[2:], " "), err, lastLine(stderr.Bytes()))
	}
	var u usage
	if err := json.Unmarshal(report, &u); err != nil {
		return usage{}, nil, fmt.Errorf("launcher report %q: %w", report, err)
	}
	paf, err := os.ReadFile(out)
	return u, paf, err
}

// launcherMode turns this process into the launcher, and never returns,
// when it was started as `<binary> -launch <program> <args...>`.
func launcherMode() {
	if len(os.Args) < 3 || os.Args[1] != "-launch" {
		return
	}
	if err := launch(os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench: launch:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// launch runs argv as a child, waits, and prints what it cost as JSON. Linux seeds a child's ru_maxrss with the high-water mark of
// the address space it was forked from, so a program started directly by
// the harness would report the harness's own (larger) peak; started from
// this freshly exec'ed process it reports its own.
func launch(argv []string) error {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return err
	}
	wall := time.Since(t0).Seconds()
	ps := cmd.ProcessState
	return json.NewEncoder(os.Stdout).Encode(usage{
		Wall:  wall,
		CPU:   (ps.UserTime() + ps.SystemTime()).Seconds(),            // the child and every descendant it waited for
		RSSMB: float64(ps.SysUsage().(*syscall.Rusage).Maxrss) / 1024, // Linux reports KiB
	})
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// daemon is a resident `dibella -serve-addr` process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	logs sync.WaitGroup // the stderr reader
}

// startDaemon launches the serve daemon on in and returns once its
// frontend accepts, i.e. after load and index build.
func (b *bench) startDaemon(in string) (*daemon, error) {
	cmd := exec.Command(b.bin, "-in", in, "-p", strconv.Itoa(ranks),
		"-k", strconv.Itoa(kmerLen), "-m", strconv.Itoa(maxFreq), "-serve-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	addr := make(chan string, 1) // the reader sends at most once and must never block on it
	var last string              // read by the caller only after addr is closed
	d.logs.Add(1)
	go func() {
		defer d.logs.Done()
		defer close(addr)
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() { // keeps draining for the daemon's lifetime: it logs every batch
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "serve: listening on "); ok && !sent {
				addr <- strings.Fields(rest)[0]
				sent = true
			}
			if !sent {
				last = line
			}
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			cmd.Wait()
			return nil, fmt.Errorf("serve daemon exited before listening: %s", last)
		}
		d.addr = a
		return d, nil
	case <-time.After(2 * time.Minute):
		d.kill()
		return nil, fmt.Errorf("serve daemon did not listen within 2 minutes")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.logs.Wait()
	d.cmd.Wait()
}

// requestShutdown asks the daemon at addr to drain and exit. The daemon
// signals its serving loop before it writes the acknowledgement, so the
// teardown that follows can cut the acknowledgement off mid-frame ("truncated
// frame payload: EOF", about one shutdown in three on this host). Only a
// dial failure or a typed refusal is an error here; that the shutdown took
// is for the caller to see from the daemon ending.
func requestShutdown(addr, tenant string) error {
	cl, err := serve.DialTimeout(addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := cl.Shutdown(tenant); err != nil {
		if _, refused := serve.RejectionCode(err); refused {
			return err
		}
	}
	return nil
}

// stop asks the daemon to drain and exit, and waits until it has.
func (d *daemon) stop() error {
	if err := requestShutdown(d.addr, ""); err != nil {
		d.kill()
		return err
	}
	exited := make(chan error, 1)
	go func() {
		d.logs.Wait()
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("serve daemon did not exit within 30 s of shutdown")
	}
}

// stolenSeconds is how long, so far and summed over CPUs, a vCPU of this
// guest had work to run while the hypervisor ran something else: the steal
// column of /proc/stat. Zero where the file or the column is missing.
func stolenSeconds() float64 {
	b, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100
}

// cpuSeconds is the daemon's user+sys time so far (all threads), at the
// kernel's 100 Hz tick.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat line %q", b)
	}
	return (ut + st) / 100, nil
}

// peakRSSMB is the daemon's high-water resident set (VmHWM), MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// querySample is one answered query as its client saw it.
type querySample struct {
	start, end time.Time
	waitS      float64 // server-reported queue wait
	replyBytes int
}

// queryPass sends every query once, as single-read batches, over
// serveClients closed-loop connections to addr. Each query is one
// operation in t; samples holds the successful ones. ref[i] is the PAF
// query i must return.
func queryPass(addr, tenant string, queries []pipeline.QueryRead, ref [][]byte, t *tally) (samples []querySample, wall float64, err error) {
	clients := make([]*serve.Client, serveClients)
	for i := range clients {
		if clients[i], err = serve.DialTimeout(addr, 30*time.Second); err != nil {
			return nil, 0, err
		}
		defer clients[i].Close()
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(queries); i += serveClients {
				s := querySample{start: time.Now()}
				res, err := cl.Query(tenant, queries[i:i+1])
				s.end = time.Now()
				if err == nil && !bytes.Equal(res.PAF, ref[i]) {
					err = fmt.Errorf("query %d: served PAF differs from the reference", i)
				}
				mu.Lock()
				if t.ok(err) {
					s.waitS, s.replyBytes = res.QueueWaitSecs, len(res.PAF)
					samples = append(samples, s)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(t0).Seconds(), nil
}

func latenciesMS(samples []querySample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.end.Sub(s.start).Seconds() * 1e3
	}
	return out
}

// reference makes in's batch reference: the same input and seeding mode on
// one rank, the in-process transport and the paper's bulk-synchronous
// schedule (flags later in the list win). Its wall time is the single-rank
// baseline.
func (b *bench) reference(in *instance) error {
	args := append(append([]string(nil), in.w.args...), "-transport", "mem", "-async-exchange=false")
	u, paf, err := b.dibella(in.allPath, filepath.Join(filepath.Dir(in.allPath), "ref.paf"), 1, args...)
	in.refPAF, in.refWall = paf, u.Wall
	return err
}

// runner measures one workload end to end: set-up, then timed units.
type runner struct {
	b     *bench
	w     *workload
	dir   string
	in    *instance
	d     *daemon // serve workloads: the resident daemon of the last set-up
	tally tally

	setup, setupStolen     []float64 // per set-up repetition
	wall, cpu, stolen      []float64 // per timed unit
	rss                    []float64 // batch: per timed unit; serve: per set-up's daemon (daemonPeak)
	latP50, latP90, perSec []float64 // serve: per pass
	latAll                 []float64 // serve: pooled over passes, ms
}

// setupReps is how many times a workload's set-up is performed in a run;
// setup_s is their median.
const setupReps = 5

// prepare performs the workload's set-up setupReps times and keeps the
// last: inputs generated and written, the reference outputs made, and for a
// serve workload (when resident is set) the daemon started and accepting.
func (r *runner) prepare(resident bool) error {
	for i := 0; i < setupReps; i++ {
		if err := r.close(); err != nil { // the previous repetition's daemon
			return err
		}
		st0, t0 := stolenSeconds(), time.Now()
		in, err := r.w.generate(r.dir, r.b.seed, r.b.scale)
		if err != nil {
			return err
		}
		if r.w.serve {
			if in.refQuery, err = serveReference(in); err != nil {
				return err
			}
			in.recall, err = serveRecall(in.ds, uint32(len(in.indexed)), in.refQuery, r.w.minOverlap)
			if err != nil {
				return err
			}
			if resident {
				if r.d, err = r.b.startDaemon(in.idxPath); err != nil {
					return err
				}
			}
		} else {
			if err := r.b.reference(in); err != nil {
				return err
			}
			if in.recall, err = batchRecall(in.ds, in.refPAF, r.w.minOverlap); err != nil {
				return err
			}
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		r.setupStolen = append(r.setupStolen, stolenSeconds()-st0)
		r.in = in
		if r.d != nil {
			if err := r.daemonPeak(); err != nil {
				return err
			}
		}
	}
	return nil
}

// daemonPeak sends the fresh daemon one untimed, checked pass of every query
// and notes its high-water mark (VmHWM): the memory of an index build plus a
// fixed amount of serving. Read any later, the mark would creep up with
// however many passes the run's seconds happened to hold. It moves by +-8%
// from daemon to daemon, on both sides, with where collection cycles fall in
// the build; peak_rss_mb is the median over the set-ups' daemons.
func (r *runner) daemonPeak() error {
	if _, _, err := queryPass(r.d.addr, "", r.in.queries, r.in.refQuery, &r.tally); err != nil {
		return err
	}
	mb, err := r.d.peakRSSMB()
	r.rss = append(r.rss, mb)
	return err
}

// unit runs one timed unit: a whole dibella run, or one pass of every
// query. A warm-up unit is checked but not timed.
func (r *runner) unit(warmup bool) error {
	st0 := stolenSeconds()
	var u usage
	var stolen float64 // while the unit ran, not while it was checked
	if r.w.serve {
		cpu0, err := r.d.cpuSeconds()
		if err != nil {
			return err
		}
		failedBefore := r.tally.Failed
		samples, wall, err := queryPass(r.d.addr, "", r.in.queries, r.in.refQuery, &r.tally)
		stolen = stolenSeconds() - st0
		if err != nil {
			return err
		}
		cpu1, err := r.d.cpuSeconds()
		if err != nil {
			return err
		}
		if r.tally.Failed > failedBefore || warmup {
			return nil
		}
		u = usage{Wall: wall, CPU: cpu1 - cpu0}
		lat := latenciesMS(samples)
		r.latAll = append(r.latAll, lat...)
		r.latP50 = append(r.latP50, quantile(lat, 0.5))
		r.latP90 = append(r.latP90, quantile(lat, 0.9))
		r.perSec = append(r.perSec, float64(len(lat))/wall)
	} else {
		var paf []byte
		var err error
		u, paf, err = r.b.dibella(r.in.allPath, filepath.Join(r.dir, "out.paf"), ranks, r.w.args...)
		stolen = stolenSeconds() - st0
		if err == nil {
			err = checkPAF(paf, r.in.refPAF)
		}
		if !r.tally.ok(err) || warmup {
			return nil
		}
		r.rss = append(r.rss, u.RSSMB)
	}
	r.stolen = append(r.stolen, stolen)
	r.wall = append(r.wall, u.Wall)
	r.cpu = append(r.cpu, u.CPU)
	return nil
}

// close stops the daemon, if any.
func (r *runner) close() error {
	if r.d == nil {
		return nil
	}
	d := r.d
	r.d = nil
	return d.stop()
}

// measureRounds drives the runners round-robin: one untimed warm-up round,
// then timed rounds until the stop rule says enough — exactly b.rounds when
// set, otherwise b.seconds of measuring per workload (and at least
// minRounds, so a quantile always has samples).
func (b *bench) measureRounds(rs []*runner) error {
	const minRounds = 5
	var t0 time.Time
	for round := 0; ; round++ {
		if round == 1 {
			t0 = time.Now()
		}
		for _, i := range roundOrder(round, len(rs)) {
			if err := rs[i].unit(round == 0); err != nil {
				return fmt.Errorf("%s: %w", rs[i].w.name, err)
			}
		}
		switch {
		case b.rounds > 0:
			if round == b.rounds {
				return nil
			}
		case round >= minRounds && time.Since(t0).Seconds() >= b.seconds*float64(len(rs)):
			return nil
		}
	}
}

// endToEnd turns the runner's samples into the workload's end-to-end
// metrics. Nothing is normalised. Timed quantities are the lower decile
// over rounds (a shared host's noise is one-sided: neighbours only ever slow
// a run down; see lowQ), with the time the hypervisor took from the round
// removed and the rounds it took much from set aside; see undisturbed and
// settled.
func (r *runner) endToEnd() (map[string]float64, map[string]summary, error) {
	n := len(r.wall)
	if n == 0 {
		return nil, nil, fmt.Errorf("%s: no timed unit succeeded: %s", r.w.name, r.tally.FirstErr)
	}
	ncpu := float64(runtime.NumCPU()) // stolen seconds are summed over every CPU of the guest
	wall, cpu, quiet := make([]float64, n), make([]float64, n), make([]bool, n)
	for i := range wall {
		wall[i], cpu[i] = undisturbed(r.wall[i], r.cpu[i], r.stolen[i], ncpu)
		quiet[i] = r.stolen[i] <= quietShare*r.wall[i]
	}
	setup := make([]float64, len(r.setup))
	for i, s := range r.setup {
		setup[i], _ = undisturbed(s, s, r.setupStolen[i], ncpu) // set-up is mostly one thread: CPU time = wall
	}
	m := map[string]float64{
		"setup_s":     quantile(setup, 0.5),
		"wall_s":      settled(wall, quiet, lowQ),
		"cpu_s":       settled(cpu, quiet, lowQ),
		"peak_rss_mb": quantile(r.rss, 0.5),
		"recall":      r.in.recall,
	}
	raw := map[string]summary{
		"setup_s": summarize(r.setup), "setup_stolen_s": summarize(r.setupStolen),
		"wall_s": summarize(r.wall), "cpu_s": summarize(r.cpu), "stolen_s": summarize(r.stolen),
		"peak_rss_mb": summarize(r.rss),
	}
	if r.w.serve {
		// What a client sees, beside the pass-level metrics above. These are
		// printed and recorded; the gated copies live in the serve layer.
		perSec := make([]float64, n)
		for i := range perSec {
			perSec[i] = r.perSec[i] * r.wall[i] / wall[i]
		}
		m["query_ms_p50"] = settled(r.latP50, quiet, lowQ)
		m["query_ms_p90"] = settled(r.latP90, quiet, lowQ)
		m["queries_per_s"] = settled(perSec, quiet, 1-lowQ)
		raw["query_ms_p50"] = summarize(r.latP50)
		raw["query_ms_p90"] = summarize(r.latP90)
		raw["queries_per_s"] = summarize(r.perSec)
		raw["query_ms_pooled"] = summarize(r.latAll)
	} else {
		m["speedup_p2_over_p1"] = r.in.refWall / m["wall_s"]
	}
	return m, raw, nil
}
