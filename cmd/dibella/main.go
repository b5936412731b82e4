// Command dibella runs the distributed long-read overlap + alignment
// pipeline on a FASTQ/FASTA read set and writes PAF alignment records.
//
// Usage:
//
//	dibella -in reads.fastq -out overlaps.paf -p 8 -seed-mode one
//	dibella -in reads.fastq -seed minimizer -window 5   # sparse minimizer seeding
//	dibella -in reads.fastq -platform cori -nodes 8     # modeled platform run
//	dibella -in reads.fastq -transport tcp -p 4         # 4 OS processes over TCP
//	dibella -in reads.fastq -hosts n1,n2:4 -p 8         # multi-host world
//	dibella -join n1:33441                              # enter a -hosts world at its rendezvous
//	dibella -in reads.fastq -ckpt-dir ck -p 8           # snapshot stage boundaries
//	dibella -resume ck -p 4                             # restart (any world size)
//	dibella -in reads.fastq -serve-addr 127.0.0.1:7913  # resident query daemon
//	dibella -in reads.fastq -cpuprofile cpu.prof        # profile the run (per rank process on tcp)
//
// With -serve-addr the process becomes a resident alignment daemon: the
// world stays formed after the load and build stages, and rank 0 answers
// FASTQ query batches (sent by dibella-query) against the resident index,
// under admission control — see the README's "Serve mode" section and
// docs/SERVE.md.
//
// With -transport tcp the process acts as a launcher: it binds the world's
// rendezvous port, forks P-1 copies of itself as worker processes (ranks
// 1..P-1, coordinates passed through DIBELLA_* environment variables —
// see the README's env-var contract), and participates as rank 0. The
// workers form a full TCP mesh with rank 0 and run the identical
// bulk-synchronous pipeline; output is byte-identical to a -transport mem
// run. On either transport each rank parses only its byte-range shard of
// the input (cooperative I/O); gzip and FASTA, which cannot be split, are
// parsed once, by rank 0, and re-homed.
//
// With -hosts the same launcher spans machines (-transport tcp alone is
// the host list "127.0.0.1:P"): it assigns each host a contiguous rank
// range and prints the one address of the world, its rendezvous, in the
// `dibella -join <addr>` command to run on each remote host. Workers
// inherit the launcher's command line, -form-timeout included. Host entries that resolve to loopback are simulated — the launcher
// forks their agents locally — so a multi-host launch can be rehearsed on
// one machine. Schedulers that already place one process per rank skip all
// of this by exporting DIBELLA_RANK, DIBELLA_WORLD_SIZE, and
// DIBELLA_RENDEZVOUS directly.
//
// However a multi-process world was launched, it is configured one way:
// once it has formed, rank 0's flags travel to every other rank, which
// adopts them. A join command or a scheduler-placed rank therefore needs
// no config flags, and one whose flag disagrees with rank 0's fails the
// run on every rank, naming it.
//
// With -ckpt-dir the pipeline snapshots its state at every stage boundary
// (sharded read store after loading, k-mer DHT partitions after
// construction, overlap task sets after detection) into per-rank segment
// files plus a rank-0 manifest; -resume <dir> restarts from the latest
// complete snapshot — at any world size, re-sharding the state across
// the new ranks — with PAF output byte-identical to an uninterrupted
// run. See the README's "Checkpoint & resume" section.
//
// With -platform, the report additionally carries modeled per-stage times
// for the chosen machine (see -breakdown).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"dibella/internal/fastq"
	"dibella/internal/machine"
	"dibella/internal/paf"
	"dibella/internal/pipeline"
	"dibella/internal/serve"
	"dibella/internal/spmd"
	"dibella/internal/stats"
	"dibella/internal/trace"
)

func main() {
	params := bindFlags(flag.CommandLine)
	flag.Parse()
	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// Pick the bootstrap that matches how this process was started: placed
	// by its environment (a launcher's or agent's fork, a scheduler's job
	// script; -rank/-rendezvous style flags do not exist, so internal
	// plumbing cannot be passed by hand), told where to -join, or a launcher
	// itself. None means goroutine ranks in this process.
	boot, err := spmd.BootstrapFromEnv(params.FormTimeout)
	if err != nil {
		fatal(err)
	}
	if boot == nil && params.Join != "" {
		boot = &spmd.HostJoinBootstrap{Addr: params.Join, Timeout: params.FormTimeout}
	}
	// Every process validates its own command line before any forking or
	// formation; a follower — whoever enters a world as anything but its
	// rank 0 — gets its configuration from rank 0 afterwards.
	placed, _ := boot.(*spmd.JoinBootstrap)
	follower := boot != nil && (placed == nil || placed.Rank != 0)
	plan, err := params.resolve(explicit, follower)
	if err != nil {
		usageError("%v", err)
	}
	if boot == nil && (params.Transport == "tcp" || params.Hosts != "") {
		hosts, err := params.hostList(explicit["p"])
		if err != nil {
			usageError("%v", err)
		}
		boot = &spmd.HostListBootstrap{Hosts: hosts, Timeout: params.FormTimeout}
	}
	// Multi-host modes and env-placed workers are TCP by construction.
	if boot != nil && explicit["transport"] && params.Transport == "mem" {
		usageError("-transport mem cannot form a multi-host world; drop it or use -transport tcp")
	}

	var rep *pipeline.Report
	var store *fastq.ReadStore
	defer prof.stop()
	if boot == nil {
		prof.start(params, "")
		rep, store, err = runInProcess(plan)
	} else {
		rep, store, err = runProcesses(boot, params, explicit)
	}
	if err != nil {
		fatal(err)
	}
	if rep == nil {
		return // not rank 0, or an untraced serve run
	}
	writeTrace(params.Trace, rep.Trace)
	if store != nil { // nil for a serve run: there is no batch PAF
		writeOutput(rep, rep.PAFRecordsFromStore(store), params.Out, params.Breakdown)
	}
}

// model builds the platform model shaped for a world of size ranks (nil
// when no platform was requested).
func (pl *runPlan) model(ranks int, announce bool) (*machine.Model, error) {
	if pl.platform == nil {
		return nil, nil
	}
	mdl, err := machine.NewModelScaled(*pl.platform, pl.params.Nodes, ranks)
	if err != nil {
		return nil, err
	}
	if announce {
		fmt.Fprintf(os.Stderr, "modeling %s, %d nodes (%d ranks) with %d ranks\n",
			pl.platform.Name, pl.params.Nodes, mdl.RealRanks(), ranks)
	}
	return mdl, nil
}

// runInProcess starts the run body on -p goroutine ranks, which share this
// process's plan; they load the input cooperatively, as process ranks do.
func runInProcess(plan *runPlan) (*pipeline.Report, *fastq.ReadStore, error) {
	p := plan.params
	if p.Trace != "" {
		trace.Enable(trace.DefaultCapacity)
	}
	mdl, err := plan.model(p.P, true)
	if err != nil {
		return nil, nil, err
	}
	return pipeline.InProcess(p.P, mdl, func(c *spmd.Comm) (*pipeline.Report, *fastq.ReadStore, error) {
		return runWorld(c, mdl, plan)
	})
}

// runProcesses forms this process's endpoint of a TCP world via the
// bootstrap, agrees the configuration with the other ranks, starts the run
// body, and reaps whatever the bootstrap forked. The plan and the platform
// model come from the agreed values and the formed world's size — a join
// agent or scheduler-placed rank learns both only here, not from its flags.
func runProcesses(boot spmd.Bootstrap, params *runParams, explicit map[string]bool) (
	rep *pipeline.Report, store *fastq.ReadStore, err error) {

	tr, err := spmd.Connect(boot)
	if err != nil {
		return nil, nil, boot.Finish(err)
	}
	var plan *runPlan
	var mdl *machine.Model
	prof.start(params, fmt.Sprintf(".rank%d", tr.Rank()))
	if err = agreeParams(tr, params, explicit); err == nil {
		plan, err = params.resolve(nil, false)
	}
	if err == nil {
		// Every rank records, or the teardown gather has no full timeline.
		if params.Trace != "" {
			trace.Enable(trace.DefaultCapacity)
		}
		mdl, err = plan.model(tr.Size(), tr.Rank() == 0)
	}
	if err != nil {
		// Deterministic in what every rank now holds, so all ranks fail
		// alike; abort just backstops a partial world.
		tr.Abort()
		tr.Close()
		return nil, nil, boot.Finish(err)
	}
	var comm spmd.CommModel
	if mdl != nil {
		comm = mdl
	}
	err = spmd.RunTransport(tr, comm, func(c *spmd.Comm) error {
		r, s, err := runWorld(c, mdl, plan)
		if c.Rank() == 0 {
			rep, store = r, s
		}
		return err
	})
	return rep, store, boot.Finish(err)
}

// agreeParams is the one way configuration crosses a process boundary,
// however a rank was launched — forked worker, join agent, an agent's
// worker, scheduler-placed. Over the formed world each rank tells every
// other what was typed on its command line (rank 0 every shared flag, the
// others those they set explicitly), and all apply the same rule to the
// same answers (runParams.adopt). The exchange belongs to forming the
// world, not to the run: it precedes the Comm, its clock and the platform
// model, which -platform — one of the values agreed — selects.
func agreeParams(tr spmd.Transport, params *runParams, explicit map[string]bool) error {
	set := explicit
	if tr.Rank() == 0 {
		set = nil
	}
	blob, err := params.encode(set)
	if err != nil {
		return err
	}
	recv, err := spmd.FormationAllgather(tr, blob)
	if err != nil {
		return fmt.Errorf("agreeing the run configuration: %w", err)
	}
	said := make([]map[string]string, len(recv))
	for r, b := range recv {
		if err := json.Unmarshal(b, &said[r]); err != nil {
			return fmt.Errorf("rank %d's run configuration: %w", r, err)
		}
	}
	return params.adopt(said, tr.Rank())
}

// runWorld is the run body: what every rank of the world executes,
// whichever transport backs c. It obtains the read store — a resume's
// snapshot, else this rank's part of a cooperative load — then resumes,
// executes or serves. The caller keeps rank 0's report and store.
func runWorld(c *spmd.Comm, mdl *machine.Model, plan *runPlan) (
	*pipeline.Report, *fastq.ReadStore, error) {

	p := plan.params
	root := c.Rank() == 0
	if p.Resume != "" {
		rep, store, err := pipeline.ResumeComm(c, mdl, p.Resume, plan.reschedule, plan.ckpt)
		if err == nil && root {
			fmt.Fprintf(os.Stderr, "resumed %s: %s\n", p.Resume, store.Stats())
		}
		return rep, store, err
	}
	store, err := pipeline.LoadStore(c, p.In)
	if err != nil {
		return nil, nil, err
	}
	if root {
		fmt.Fprintf(os.Stderr, "loaded %s cooperatively: %s (rank 0 parsed %d bytes)\n",
			p.In, store.Stats(), store.ParsedBytes)
	}
	if plan.serve == nil {
		rep, err := pipeline.ExecuteComm(c, mdl, store, plan.cfg, plan.ckpt)
		return rep, store, err
	}
	// The resident daemon: form the world, serve until the batch budget is
	// spent or a client requests shutdown, print rank 0's lifetime stats.
	opts := *plan.serve
	if root {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	w, err := pipeline.FormWorld(c, mdl, store, plan.cfg)
	if err != nil {
		return nil, nil, err
	}
	st, err := serve.Serve(w, opts)
	if err != nil {
		return nil, nil, err
	}
	if root {
		fmt.Fprintf(os.Stderr, "serve: done: served=%d rejected=%d modeled=%.4fs\n",
			st.Served, st.Rejected, st.VirtualSeconds)
	}
	// A serve run has no batch PAF, hence no store; its report carries only
	// the trace. The teardown gather is collective, so every rank calls it.
	if !trace.Enabled() {
		return nil, nil, nil
	}
	ranks, err := pipeline.GatherTrace(c)
	if err != nil {
		return nil, nil, err
	}
	return &pipeline.Report{Trace: ranks}, nil, nil
}

// writeTrace writes the gathered flight-recorder buffers as a Chrome
// trace-event file. A no-op when tracing is off or on ranks that did not
// receive the gather (everyone but rank 0).
func writeTrace(path string, ranks []trace.RankEvents) {
	if path == "" || ranks == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	werr := trace.WriteChrome(f, ranks)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fatal(werr)
	}
	fmt.Fprintf(os.Stderr, "trace: wrote %s (%d ranks; open in Perfetto or chrome://tracing)\n", path, len(ranks))
}

// writeOutput prints the run summary (and breakdown) and writes the PAF
// stream.
func writeOutput(rep *pipeline.Report, recs []paf.Record, outPath string, breakdown bool) {
	fmt.Fprintln(os.Stderr, rep.Summary())
	if breakdown {
		printBreakdown(rep)
	}
	w := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := paf.Write(w, recs); err != nil {
		fatal(err)
	}
}

func printBreakdown(rep *pipeline.Report) {
	// "exch bytes" is the stage's total all-to-all payload across ranks —
	// the column to watch when comparing -seed minimizer against exact
	// seeding, since minimizers shrink wire volume, not stage structure.
	// "peak mem" is the largest single rank's resident bytes measured at
	// the stage boundary — the number that decides whether a problem fits
	// a machine, which per-rank averages hide. For the two build stages it
	// includes what they exchange through: the ring of send rows and, over
	// TCP, the received frames borrowed from the pool.
	headers := []string{"stage", "wall", "modeled s", "exchange s", "overlapped s", "hidden", "exch bytes", "peak mem"}
	var rows [][]string
	for _, s := range pipeline.Stages {
		hidden := "-"
		if ex := rep.StageExchangeVirtual(s); ex > 0 {
			hidden = fmt.Sprintf("%.0f%%", rep.StageOverlapVirtual(s)/ex*100)
		}
		peak := "-"
		if m := rep.StageMemPeak(s); m > 0 {
			peak = fmt.Sprintf("%d", m)
		}
		rows = append(rows, []string{
			string(s),
			rep.StageWall(s).String(),
			fmt.Sprintf("%.4f", rep.StageVirtual(s)),
			fmt.Sprintf("%.4f", rep.StageExchangeVirtual(s)),
			fmt.Sprintf("%.4f", rep.StageOverlapVirtual(s)),
			hidden,
			fmt.Sprintf("%d", rep.StageExchangeBytes(s)),
			peak,
		})
	}
	rows = append(rows, []string{
		"total", "", "", "", "", "", fmt.Sprintf("%d", rep.ExchangeBytes()), "",
	})
	fmt.Fprint(os.Stderr, stats.FormatTable(headers, rows))
	fmt.Fprintf(os.Stderr, "alignment load imbalance: %.3f (tasks %.4f)\n",
		rep.AlignImbalance(), rep.TaskImbalance())
	fmt.Fprintln(os.Stderr, pipeline.DescribeLoad(rep))
	fmt.Fprintln(os.Stderr, pipeline.DescribeAlignRate(rep))
	fmt.Fprintln(os.Stderr, pipeline.DescribeWait(rep))
}

// fatal reports a failure and exits, distinguishing the deliberate
// post-checkpoint abort (exit 3, so restart drills can assert on it)
// from real errors (exit 1).
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dibella:", err)
	prof.stop()
	if errors.Is(err, pipeline.ErrCkptAbort) {
		os.Exit(3)
	}
	os.Exit(1)
}

// usageError rejects bad flag values at startup with the message plus the
// flag reference, exiting with the conventional usage status.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dibella: %s\n", fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}
