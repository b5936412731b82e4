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
//	dibella -join n1:33441                              # enter a -hosts world
//	dibella -in reads.fastq -ckpt-dir ck -p 8           # snapshot stage boundaries
//	dibella -resume ck -p 4                             # restart (any world size)
//	dibella -in reads.fastq -serve-addr 127.0.0.1:7913  # resident query daemon
//
// With -serve-addr the process becomes a resident alignment daemon: the
// world stays formed after the load and build stages, and rank 0 answers
// FASTQ query batches (sent by dibella-query) against the resident index,
// with admission control and weighted query routing — see the README's
// "Serve mode" section and docs/SERVE.md.
//
// With -transport tcp the process acts as a launcher: it binds a loopback
// rendezvous port, forks P-1 copies of itself as worker processes (ranks
// 1..P-1, coordinates passed through DIBELLA_* environment variables —
// see the README's env-var contract), and participates as rank 0. The
// workers form a full TCP mesh with rank 0 and run the identical
// bulk-synchronous pipeline; each rank parses only its byte-range shard
// of the input (cooperative I/O) and output is byte-identical to a
// -transport mem run.
//
// With -hosts (or -hostfile) the world spans machines: the launcher
// assigns each host a contiguous rank range, binds public rendezvous and
// join ports, and prints the `dibella -join <addr>` command to run on
// each remote host. The launcher's resolved configuration ships to every
// joiner in the formation handshake, so join commands need no other
// flags; a joiner that passes conflicting config flags fails formation
// with a clear error. Host entries that resolve to loopback are
// simulated — the launcher forks their join agents locally — so a
// multi-host launch can be rehearsed on one machine. Schedulers that
// already place one process per rank skip all of this by exporting
// DIBELLA_RANK, DIBELLA_WORLD_SIZE, and DIBELLA_RENDEZVOUS directly.
//
// With -ckpt-dir the pipeline snapshots its state at stage boundaries
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
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dibella/internal/fastq"
	"dibella/internal/kmer"
	"dibella/internal/machine"
	"dibella/internal/overlap"
	"dibella/internal/paf"
	"dibella/internal/pipeline"
	"dibella/internal/serve"
	"dibella/internal/spmd"
	"dibella/internal/stats"
	"dibella/internal/trace"
)

func main() {
	var (
		in       = flag.String("in", "", "input FASTQ/FASTA file (required unless -resume)")
		out      = flag.String("out", "", "output PAF file (default: stdout)")
		p        = flag.Int("p", 8, "number of ranks (goroutines, or processes with -transport tcp)")
		k        = flag.Int("k", 0, "k-mer length (0: derive from -error-rate/-genome)")
		maxFreq  = flag.Int("m", 0, "high-frequency k-mer cutoff (0: derive)")
		seedMode = flag.String("seed-mode", "one", "seed exploration: one | dist | all")
		seed     = flag.String("seed", "exact", "seed extraction: exact (every k-mer) | minimizer ((w,k)-minimizers only; see -window)")
		window   = flag.Int("window", 5, "minimizer window w for -seed minimizer: ship only each window's minimum-hash k-mer, ~2/(w+1) of the k-mer volume")
		minDist  = flag.Int("min-dist", 1000, "min seed separation for -seed-mode dist")
		xdrop    = flag.Int("xdrop", 7, "x-drop threshold")
		minScore = flag.Int("min-score", 0, "drop alignments scoring below this")
		errRate  = flag.Float64("error-rate", 0.15, "per-base error rate (for parameter derivation)")
		coverage = flag.Float64("coverage", 30, "sequencing depth (for parameter derivation)")
		genome   = flag.Float64("genome", 4.64e6, "estimated genome size (for k derivation)")
		useHLL   = flag.Bool("hll", false, "size the Bloom filter via HyperLogLog")
		platform = flag.String("platform", "", "model a platform: cori | edison | titan | aws")
		nodes    = flag.Int("nodes", 1, "modeled node count (with -platform)")
		showBrk  = flag.Bool("breakdown", false, "print the per-stage time breakdown")

		asyncEx  = flag.Bool("async-exchange", true, "overlap exchanges with computation via non-blocking collectives (same output; disable for the paper's bulk-synchronous schedule)")
		allSeeds = flag.Bool("keep-all-seed-alignments", false, "emit one PAF row per explored seed instead of the best per (pair, strand)")

		replyChunk = flag.Int("reply-chunk", spmd.DefaultChunkBytes, "stream the alignment stage's read-reply exchange in per-peer chunks of this many bytes, aligning tasks as their sequences land (same output; requires -async-exchange)")
		replyDepth = flag.Int("reply-depth", spmd.DefaultStreamDepth, fmt.Sprintf("streamed reply chunk exchanges kept in flight, 1..%d (with -reply-chunk)", spmd.MaxStreamDepth))
		buildDepth = flag.Int("build-depth", 0, fmt.Sprintf("DHT-build exchange rounds kept in flight per pass, 1..%d (0: default 2; schedule-only, the built table is identical at every depth)", spmd.MaxStreamDepth))

		tracePath   = flag.String("trace", "", "record per-rank flight-recorder timelines and write a Chrome trace-event file here at teardown (open in Perfetto; observability-only: output is byte-identical with or without it)")
		metricsAddr = flag.String("metrics-addr", "", "serve mode: rank 0 serves Prometheus /metrics and /debug/pprof/ on this address")

		serveAddr     = flag.String("serve-addr", "", "serve mode: keep the formed world resident and answer FASTQ query batches on this frontend address (see the README's \"Serve mode\")")
		serveInflight = flag.Int("serve-max-inflight", 4, "serve mode: bound on admitted-but-unfinished batches; the excess is rejected queue-full")
		serveMaxReads = flag.Int("serve-max-batch-reads", 1024, "serve mode: per-batch read limit; larger batches are rejected too-large")
		serveTenants  = flag.String("serve-tenants", "", "serve mode: comma-separated tenant allow list (empty admits any tenant)")
		routeScorers  = flag.String("route-scorers", "", "serve mode: weighted routing profile as name:weight,... over queue-depth, mem-utilization, load-balance (default queue-depth:2,mem-utilization:2,load-balance:1)")
		serveBatches  = flag.Int("serve-batches", 0, "serve mode: exit after serving this many batches (0: serve until a client requests shutdown)")

		ckptDir   = flag.String("ckpt-dir", "", "snapshot pipeline state at stage boundaries into this directory (per-rank segments + rank-0 manifest)")
		ckptEvery = flag.String("ckpt-every", "", "comma-separated stage boundaries to snapshot: load, dht, overlap (default: all; with -ckpt-dir)")
		ckptAbort = flag.String("ckpt-abort-after", "", "abort the run right after this stage's snapshot commits — a kill switch for restart drills (with -ckpt-dir)")
		resume    = flag.String("resume", "", "restart from this checkpoint directory's latest complete snapshot (any -p; config comes from the snapshot manifest)")

		transport   = flag.String("transport", "mem", "spmd backend: mem (goroutine ranks) | tcp (one OS process per rank)")
		hosts       = flag.String("hosts", "", "comma-separated host[:ranks] list for a multi-host TCP world (first entry is this machine; loopback entries are simulated locally)")
		hostfile    = flag.String("hostfile", "", "file with one host[:ranks] per line (alternative to -hosts)")
		join        = flag.String("join", "", "enter a -hosts world: the launcher's join address printed at launch")
		formTimeout = flag.Duration("form-timeout", 30*time.Second, "world-formation deadline (dials, handshakes, host joins)")
	)
	flag.Parse()

	// A worker forked by a launcher (or placed by a scheduler) carries its
	// coordinates in DIBELLA_* env vars; -rank/-rendezvous style flags no
	// longer exist, so internal plumbing cannot be passed by hand.
	envBoot, isWorker, err := spmd.JoinBootstrapFromEnv()
	if err != nil {
		fatal(err)
	}
	joinAddr, hostIndex := *join, 0
	if joinAddr == "" {
		// Simulated host agents are forked with the join address in env.
		joinAddr = os.Getenv(spmd.EnvJoin)
		if idx := os.Getenv(spmd.EnvHostIndex); idx != "" {
			if hostIndex, err = strconv.Atoi(idx); err != nil {
				fatal(fmt.Errorf("%s=%q: %w", spmd.EnvHostIndex, idx, err))
			}
		}
	}
	// Joiners and env-placed workers may legitimately start with no config
	// flags at all: the launcher's configuration arrives in the formation
	// handshake (join agents) or the DIBELLA_CONFIG env blob (workers).
	remoteConfigured := isWorker || joinAddr != ""

	if *in == "" && *resume == "" && !remoteConfigured {
		usageError("-in is required (or -resume to restart from a snapshot)")
	}
	if *in != "" && *resume != "" {
		usageError("-in and -resume are mutually exclusive: a resumed run reads its input from the snapshot")
	}
	// Numeric flags are validated up front: a nonsense value otherwise
	// surfaces much later as an opaque panic (k=0 entering the k-mer
	// packer, p=0 dividing the read distribution) or a formation hang.
	switch {
	case *p < 1:
		usageError("-p must be at least 1 rank, got %d", *p)
	case *k < 0 || *k > kmer.MaxK:
		usageError("-k must be in [1,%d] (or 0 to derive it), got %d", kmer.MaxK, *k)
	case *maxFreq < 0:
		usageError("-m must be non-negative (0 derives it), got %d", *maxFreq)
	case *minDist < 1:
		usageError("-min-dist must be at least 1, got %d", *minDist)
	case *xdrop < 0:
		usageError("-xdrop must be non-negative, got %d", *xdrop)
	case *errRate < 0 || *errRate >= 1:
		usageError("-error-rate must be in [0,1), got %g", *errRate)
	case *coverage <= 0:
		usageError("-coverage must be positive, got %g", *coverage)
	case *genome <= 0:
		usageError("-genome must be positive, got %g", *genome)
	case *nodes < 1:
		usageError("-nodes must be at least 1, got %d", *nodes)
	case *replyChunk < 1:
		usageError("-reply-chunk must be at least 1, got %d", *replyChunk)
	case *replyDepth < 1 || *replyDepth > spmd.MaxStreamDepth:
		usageError("-reply-depth must be in [1,%d], got %d", spmd.MaxStreamDepth, *replyDepth)
	case *buildDepth < 0 || *buildDepth > spmd.MaxStreamDepth:
		usageError("-build-depth must be in [1,%d] (or 0 for the default), got %d", spmd.MaxStreamDepth, *buildDepth)
	case *serveInflight < 1:
		usageError("-serve-max-inflight must be at least 1, got %d", *serveInflight)
	case *serveMaxReads < 1:
		usageError("-serve-max-batch-reads must be at least 1, got %d", *serveMaxReads)
	case *serveBatches < 0:
		usageError("-serve-batches must be non-negative (0 serves until shutdown), got %d", *serveBatches)
	case *window < 1:
		usageError("-window must be at least 1 (1 degenerates to exact seeding), got %d", *window)
	case *formTimeout <= 0:
		usageError("-form-timeout must be positive, got %v", *formTimeout)
	}
	if *seed != "exact" && *seed != "minimizer" {
		usageError("unknown -seed %q (want exact or minimizer)", *seed)
	}
	if *transport != "mem" && *transport != "tcp" {
		fatal(fmt.Errorf("unknown -transport %q (want mem or tcp)", *transport))
	}
	if *hosts != "" && *hostfile != "" {
		fatal(fmt.Errorf("-hosts and -hostfile are mutually exclusive"))
	}
	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["window"] && *seed != "minimizer" {
		usageError("-window only applies with -seed minimizer")
	}
	if *serveAddr == "" {
		for _, name := range []string{"serve-max-inflight", "serve-max-batch-reads", "serve-tenants", "route-scorers", "serve-batches", "metrics-addr"} {
			if explicit[name] {
				usageError("-%s only applies in serve mode (set -serve-addr)", name)
			}
		}
	} else {
		// Serve mode keeps the formed world resident; the batch-only
		// features below are structurally incompatible with that.
		switch {
		case *resume != "":
			usageError("-serve-addr cannot restart from a snapshot: a serve index keeps singleton k-mers, which batch-mode snapshots prune")
		case *ckptDir != "":
			usageError("-serve-addr does not snapshot; drop -ckpt-dir")
		case *seed == "minimizer":
			usageError("-serve-addr requires exact seeding: queries cannot be answered against a minimizer-sparsified index")
		}
	}
	if *resume != "" {
		if err := resumeFlagError(explicit); err != nil {
			usageError("%v", err)
		}
	}
	// Multi-host modes and env-placed workers are TCP by construction.
	if remoteConfigured || *hosts != "" || *hostfile != "" {
		if explicit["transport"] && *transport == "mem" {
			fatal(fmt.Errorf("-transport mem cannot form a multi-host world; drop it or use -transport tcp"))
		}
		*transport = "tcp"
	}

	// Resolve the host list (launcher only): explicit per-host counts may
	// determine the world size on their own.
	var hostList []spmd.HostSpec
	if !remoteConfigured && (*hosts != "" || *hostfile != "") {
		if *hosts != "" {
			hostList, err = spmd.ParseHostList(*hosts)
		} else {
			hostList, err = spmd.ParseHostFile(*hostfile)
		}
		if err != nil {
			fatal(err)
		}
		explicitRanks, allExplicit := 0, true
		for _, h := range hostList {
			explicitRanks += h.Ranks
			allExplicit = allExplicit && h.Ranks > 0
		}
		if allExplicit && !explicit["p"] {
			*p = explicitRanks
		}
		if hostList, err = spmd.AssignHostRanks(hostList, *p); err != nil {
			fatal(err)
		}
	}
	if isWorker {
		// The forked command line still carries the launcher's flags;
		// the env contract is authoritative for world shape.
		*p = envBoot.Size
	}

	cfg := pipeline.Config{
		K: *k, MaxFreq: *maxFreq,
		MinDist: *minDist, XDrop: *xdrop, MinAlignScore: *minScore,
		ErrorRate: *errRate, Coverage: *coverage, GenomeEst: *genome,
		UseHLL: *useHLL, KeepAlignments: true,
		KeepAllSeedAlignments: *allSeeds,
		BuildDepth:            *buildDepth,
		// The resident index must keep singletons (and high-frequency
		// tombstones): a query occurrence can lift an indexed singleton to
		// a reportable pair.
		KeepSingletons: *serveAddr != "",
	}
	// Schedule selection: the paper's bulk-synchronous reference when
	// -async-exchange=false, the streamed schedule otherwise. Output is
	// byte-identical across the two.
	if *asyncEx {
		cfg.ReplyChunk = *replyChunk
		cfg.ReplyDepth = *replyDepth
	} else {
		if explicit["reply-chunk"] {
			usageError("-reply-chunk streams over non-blocking exchanges; drop it or re-enable -async-exchange")
		}
		cfg.Exchange = pipeline.ExchangeSync
	}
	switch *seedMode {
	case "one":
		cfg.SeedMode = overlap.OneSeed
	case "dist":
		cfg.SeedMode = overlap.MinDistance
	case "all":
		cfg.SeedMode = overlap.AllSeeds
	default:
		fatal(fmt.Errorf("unknown -seed-mode %q", *seedMode))
	}
	// Seed extraction: minimizer mode ships only (w,k)-minimizers through
	// both DHT build passes, cutting exchange volume to ~2/(w+1) of exact
	// seeding at a small recall cost (see the README's "Seeding modes").
	if *seed == "minimizer" {
		cfg.MinimizerWindow = *window
	}

	params := &runParams{
		In: *in, Platform: *platform, Nodes: *nodes,
		CkptDir: *ckptDir, CkptEvery: *ckptEvery, CkptAbortAfter: *ckptAbort,
		Resume: *resume, Trace: *tracePath, Cfg: cfg,
		Serve: serveParams{
			Enabled: *serveAddr != "", Addr: *serveAddr,
			MaxInflight: *serveInflight, MaxBatchReads: *serveMaxReads,
			Tenants: *serveTenants, Scorers: *routeScorers,
			MaxBatches: *serveBatches, MetricsAddr: *metricsAddr,
		},
	}
	// Checkpoint flag validation (stage-name typos) should beat forking.
	if _, err := params.ckptOptions(); err != nil {
		usageError("%v", err)
	}
	// Likewise the routing profile: a scorer typo fails at startup.
	if _, err := params.serveOptions(); err != nil {
		usageError("%v", err)
	}
	// An env-contract worker whose parent shipped the launcher's config (a
	// join agent's forked rank) adopts it wholesale: its own command line
	// is the agent's, possibly just `-join <addr>`.
	if blob, ok, err := spmd.ConfigFromEnv(); err != nil {
		fatal(err)
	} else if ok {
		adopted, err := decodeRunParams(blob)
		if err != nil {
			fatal(err)
		}
		params = adopted
	}
	// Resolve the platform early (flag errors should beat any forking);
	// the model itself is shaped per world size, which TCP processes may
	// only learn at world formation (join agents), so it is built later.
	if _, err := params.platform(); err != nil {
		fatal(err)
	}
	// Arm the flight recorder before any rank starts. Forked TCP workers
	// re-exec this command line (so they arm too); join agents learn the
	// launcher's trace path only at formation and arm in runTCP.
	if params.Trace != "" {
		trace.Enable(trace.DefaultCapacity)
	}

	if *transport == "mem" {
		if params.Serve.Enabled {
			runServeMem(params, *p)
			return
		}
		runMem(params, *p, *out, *showBrk)
		return
	}

	// TCP path: pick the bootstrap that matches how this process was
	// started, form the world, and run the pipeline with cooperative
	// sharded loading (or snapshot loading under -resume).
	var boot spmd.Bootstrap
	switch {
	case isWorker:
		envBoot.Timeout = pickTimeout(envBoot.Timeout, *formTimeout)
		boot = envBoot
	case joinAddr != "":
		boot = &spmd.HostJoinBootstrap{Addr: joinAddr, HostIndex: hostIndex, Timeout: *formTimeout}
	case hostList != nil:
		blob, err := params.encode()
		if err != nil {
			fatal(err)
		}
		boot = &spmd.HostListBootstrap{Hosts: hostList, Timeout: *formTimeout, ConfigBlob: blob}
	default:
		boot = &spmd.ForkBootstrap{Size: *p, Timeout: *formTimeout}
	}
	rep, store, rank, err := runTCP(boot, params, explicit)
	if err != nil {
		fatalRun(err)
	}
	if rank != 0 || rep == nil {
		return // workers, join agents, and serve runs: no batch PAF output
	}
	writeTrace(params.Trace, rep.Trace)
	writeOutput(rep, rep.PAFRecordsFromStore(store), *out, *showBrk)
}

// platform resolves the params' modeled platform (nil when unset).
func (p *runParams) platform() (*machine.Platform, error) {
	if p.Platform == "" {
		return nil, nil
	}
	pv, err := machine.PlatformByName(p.Platform)
	if err != nil {
		return nil, err
	}
	return &pv, nil
}

// model builds the platform model shaped for a world of size ranks (nil
// when no platform was requested).
func (p *runParams) model(ranks int, announce bool) (*machine.Model, error) {
	plat, err := p.platform()
	if err != nil {
		return nil, err
	}
	if plat == nil {
		return nil, nil
	}
	mdl, err := machine.NewModelScaled(*plat, p.Nodes, ranks)
	if err != nil {
		return nil, err
	}
	if announce {
		fmt.Fprintf(os.Stderr, "modeling %s, %d nodes (%d ranks) with %d ranks\n",
			plat.Name, p.Nodes, mdl.RealRanks(), ranks)
	}
	return mdl, nil
}

// runMem executes the run on p in-process goroutine ranks.
func runMem(params *runParams, p int, outPath string, showBrk bool) {
	mdl, err := params.model(p, true)
	if err != nil {
		fatal(err)
	}
	ckOpts, err := params.ckptOptions()
	if err != nil {
		fatal(err)
	}
	if params.Resume != "" {
		rep, store, err := pipeline.ExecuteResume(p, mdl, params.Resume, params.scheduleMutator(), ckOpts)
		if err != nil {
			fatalRun(err)
		}
		fmt.Fprintf(os.Stderr, "resumed %s: %s\n", params.Resume, store.Stats())
		writeTrace(params.Trace, rep.Trace)
		writeOutput(rep, rep.PAFRecordsFromStore(store), outPath, showBrk)
		return
	}
	reads, err := fastq.ReadFile(params.In)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loaded %s: %s\n", params.In, fastq.Summarize(reads))
	var rep *pipeline.Report
	if ckOpts != nil {
		rep, err = pipeline.ExecuteCkpt(p, mdl, reads, params.Cfg, *ckOpts)
	} else {
		rep, err = pipeline.Execute(p, mdl, reads, params.Cfg)
	}
	if err != nil {
		fatalRun(err)
	}
	writeTrace(params.Trace, rep.Trace)
	writeOutput(rep, rep.PAFRecords(reads), outPath, showBrk)
}

// runServeMem forms the world on p in-process goroutine ranks and runs
// the resident daemon until it serves its batch budget or a client
// requests shutdown.
func runServeMem(params *runParams, p int) {
	mdl, err := params.model(p, true)
	if err != nil {
		fatal(err)
	}
	reads, err := fastq.ReadFile(params.In)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loaded %s: %s\n", params.In, fastq.Summarize(reads))
	var comm spmd.CommModel
	if mdl != nil {
		comm = mdl
	}
	err = spmd.RunWithModel(p, comm, func(c *spmd.Comm) error {
		store := fastq.NewReadStore(reads, c.Size())
		return serveWorld(c, mdl, store, params)
	})
	if err != nil {
		fatalRun(err)
	}
}

// serveWorld is the collective serve body shared by both transports:
// form the resident world, run the daemon, and print rank 0's lifetime
// stats when it exits.
func serveWorld(c *spmd.Comm, mdl *machine.Model, store *fastq.ReadStore, params *runParams) error {
	opts, err := params.serveOptions()
	if err != nil {
		return err // validated at startup; unreachable for forked ranks too
	}
	if c.Rank() == 0 {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	w, err := pipeline.FormWorld(c, mdl, store, params.Cfg)
	if err != nil {
		return err
	}
	st, err := serve.Serve(w, opts)
	if err != nil {
		return err
	}
	if c.Rank() == 0 {
		fmt.Fprintf(os.Stderr, "serve: done: served=%d rejected=%d routed=%v modeled=%.4fs\n",
			st.Served, st.Rejected, st.RoutedPerRank, st.VirtualSeconds)
	}
	// The teardown trace gather is itself collective, so every rank calls
	// it; only rank 0 receives the buffers and writes the file.
	if trace.Enabled() {
		writeTrace(params.Trace, pipeline.GatherTrace(c))
	}
	return nil
}

// pickTimeout prefers the env-propagated formation deadline over the
// flag's (inherited, launcher-side) value.
func pickTimeout(env, flag time.Duration) time.Duration {
	if env > 0 {
		return env
	}
	return flag
}

// runTCP forms this process's world endpoint via the bootstrap, adopts
// the launcher's shipped configuration when one arrived in the
// formation handshake (join agents; explicit conflicting flags fail
// here), runs the pipeline collectively with cooperative sharded input
// loading — or snapshot loading under -resume — and reaps whatever the
// bootstrap forked. rank is this process's rank in the world (-1 if
// formation failed). The platform model is shaped to the formed world's
// size — a join agent or env worker learns that size only here, not
// from its own flags.
func runTCP(boot spmd.Bootstrap, params *runParams, explicit map[string]bool) (
	*pipeline.Report, *fastq.ReadStore, int, error) {

	tr, err := spmd.Connect(boot)
	if err != nil {
		return nil, nil, -1, boot.Finish(err)
	}
	rank := tr.Rank()
	bail := func(err error) (*pipeline.Report, *fastq.ReadStore, int, error) {
		tr.Abort()
		tr.Close()
		return nil, nil, rank, boot.Finish(err)
	}
	// Config shipping: a join agent receives the launcher's resolved
	// configuration with its rank assignment. Explicit flags on the join
	// command line must agree with it — a silently divergent rank would
	// corrupt the collective run.
	if hjb, ok := boot.(*spmd.HostJoinBootstrap); ok && len(hjb.ReceivedConfig) > 0 {
		shipped, err := decodeRunParams(hjb.ReceivedConfig)
		if err != nil {
			return bail(err)
		}
		if conflicts := configFlagConflicts(explicit, params, shipped); len(conflicts) > 0 {
			err := fmt.Errorf("join flags conflict with the launcher's configuration (drop them or make them match):\n  %s",
				strings.Join(conflicts, "\n  "))
			return bail(err)
		}
		params = shipped
		// A join agent learns the launcher wants tracing only here, after
		// formation — arm before any rank's pipeline starts recording.
		if params.Trace != "" {
			trace.Enable(trace.DefaultCapacity)
		}
	}
	mdl, err := params.model(tr.Size(), rank == 0)
	if err != nil {
		// Deterministic in (platform, nodes, size), so every rank fails
		// identically; abort just backstops a partial world.
		return bail(err)
	}
	ckOpts, err := params.ckptOptions()
	if err != nil {
		return bail(err)
	}
	var comm spmd.CommModel
	if mdl != nil {
		comm = mdl
	}
	var rep *pipeline.Report
	var store *fastq.ReadStore
	runErr := spmd.RunTransport(tr, comm, func(c *spmd.Comm) error {
		if params.Resume != "" {
			r, s, err := pipeline.ResumeComm(c, mdl, params.Resume, params.scheduleMutator(), ckOpts)
			if err != nil {
				return err
			}
			rep, store = r, s
			if c.Rank() == 0 {
				fmt.Fprintf(os.Stderr, "resumed %s: %s\n", params.Resume, s.Stats())
			}
			return nil
		}
		s, err := pipeline.LoadStore(c, params.In)
		if err != nil {
			return err
		}
		store = s
		if c.Rank() == 0 {
			fmt.Fprintf(os.Stderr, "loaded %s cooperatively: %s (rank 0 parsed %d bytes)\n",
				params.In, s.Stats(), s.ParsedBytes)
		}
		if params.Serve.Enabled {
			return serveWorld(c, mdl, s, params) // rep stays nil: no batch PAF
		}
		var r *pipeline.Report
		if ckOpts != nil {
			r, err = pipeline.ExecuteCommCkpt(c, mdl, s, params.Cfg, *ckOpts)
		} else {
			r, err = pipeline.ExecuteComm(c, mdl, s, params.Cfg)
		}
		rep = r
		return err
	})
	return rep, store, rank, boot.Finish(runErr)
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
	// a machine, which per-rank averages hide.
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
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dibella:", err)
	os.Exit(1)
}

// fatalRun reports a pipeline failure, distinguishing the deliberate
// post-checkpoint abort (exit 3, so restart drills can assert on it)
// from real errors (exit 1).
func fatalRun(err error) {
	fmt.Fprintln(os.Stderr, "dibella:", err)
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
