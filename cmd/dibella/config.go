package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"dibella/internal/kmer"
	"dibella/internal/machine"
	"dibella/internal/overlap"
	"dibella/internal/pipeline"
	"dibella/internal/serve"
	"dibella/internal/spmd"
)

// flagClass says whom a flag concerns. It is declared once, where the
// flag is defined; what ships to other ranks, what a joiner's command
// line is checked against, and what -resume or batch mode rejects are all
// derived from it.
type flagClass int

const (
	// perProcess flags shape only the process they were typed on (-out,
	// -p, -transport, -hosts, ...): never shipped, free to differ per host.
	perProcess flagClass = iota
	// shared flags describe the run itself. Rank 0's values ship to every
	// other rank, whose own explicitly-set values must agree with them.
	shared
	// outputAffecting flags are shared and change the PAF, so -resume
	// rejects them: the snapshot's manifest is authoritative.
	outputAffecting
	// serveOnly flags are shared and mean nothing without -serve-addr.
	serveOnly
)

// runParams is the run configuration as typed: the flag set binds straight
// into it, and it is what travels between ranks. Everything the run body
// consumes is derived from it by resolve.
type runParams struct {
	fs     *flag.FlagSet
	class  map[string]flagClass
	bounds []intBound

	Out, Transport, Hosts, Hostfile, Join string
	CPUProfile, MemProfile                string
	P                                     int
	Breakdown                             bool
	FormTimeout                           time.Duration

	In, SeedMode, Seed, Platform, Trace          string
	K, MaxFreq, Window, MinDist, XDrop, MinScore int
	ErrorRate, Coverage, Genome                  float64
	AsyncExchange                                bool
	Nodes, ReplyChunk, ReplyDepth, BuildDepth    int

	ServeAddr, ServeTenants, MetricsAddr       string
	ServeInflight, ServeMaxReads, ServeBatches int

	CkptDir, CkptEvery, CkptAbortAfter, Resume string
}

// intBound is one integer flag's accepted range, declared with the flag.
type intBound struct {
	name   string
	v      *int
	lo, hi int
}

const unbounded = math.MaxInt

// bindFlags defines the command's flags on fs, bound to a new runParams.
func bindFlags(fs *flag.FlagSet) *runParams {
	p := &runParams{fs: fs, class: make(map[string]flagClass)}
	str := func(v *string, c flagClass, name, def, usage string) {
		fs.StringVar(v, name, def, usage)
		p.class[name] = c
	}
	num := func(v *int, c flagClass, name string, def, lo, hi int, usage string) {
		fs.IntVar(v, name, def, usage)
		p.class[name] = c
		p.bounds = append(p.bounds, intBound{name, v, lo, hi})
	}
	real := func(v *float64, c flagClass, name string, def float64, usage string) {
		fs.Float64Var(v, name, def, usage)
		p.class[name] = c
	}
	flg := func(v *bool, c flagClass, name string, def bool, usage string) {
		fs.BoolVar(v, name, def, usage)
		p.class[name] = c
	}
	depths := spmd.MaxStreamDepth

	str(&p.In, outputAffecting, "in", "", "input FASTQ/FASTA file (required unless -resume)")
	str(&p.Out, perProcess, "out", "", "output PAF file (default: stdout)")
	num(&p.P, perProcess, "p", 8, 1, unbounded, "number of ranks (goroutines, or processes with -transport tcp)")
	num(&p.K, outputAffecting, "k", 0, 0, kmer.MaxK, "k-mer length (0: derive from -error-rate/-genome)")
	num(&p.MaxFreq, outputAffecting, "m", 0, 0, unbounded, "high-frequency k-mer cutoff (0: derive)")
	str(&p.SeedMode, outputAffecting, "seed-mode", "one", "seed exploration: one | dist | all")
	str(&p.Seed, outputAffecting, "seed", "exact", "seed extraction: exact (every k-mer) | minimizer ((w,k)-minimizers only; see -window)")
	num(&p.Window, outputAffecting, "window", 5, 1, unbounded, "minimizer window w for -seed minimizer: ship only each window's minimum-hash k-mer, ~2/(w+1) of the k-mer volume")
	num(&p.MinDist, outputAffecting, "min-dist", 1000, 1, unbounded, "min seed separation for -seed-mode dist")
	num(&p.XDrop, outputAffecting, "xdrop", 7, 0, unbounded, "x-drop threshold")
	num(&p.MinScore, outputAffecting, "min-score", 0, -unbounded, unbounded, "drop alignments scoring below this")
	real(&p.ErrorRate, outputAffecting, "error-rate", 0.15, "per-base error rate (for parameter derivation)")
	real(&p.Coverage, outputAffecting, "coverage", 30, "sequencing depth (for parameter derivation)")
	real(&p.Genome, outputAffecting, "genome", 4.64e6, "estimated genome size (for k derivation)")
	str(&p.Platform, shared, "platform", "", "model a platform: cori | edison | titan | aws")
	num(&p.Nodes, shared, "nodes", 1, 1, unbounded, "modeled node count (with -platform)")
	flg(&p.Breakdown, perProcess, "breakdown", false, "print the per-stage time breakdown")

	flg(&p.AsyncExchange, shared, "async-exchange", true, "overlap exchanges with computation via non-blocking collectives (same output; disable for the paper's bulk-synchronous schedule)")
	num(&p.ReplyChunk, shared, "reply-chunk", spmd.DefaultChunkBytes, 1, unbounded, "stream the alignment stage's read-reply exchange in per-peer chunks of this many bytes, aligning tasks as their sequences land (same output; requires -async-exchange)")
	num(&p.ReplyDepth, shared, "reply-depth", spmd.DefaultStreamDepth, 1, depths, fmt.Sprintf("streamed reply chunk exchanges in flight while a rank waits, 1..%d (1 = blocking chunk rounds; with -reply-chunk; requires -async-exchange)", depths))
	num(&p.BuildDepth, shared, "build-depth", 0, 0, depths, fmt.Sprintf("DHT-build exchange rounds kept in flight per pass, 1..%d (0: default 2; schedule-only, the built table is identical at every depth; requires -async-exchange)", depths))

	str(&p.Trace, shared, "trace", "", "record per-rank flight-recorder timelines and write a Chrome trace-event file here at teardown (open in Perfetto; observability-only: output is byte-identical with or without it)")
	str(&p.MetricsAddr, serveOnly, "metrics-addr", "", "serve mode: rank 0 serves Prometheus /metrics and /debug/pprof/ on this address")

	str(&p.ServeAddr, shared, "serve-addr", "", "serve mode: keep the formed world resident and answer FASTQ query batches on this frontend address (see the README's \"Serve mode\")")
	num(&p.ServeInflight, serveOnly, "serve-max-inflight", 4, 1, unbounded, "serve mode: bound on admitted-but-unfinished batches; the excess is rejected queue-full")
	num(&p.ServeMaxReads, serveOnly, "serve-max-batch-reads", 1024, 1, unbounded, "serve mode: per-batch read limit; larger batches are rejected too-large")
	str(&p.ServeTenants, serveOnly, "serve-tenants", "", "serve mode: comma-separated tenant allow list (empty admits any tenant)")
	num(&p.ServeBatches, serveOnly, "serve-batches", 0, 0, unbounded, "serve mode: exit after serving this many batches (0: serve until a client requests shutdown)")

	str(&p.CkptDir, shared, "ckpt-dir", "", "snapshot pipeline state at stage boundaries into this directory (per-rank segments + rank-0 manifest)")
	str(&p.CkptEvery, shared, "ckpt-every", "", "comma-separated stage boundaries to snapshot: load, dht, overlap (default: all; with -ckpt-dir)")
	str(&p.CkptAbortAfter, shared, "ckpt-abort-after", "", "abort the run right after this stage's snapshot commits — a kill switch for restart drills (with -ckpt-dir)")
	str(&p.Resume, shared, "resume", "", "restart from this checkpoint directory's latest complete snapshot (any -p; config comes from the snapshot manifest)")

	str(&p.Transport, perProcess, "transport", "mem", "spmd backend: mem (goroutine ranks) | tcp (one OS process per rank)")
	str(&p.Hosts, perProcess, "hosts", "", "comma-separated host[:ranks] list for a multi-host TCP world (first entry is this machine; loopback entries are simulated locally)")
	str(&p.Hostfile, perProcess, "hostfile", "", "file with one host[:ranks] per line (alternative to -hosts)")
	str(&p.Join, perProcess, "join", "", "enter a -hosts world: the rendezvous address its launcher printed")
	str(&p.CPUProfile, perProcess, "cpuprofile", "", "write this process's CPU profile here (with -transport tcp every rank process writes its own, suffixed .rankN)")
	str(&p.MemProfile, perProcess, "memprofile", "", "write this process's allocation profile here at exit (suffixed .rankN like -cpuprofile)")
	fs.DurationVar(&p.FormTimeout, "form-timeout", 30*time.Second, "world-formation deadline (dials, handshakes, host joins)")
	return p
}

// runPlan is what resolve derives from the params: the values the run body
// hands to the pipeline, the daemon and the platform model.
type runPlan struct {
	params   *runParams
	cfg      pipeline.Config
	ckpt     *pipeline.CkptOptions // nil: no snapshots
	serve    *serve.Options        // nil: a batch run
	platform *machine.Platform     // nil: unmodeled
}

// resolve is the one validation of the configuration: every flag value,
// every cross-flag rule, and the translation into the pipeline's, the
// daemon's and the checkpoint writer's option types. A nonsense value
// otherwise surfaces much later as an opaque panic (k=0 entering the k-mer
// packer, p=0 dividing the read distribution) or a formation hang.
// explicit names the flags set on this command line (nil for values
// adopted from rank 0, checked there); a follower — any rank but rank 0 of
// a multi-process world — may start without -in, which rank 0 supplies.
func (p *runParams) resolve(explicit map[string]bool, follower bool) (*runPlan, error) {
	for _, b := range p.bounds {
		switch v := *b.v; {
		case v >= b.lo && v <= b.hi:
		case b.hi == unbounded:
			return nil, fmt.Errorf("-%s must be at least %d, got %d", b.name, b.lo, v)
		default:
			return nil, fmt.Errorf("-%s must be in [%d,%d], got %d", b.name, b.lo, b.hi, v)
		}
	}
	switch {
	case p.ErrorRate < 0 || p.ErrorRate >= 1:
		return nil, fmt.Errorf("-error-rate must be in [0,1), got %g", p.ErrorRate)
	case p.Coverage <= 0:
		return nil, fmt.Errorf("-coverage must be positive, got %g", p.Coverage)
	case p.Genome <= 0:
		return nil, fmt.Errorf("-genome must be positive, got %g", p.Genome)
	case p.FormTimeout <= 0:
		return nil, fmt.Errorf("-form-timeout must be positive, got %v", p.FormTimeout)
	case p.Transport != "mem" && p.Transport != "tcp":
		return nil, fmt.Errorf("unknown -transport %q (want mem or tcp)", p.Transport)
	case p.Hosts != "" && p.Hostfile != "":
		return nil, fmt.Errorf("-hosts and -hostfile are mutually exclusive")
	case p.In == "" && p.Resume == "" && !follower:
		return nil, fmt.Errorf("-in is required (or -resume to restart from a snapshot)")
	case explicit["window"] && p.Seed != "minimizer":
		return nil, fmt.Errorf("-window only applies with -seed minimizer")
	case explicit["reply-chunk"] && !p.AsyncExchange:
		return nil, fmt.Errorf("-reply-chunk streams over non-blocking exchanges; drop it or re-enable -async-exchange")
	case explicit["reply-depth"] && !p.AsyncExchange:
		return nil, fmt.Errorf("-reply-depth streams over non-blocking exchanges; drop it or re-enable -async-exchange")
	case explicit["build-depth"] && !p.AsyncExchange:
		return nil, fmt.Errorf("-build-depth keeps non-blocking exchanges in flight; drop it or re-enable -async-exchange")
	}
	var err error
	p.fs.VisitAll(func(f *flag.Flag) {
		switch c := p.class[f.Name]; {
		case err != nil || !explicit[f.Name]:
		case c == serveOnly && p.ServeAddr == "":
			err = fmt.Errorf("-%s only applies in serve mode (set -serve-addr)", f.Name)
		case c == outputAffecting && p.Resume != "":
			err = fmt.Errorf("-%s has no effect with -resume: the snapshot's manifest supplies the configuration (only scheduling flags like -reply-chunk may change on resume)", f.Name)
		}
	})
	if err != nil {
		return nil, err
	}

	plan := &runPlan{params: p, cfg: pipeline.Config{
		K: p.K, MaxFreq: p.MaxFreq,
		MinDist: p.MinDist, XDrop: p.XDrop, MinAlignScore: p.MinScore,
		ErrorRate: p.ErrorRate, Coverage: p.Coverage, GenomeEst: p.Genome,
		KeepAlignments: true,
		BuildDepth:     p.BuildDepth,
		// The resident index must keep singletons (and high-frequency
		// tombstones): a query occurrence can lift an indexed singleton to
		// a reportable pair.
		KeepSingletons: p.ServeAddr != "",
	}}
	// Schedule selection: the paper's bulk-synchronous reference when
	// -async-exchange=false, the streamed schedule otherwise. Output is
	// byte-identical across the two.
	if p.AsyncExchange {
		plan.cfg.ReplyChunk, plan.cfg.ReplyDepth = p.ReplyChunk, p.ReplyDepth
	} else {
		plan.cfg.Exchange = pipeline.ExchangeSync
	}
	switch p.SeedMode {
	case "one":
		plan.cfg.SeedMode = overlap.OneSeed
	case "dist":
		plan.cfg.SeedMode = overlap.MinDistance
	case "all":
		plan.cfg.SeedMode = overlap.AllSeeds
	default:
		return nil, fmt.Errorf("unknown -seed-mode %q (want one, dist or all)", p.SeedMode)
	}
	// Seed extraction: minimizer mode ships only (w,k)-minimizers through
	// both DHT build passes, cutting exchange volume to ~2/(w+1) of exact
	// seeding at a small recall cost (see the README's "Seeding modes").
	switch p.Seed {
	case "exact":
	case "minimizer":
		plan.cfg.MinimizerWindow = p.Window
	default:
		return nil, fmt.Errorf("unknown -seed %q (want exact or minimizer)", p.Seed)
	}
	if p.Platform != "" {
		pv, err := machine.PlatformByName(p.Platform)
		if err != nil {
			return nil, fmt.Errorf("-platform: %w", err)
		}
		plan.platform = &pv
	}
	if p.CkptDir != "" {
		plan.ckpt = &pipeline.CkptOptions{Dir: p.CkptDir, AbortAfter: p.CkptAbortAfter}
		if p.CkptEvery != "all" {
			plan.ckpt.Stages = splitList(p.CkptEvery)
		}
		if err := plan.ckpt.Validate(); err != nil {
			return nil, fmt.Errorf("-ckpt-every/-ckpt-abort-after: %w", err)
		}
	} else if p.CkptEvery != "" || p.CkptAbortAfter != "" {
		return nil, fmt.Errorf("-ckpt-every/-ckpt-abort-after require -ckpt-dir")
	}
	if p.ServeAddr != "" {
		// Serve mode keeps the formed world resident; the batch-only
		// features below are structurally incompatible with that.
		switch {
		case p.Resume != "":
			return nil, fmt.Errorf("-serve-addr cannot restart from a snapshot: a serve index keeps singleton k-mers, which batch-mode snapshots prune")
		case p.CkptDir != "":
			return nil, fmt.Errorf("-serve-addr does not snapshot; drop -ckpt-dir")
		case p.Seed == "minimizer":
			return nil, fmt.Errorf("-serve-addr requires exact seeding: queries cannot be answered against a minimizer-sparsified index")
		}
		plan.serve = &serve.Options{
			Addr:          p.ServeAddr,
			MaxInflight:   p.ServeInflight,
			MaxBatchReads: p.ServeMaxReads,
			Tenants:       splitList(p.ServeTenants),
			MaxBatches:    p.ServeBatches,
			MetricsAddr:   p.MetricsAddr,
		}
	}
	return plan, nil
}

// splitList splits a comma-separated flag value, dropping blank entries.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// hostList resolves -hosts/-hostfile into a fully-assigned host list; with
// neither, this machine is the whole list. Explicit per-host counts
// determine the world size on their own unless -p was given too.
func (p *runParams) hostList(pExplicit bool) ([]spmd.HostSpec, error) {
	parse, list := spmd.ParseHostList, p.Hosts
	switch {
	case list != "":
	case p.Hostfile != "":
		parse, list = spmd.ParseHostFile, p.Hostfile
	default:
		list = fmt.Sprintf("127.0.0.1:%d", p.P)
	}
	hosts, err := parse(list)
	if err != nil {
		return nil, err
	}
	explicitRanks, allExplicit := 0, true
	for _, h := range hosts {
		explicitRanks += h.Ranks
		allExplicit = allExplicit && h.Ranks > 0
	}
	if allExplicit && !pExplicit {
		p.P = explicitRanks
	}
	return spmd.AssignHostRanks(hosts, p.P)
}

// reschedule carries this command's scheduling knobs onto a resumed
// configuration. Only output-neutral fields are touched; the pipeline
// verifies that against the manifest's config hash regardless.
func (pl *runPlan) reschedule(c *pipeline.Config) {
	c.Exchange = pl.cfg.Exchange
	c.ReplyChunk = pl.cfg.ReplyChunk
	c.ReplyDepth = pl.cfg.ReplyDepth
	c.BuildDepth = pl.cfg.BuildDepth
	c.KeepAlignments = true // rank 0 writes PAF
}

// encode serializes the shared flags as typed, by name: all of them (rank
// 0, whose values every rank adopts) or only those in set (any other rank,
// whose explicitly-set flags must agree with rank 0's).
func (p *runParams) encode(set map[string]bool) ([]byte, error) {
	vals := make(map[string]string)
	p.fs.VisitAll(func(f *flag.Flag) {
		if p.class[f.Name] != perProcess && (set == nil || set[f.Name]) {
			vals[f.Name] = f.Value.String()
		}
	})
	return json.Marshal(vals)
}

// adopt is every rank's half of the config agreement, given what each
// rank said (said[r] is rank r's decoded encode). A flag some rank set
// explicitly to a value other than rank 0's fails the run on every rank
// with the same error — a silently divergent rank would corrupt the
// collective run; explicit flags that agree are fine (forked workers
// inherit the launcher's command line). Every rank but rank 0 then takes
// rank 0's values for its own.
func (p *runParams) adopt(said []map[string]string, rank int) error {
	var conflicts []string
	for r := 1; r < len(said); r++ {
		for name, v := range said[r] {
			if lv := said[0][name]; lv != v {
				conflicts = append(conflicts, fmt.Sprintf("rank %d: -%s: this command says %s, launcher says %s", r, name, v, lv))
			}
		}
	}
	if len(conflicts) > 0 {
		sort.Strings(conflicts)
		return fmt.Errorf("flags conflict with the launcher's configuration (drop them or make them match):\n  %s",
			strings.Join(conflicts, "\n  "))
	}
	if rank == 0 {
		return nil
	}
	for name, v := range said[0] {
		if err := p.fs.Set(name, v); err != nil {
			return fmt.Errorf("adopting the launcher's -%s: %w (mismatched dibella binaries?)", name, err)
		}
	}
	return nil
}
