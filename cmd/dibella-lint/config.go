package main

// Analyzer configuration: which packages each analyzer audits and the
// name sets that define the repo's collective, commit and trace surfaces.
// Kept as data (not hard-coded in the analyzers) so the tests
// can point the same analyzers at fixture packages and so follow-up work
// (serve mode, distributed string graph) can extend the audited surface
// by editing one file.

// Config carries the per-analyzer package lists and symbol sets.
type Config struct {
	// SpmdPath is the import path of the SPMD runtime package whose
	// collective call surface spmdorder/collecterr key on.
	SpmdPath string
	// CkptPath is the import path of the checkpoint package whose
	// commit operations collecterr keys on.
	CkptPath string

	// CollectiveFuncs are the package-level collective functions of
	// SpmdPath: every rank must call them in the same order.
	CollectiveFuncs map[string]bool
	// CollectiveMethods are collective methods on SpmdPath types
	// (Comm.Barrier, the typed handle's Wait), keyed by method name.
	CollectiveMethods map[string]bool

	// DetmapPackages are import-path prefixes of the output-affecting
	// packages detmap audits: a nondeterministic iteration there can
	// change the bytes of the PAF output or a checkpoint digest.
	DetmapPackages []string

	// CollecterrExclude lists SpmdPath/CkptPath method names whose
	// dropped results collecterr tolerates (non-collective teardown).
	CollecterrExclude map[string]bool

	// TracePath is the import path of the observability package whose
	// event/metric name arguments tracename keys on.
	TracePath string
	// TraceNameFuncs maps TracePath function and method names to the
	// argument position of the event/metric name, which must be a
	// package-level string constant (so timelines and dashboards can
	// grep for every name the binary can emit).
	TraceNameFuncs map[string]int
}

// DefaultConfig audits this repository.
func DefaultConfig() *Config {
	return &Config{
		SpmdPath: "dibella/internal/spmd",
		CkptPath: "dibella/internal/ckpt",
		CollectiveFuncs: set(
			"Alltoallv", "Alltoall", "AlltoallvPacked",
			"Rounds", "AlltoallvDuring", "IAlltoallvStreamed",
			"Allgather", "AllreduceI64", "AllreduceF64",
			"Bcast", "ExclusiveScanI64", "GatherTo", "AgreeCommit",
		),
		CollectiveMethods: set("Barrier", "Wait"),
		DetmapPackages: []string{
			"dibella/internal/dht",
			"dibella/internal/overlap",
			"dibella/internal/olgraph",
			"dibella/internal/paf",
			"dibella/internal/pipeline",
			"dibella/internal/ckpt",
			// Served PAF is output too: a nondeterministic iteration in
			// the daemon's admission or reply path would break the
			// serve-vs-batch byte-identity invariant.
			"dibella/internal/serve",
		},
		// Close is the graceful teardown after the last collective and
		// Abort is the poison path: neither can desynchronize a world
		// that is already unwinding.
		CollecterrExclude: set("Close", "Abort"),
		TracePath:         "dibella/internal/trace",
		TraceNameFuncs: map[string]int{
			"Begin": 0, "BeginTag": 0, "End": 0,
			"Instant": 0, "InstantTag": 0,
			"FlowOut": 0, "FlowIn": 0,
			"RegisterCounter": 0, "RegisterCounterVec": 0,
			"RegisterGauge": 0, "RegisterGaugeVec": 0,
			"RegisterHistogram": 0,
		},
	}
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// detmapAudited reports whether detmap audits the package.
func (cfg *Config) detmapAudited(importPath string) bool {
	for _, p := range cfg.DetmapPackages {
		if importPath == p || len(importPath) > len(p) && importPath[:len(p)+1] == p+"/" {
			return true
		}
	}
	return false
}
