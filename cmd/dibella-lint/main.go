// Command dibella-lint statically enforces the repository's SPMD,
// determinism, and observability invariants (see docs/LINT.md):
//
//	spmdorder   collectives must not be control-dependent on the rank,
//	            directly or through any call chain
//	detmap      no map-iteration order, time.Now, or math/rand in
//	            output-affecting packages
//	collecterr  collective/checkpoint errors must not be dropped
//	tracename   trace event and metric names must be package-level
//	            constants
//
// Usage:
//
//	dibella-lint [-sarif file] [packages ...]
//
// Packages default to ./... and use `go list` syntax. spmdorder reasons
// over an interprocedural engine: whole-run call-graph summaries computed
// to a fixpoint over every loaded package (see docs/LINT.md). There is
// no suppression: a finding is fixed in the code, or, if it is a false
// positive, in the analyzer. Exit status: 0 clean, 1 diagnostics, 2 load
// failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	sarifOut := flag.String("sarif", "", "also write diagnostics as SARIF 2.1.0 to `file`")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dibella-lint [-sarif file] [packages ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cfg := DefaultConfig()
	t0 := time.Now()
	pkgs, err := loadPackages(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dibella-lint: %v\n", err)
		os.Exit(2)
	}
	tLoad := time.Now()

	prog := NewProgram(pkgs, cfg)
	var all []Diagnostic
	for _, p := range pkgs {
		all = append(all, runAnalyzers(p, prog, cfg, allAnalyzers())...)
	}
	// The gate runs on every push; keep its cost visible so a slow
	// analyzer is noticed before it is felt.
	fmt.Fprintf(os.Stderr, "dibella-lint: %d packages: load %.1fs, analyze %.1fs\n",
		len(pkgs), tLoad.Sub(t0).Seconds(), time.Since(tLoad).Seconds())

	if *sarifOut != "" {
		if err := writeSARIF(*sarifOut, allAnalyzers(), all); err != nil {
			fmt.Fprintf(os.Stderr, "dibella-lint: writing SARIF: %v\n", err)
			os.Exit(2)
		}
	}
	for _, d := range all {
		fmt.Printf("%s:%d:%d: %s: %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "dibella-lint: %d diagnostic(s)\n", len(all))
		os.Exit(1)
	}
}
