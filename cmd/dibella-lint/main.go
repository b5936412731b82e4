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
//	dibella-lint [-json] [-sarif file] [packages ...]
//
// Packages default to ./... and use `go list` syntax. spmdorder reasons
// over an interprocedural engine: whole-run call-graph summaries computed
// to a fixpoint over every loaded package (see docs/LINT.md).
// Diagnostics are suppressed per line with
// `//lint:ignore <analyzer> <reason>` (reason mandatory); a directive
// that suppresses nothing is itself reported as stale. Exit status:
// 0 clean, 1 diagnostics, 2 load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	showSuppressed := flag.Bool("suppressed", false, "also print suppressed diagnostics (with their reasons)")
	sarifOut := flag.String("sarif", "", "also write diagnostics as SARIF 2.1.0 to `file`")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dibella-lint [-json] [-suppressed] [-sarif file] [packages ...]\n")
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

	failing := 0
	var shown []Diagnostic
	for _, d := range all {
		if d.Suppressed == "" {
			failing++
			shown = append(shown, d)
		} else if *showSuppressed {
			shown = append(shown, d)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if shown == nil {
			shown = []Diagnostic{}
		}
		if err := enc.Encode(shown); err != nil {
			fmt.Fprintf(os.Stderr, "dibella-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range shown {
			suffix := ""
			if d.Suppressed != "" {
				suffix = fmt.Sprintf(" (suppressed: %s)", d.Suppressed)
			}
			fmt.Printf("%s:%d:%d: %s: %s%s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message, suffix)
		}
	}
	if failing > 0 {
		fmt.Fprintf(os.Stderr, "dibella-lint: %d diagnostic(s)\n", failing)
		os.Exit(1)
	}
}
