package main

// The interprocedural half of the engine: a whole-run index of every
// function declaration across the loaded packages, with per-function
// summaries computed to a fixpoint (summary.go).
//
// Cross-package identity is the subtle part. A call site in package A
// resolves its callee through A's import graph, where package B's
// functions are *types.Func objects reconstructed from compiler export
// data — not the same objects the loader produced by type-checking B
// from source. Summaries are therefore keyed by a stable string
// (import path, receiver type name, function name) rather than by
// object identity, so a summary computed on B's source is found from
// A's export-data view of the same function.

import (
	"go/ast"
	"go/types"
)

// declInfo is one function declaration with a body, in its home package.
type declInfo struct {
	pkg  *Pkg
	decl *ast.FuncDecl
	fn   *types.Func
	key  string
	// sites are the body's collective sites from the fixpoint's last
	// sweep, which ran under the final summaries: what spmdorder reports.
	sites []collectiveSite
}

// Program indexes every loaded package for interprocedural analysis.
type Program struct {
	cfg       *Config
	decls     []*declInfo
	summaries map[string]*FuncSummary
}

// NewProgram indexes the packages and computes every function summary to
// a fixpoint. The packages should be the full set being audited: a
// callee outside the set simply has no summary and is treated
// conservatively (see exprLabels).
func NewProgram(pkgs []*Pkg, cfg *Config) *Program {
	prog := &Program{
		cfg:       cfg,
		summaries: make(map[string]*FuncSummary),
	}
	for _, p := range pkgs {
		for _, fd := range funcDecls(p) {
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			d := &declInfo{pkg: p, decl: fd, fn: fn, key: funcKey(fn)}
			prog.decls = append(prog.decls, d)
			// Start from the empty summary: the fixpoint only ever adds
			// facts, so initializing low keeps every pass monotone.
			prog.summaries[d.key] = &FuncSummary{}
		}
	}
	prog.solve()
	return prog
}

// SummaryOf returns the summary for fn, or nil when fn was not declared
// in any loaded package (stdlib, interface methods, func values).
func (prog *Program) SummaryOf(fn *types.Func) *FuncSummary {
	if fn == nil {
		return nil
	}
	return prog.summaries[funcKey(fn)]
}

// funcKey is the stable cross-package identity of a function: import
// path, receiver type name for methods, and function name. Origin()
// strips generic instantiations so Rounds[kmer.Kmer] and
// Rounds[dht.occMsg] share one summary.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	key := pkgPathOf(fn) + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		key += recvTypeName(sig) + "."
	}
	return key + fn.Name()
}

// solve runs computeSummary over every declaration until no summary
// changes. Each field only grows (bools flip false→true, bit sets gain
// bits, the chain is written once), so termination is immediate from
// monotonicity; the iteration count is bounded by the call-graph depth.
// The last sweep changes nothing, so every declaration's sites were
// last computed under the final summaries.
func (prog *Program) solve() {
	for changed := true; changed; {
		changed = false
		for _, d := range prog.decls {
			old := prog.summaries[d.key]
			var next *FuncSummary
			next, d.sites = computeSummary(prog, d)
			if old.Collects {
				// The chain is diagnostic garnish; freezing it at first
				// discovery keeps recursive cycles from growing it forever.
				next.CollectChain = old.CollectChain
				next.Collects = true
			}
			if *next != *old {
				prog.summaries[d.key] = next
				changed = true
			}
		}
	}
}
