package main

// spmdorder: collectives must not be control-dependent on the rank.
//
// Every rank of an SPMD world must reach the same collectives in the
// same order; a collective under `if c.Rank() == 0 { ... }` (or any
// condition derived from the rank) is the classic divergence bug — some
// ranks enter the exchange, the rest never arrive, and the world
// deadlocks (or, worse, a later collective pairs with the wrong one).
//
// The check runs on the interprocedural engine (callgraph.go,
// summary.go). Three shapes are flagged:
//
//   - a collective called directly under a rank-derived condition;
//   - a call to a function that *transitively* executes a collective
//     (per its summary) under a rank-derived condition — the
//     helper-wrapped variant the intraprocedural pass could not see;
//   - a rank-derived argument passed to a parameter that controls a
//     callee's collective schedule (a trip count, a branch selector):
//     the callee runs different collective sequences on different
//     ranks even though the call site itself is unconditional.
//
// Rank taint crosses calls through the summaries (a MyRank()-style
// wrapper taints its callers) and is *sanitized* by collectives: a
// Bcast-shared value is world-uniform, so the sanctioned idiom —
// rank-conditional local work, then an unconditional collective to
// share the result — stays clean.

import (
	"go/ast"
	"go/types"
)

var spmdorderAnalyzer = &Analyzer{
	Name: "spmdorder",
	Doc:  "flags collective operations control-dependent on rank-valued expressions, across call chains",
	Run:  runSpmdorder,
}

// runSpmdorder reports from the sites the program fixpoint left on each
// declaration; it derives nothing itself.
func runSpmdorder(p *Pkg, prog *Program, _ *Config, report reporter) {
	for _, d := range prog.decls {
		if d.pkg != p {
			continue
		}
		for _, site := range d.sites {
			if site.mask&rankBit == 0 {
				continue
			}
			switch {
			case site.argFlow:
				report(site.call.Pos(), "rank-derived argument to %s controls how many collectives run; every rank must reach the same collectives in the same order", site.name)
			case site.via:
				report(site.call.Pos(), "call to %s executes a collective and is control-dependent on the rank; every rank must reach the same collectives in the same order", site.name)
			default:
				report(site.call.Pos(), "collective %s is control-dependent on the rank; every rank must reach the same collectives in the same order", site.name)
			}
		}
	}
}

// isRankCall reports whether the call reads the rank: a method named Rank
// on a type of the SPMD package.
func isRankCall(info *types.Info, cfg *Config, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Name() != "Rank" || pkgPathOf(fn) != cfg.SpmdPath {
		return false
	}
	return fn.Type().(*types.Signature).Recv() != nil
}
