package main

// Per-function summaries and the label-based taint engine behind them.
//
// Labels are a bitmask: bit 0 means "derived from Rank()", bit i+1
// means "derived from parameter i". A function's summary records
//
//   - whether it (transitively) executes a collective, with a short
//     call chain for the diagnostic;
//   - whether its results carry the rank label regardless of arguments
//     (a MyRank-style wrapper);
//   - which parameters' labels flow into its results (a blockRange-style
//     splitter: rank in, rank-derived bounds out);
//   - which parameters control whether — or how many times — a
//     collective runs (a RunRounds-style loop: rank-derived trip count
//     in, diverging collective schedules out).
//
// Collective calls are label *sanitizers*: their results are
// world-uniform by construction (every rank gets the same bytes), so
// `n = Bcast(c, n, 0)` launders a rank-derived n back to uniform. That
// single rule is what keeps the sanctioned compute-then-share idiom
// clean under the stronger analysis.

import (
	"go/ast"
	"go/types"
)

// FuncSummary is the interprocedural abstract of one function.
type FuncSummary struct {
	// Collects: the function executes a collective on some path,
	// directly or through callees. CollectChain names the path
	// ("RunQuery → spmd.GatherTo") for diagnostics.
	Collects     bool
	CollectChain string
	// ResultsRanky: some result carries the rank label independent of
	// the arguments.
	ResultsRanky bool
	// ParamToResult: parameter bits whose labels flow into the results.
	ParamToResult uint64
	// ParamGuards: parameter bits that control a collective (guard a
	// branch around one, bound a loop containing one, or flow into a
	// callee's guarding parameter).
	ParamGuards uint64
}

const rankBit uint64 = 1

// paramBitOf returns the label bit of parameter i (high parameter
// counts collapse onto the last bit; precision there is irrelevant).
func paramBitOf(i int) uint64 {
	if i > 62 {
		i = 62
	}
	return 1 << uint(i+1)
}

// argParamIndex maps argument position j to the callee's parameter
// index, folding variadic tails onto the last parameter.
func argParamIndex(sig *types.Signature, j int) int {
	n := sig.Params().Len()
	if n == 0 {
		return -1
	}
	if j >= n {
		return n - 1
	}
	return j
}

// labelCtx carries what exprLabels needs: the package's type info, the
// program summaries, and the current object→label map.
type labelCtx struct {
	info   *types.Info
	cfg    *Config
	prog   *Program
	labels map[types.Object]uint64
}

// exprLabels computes the label mask of an expression under the current
// object labels.
func exprLabels(ctx *labelCtx, e ast.Expr) uint64 {
	var l uint64
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure value is not a rank value; its body is analyzed
			// as its own unit.
			return false
		case *ast.CallExpr:
			l |= callLabels(ctx, n)
			return false
		case *ast.Ident:
			if obj := ctx.info.Uses[n]; obj != nil {
				l |= ctx.labels[obj]
			}
		}
		return true
	})
	return l
}

// callLabels computes the label mask of a call's results.
func callLabels(ctx *labelCtx, call *ast.CallExpr) uint64 {
	if isRankCall(ctx.info, ctx.cfg, call) {
		return rankBit
	}
	if _, ok := isCollectiveCall(ctx.info, ctx.cfg, call); ok {
		// Sanitizer: collective results are world-uniform.
		return 0
	}
	fn := calleeOf(ctx.info, call)
	if sum := ctx.prog.SummaryOf(fn); sum != nil {
		// Summarized callee: flow labels precisely through the summary.
		var l uint64
		if sum.ResultsRanky {
			l |= rankBit
		}
		sig := fn.Type().(*types.Signature)
		for j, arg := range call.Args {
			if i := argParamIndex(sig, j); i >= 0 && sum.ParamToResult&paramBitOf(i) != 0 {
				l |= exprLabels(ctx, arg)
			}
		}
		return l
	}
	// Unknown callee (stdlib, interface dispatch, func value, builtin):
	// any labeled subexpression labels the result — the coarse rule the
	// intraprocedural analyzer used for everything.
	var l uint64
	l |= exprLabels(ctx, call.Fun)
	for _, arg := range call.Args {
		l |= exprLabels(ctx, arg)
	}
	return l
}

// funcLabels computes the object→label map of one function body by
// fixpoint over its assignments, with parameters seeded to their bits.
// Like the original rank taint, it is flow-insensitive and a
// multi-value RHS labels every LHS.
func funcLabels(prog *Program, d *declInfo) map[types.Object]uint64 {
	info := d.pkg.Info
	ctx := &labelCtx{info: info, cfg: prog.cfg, prog: prog, labels: make(map[types.Object]uint64)}
	sig := d.fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		ctx.labels[sig.Params().At(i)] = paramBitOf(i)
	}
	objOf := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	for changed := true; changed; {
		changed = false
		add := func(obj types.Object, l uint64) {
			if obj == nil || l == 0 {
				return
			}
			if ctx.labels[obj]|l != ctx.labels[obj] {
				ctx.labels[obj] |= l
				changed = true
			}
		}
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				var l uint64
				for _, r := range n.Rhs {
					l |= exprLabels(ctx, r)
				}
				for _, lhs := range n.Lhs {
					add(objOf(lhs), l)
				}
			case *ast.ValueSpec:
				var l uint64
				for _, r := range n.Values {
					l |= exprLabels(ctx, r)
				}
				for _, name := range n.Names {
					add(info.Defs[name], l)
				}
			}
			return true
		})
	}
	return ctx.labels
}

// collectiveSite is one place in a function body where collective
// execution can depend on a labeled value: a collective (or a callee
// that collects) under a labeled condition, or a labeled argument
// passed to a callee parameter that controls a collective.
type collectiveSite struct {
	call *ast.CallExpr
	// mask is the guard mask for guarded sites, or the argument's label
	// mask for argFlow sites.
	mask uint64
	// name is the collective ("spmd.Bcast") or the callee with its
	// chain ("helpers.DoExchange (→ spmd.Allgather)").
	name string
	// via is true when the collective is reached through a callee
	// rather than called directly.
	via bool
	// argFlow is true when the site is a labeled argument controlling
	// the callee's collective schedule, independent of local guards.
	argFlow bool
}

// funcCollectiveSites walks one function body tracking the OR of labels
// of the enclosing if/switch/for/range conditions, and yields every
// collective-bearing site together with the label mask it depends on.
// Sites with mask 0 (unconditional collectives) are included so the
// summary can record that the function collects at all.
func funcCollectiveSites(prog *Program, d *declInfo, labels map[types.Object]uint64) []collectiveSite {
	info := d.pkg.Info
	ctx := &labelCtx{info: info, cfg: prog.cfg, prog: prog, labels: labels}
	var sites []collectiveSite
	var guard uint64
	var walk func(n ast.Node) bool
	inspect := func(n ast.Node) {
		if n != nil {
			ast.Inspect(n, walk)
		}
	}
	guarded := func(mask uint64, body ...ast.Node) {
		old := guard
		guard |= mask
		for _, n := range body {
			inspect(n)
		}
		guard = old
	}
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := isCollectiveCall(info, ctx.cfg, n); ok {
				sites = append(sites, collectiveSite{call: n, mask: guard, name: "spmd." + name})
			} else if fn := calleeOf(info, n); fn != nil {
				if sum := prog.SummaryOf(fn); sum != nil {
					if sum.Collects {
						sites = append(sites, collectiveSite{
							call: n, mask: guard, via: true,
							name: funcDisplayName(fn) + " (→ " + sum.CollectChain + ")",
						})
					}
					if sum.ParamGuards != 0 {
						sig := fn.Type().(*types.Signature)
						for j, arg := range n.Args {
							i := argParamIndex(sig, j)
							if i < 0 || sum.ParamGuards&paramBitOf(i) == 0 {
								continue
							}
							if m := exprLabels(ctx, arg); m != 0 {
								sites = append(sites, collectiveSite{
									call: n, mask: m, via: true, argFlow: true,
									name: funcDisplayName(fn),
								})
							}
						}
					}
				}
			}
		case *ast.IfStmt:
			mask := exprLabels(ctx, n.Cond)
			inspect(n.Init)
			inspect(n.Cond)
			guarded(mask, n.Body, n.Else)
			return false
		case *ast.SwitchStmt:
			var mask uint64
			if n.Tag != nil {
				mask = exprLabels(ctx, n.Tag)
			} else {
				// A tagless switch is guarded by its case expressions.
				for _, s := range n.Body.List {
					for _, e := range s.(*ast.CaseClause).List {
						mask |= exprLabels(ctx, e)
					}
				}
			}
			inspect(n.Init)
			if n.Tag != nil {
				inspect(n.Tag)
			}
			guarded(mask, n.Body)
			return false
		case *ast.ForStmt:
			var mask uint64
			if n.Cond != nil {
				mask = exprLabels(ctx, n.Cond)
			}
			inspect(n.Init)
			if n.Cond != nil {
				inspect(n.Cond)
			}
			inspect(n.Post)
			guarded(mask, n.Body)
			return false
		case *ast.RangeStmt:
			mask := exprLabels(ctx, n.X)
			inspect(n.X)
			guarded(mask, n.Body)
			return false
		}
		return true
	}
	ast.Inspect(d.decl.Body, walk)
	return sites
}

// funcDisplayName renders a callee for diagnostics: "pkg.Func" or
// "pkg.Type.Method", using the short package name.
func funcDisplayName(fn *types.Func) string {
	fn = fn.Origin()
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		name = recvTypeName(sig) + "." + name
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// computeSummary evaluates one function's summary under the current
// program summaries (one step of the fixpoint in Program.solve).
func computeSummary(prog *Program, d *declInfo) *FuncSummary {
	labels := funcLabels(prog, d)
	ctx := &labelCtx{info: d.pkg.Info, cfg: prog.cfg, prog: prog, labels: labels}
	s := &FuncSummary{}

	// Result labels from every return statement (an empty return means
	// named results, whose labels the assignment fixpoint tracked).
	sig := d.fn.Type().(*types.Signature)
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		var l uint64
		if len(ret.Results) == 0 {
			for i := 0; i < sig.Results().Len(); i++ {
				l |= ctx.labels[sig.Results().At(i)]
			}
		}
		for _, r := range ret.Results {
			l |= exprLabels(ctx, r)
		}
		s.ResultsRanky = s.ResultsRanky || l&rankBit != 0
		s.ParamToResult |= l &^ rankBit
		return true
	})

	// Collectives and what guards them.
	for _, site := range funcCollectiveSites(prog, d, labels) {
		if !site.argFlow && !s.Collects {
			s.Collects = true
			s.CollectChain = site.name
		}
		s.ParamGuards |= site.mask &^ rankBit
		if site.argFlow {
			// A labeled argument controlling a callee's schedule makes
			// this function collect (through that callee) too.
			if !s.Collects {
				s.Collects = true
				s.CollectChain = site.name
			}
		}
	}
	return s
}
