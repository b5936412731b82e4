package main

// detmap: output-affecting packages must not leak Go's randomized map
// iteration order (or wall-clock / PRNG values) into their results.
//
// The house invariant is byte-identical PAF across transports, schedules,
// world sizes, and resume paths; checkpoint segment digests extend it to
// on-disk state. A `for k := range m` whose iteration order reaches the
// output breaks that silently and intermittently.
//
// A range over a map in an audited package is flagged unless one of two
// escape hatches shows the order cannot matter:
//
//   - the loop body is order-insensitive: it only accumulates into
//     numeric scalars with commutative ops (+=, |=, ...), inserts into
//     another map keyed by the range key, deletes from the ranged map,
//     declares loop-locals, or bails out via return/panic (failure
//     paths); or
//   - a sort.* / slices.Sort* call follows the loop in the same function
//     (the collect-then-sort idiom).
//
// Both are heuristics (a later sort of something unrelated also passes),
// deliberately cheap to reason about. What they cannot see is rewritten
// (collect, then sort) or taught to the analyzer with a fixture.
//
// The same analyzer bans time.Now and math/rand in audited packages:
// wall-clock accounting must go through internal/walltime, whose opaque
// Point type cannot leak an absolute timestamp into output.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var detmapAnalyzer = &Analyzer{
	Name: "detmap",
	Doc:  "flags nondeterministic map iteration, time.Now, and math/rand in output-affecting packages",
	Run:  runDetmap,
}

func runDetmap(p *Pkg, _ *Program, cfg *Config, report reporter) {
	if !cfg.detmapAudited(p.ImportPath) {
		return
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			switch imp.Path.Value {
			case `"math/rand"`, `"math/rand/v2"`:
				report(imp.Pos(), "math/rand in output-affecting package %s: seeded or not, PRNG state must not reach PAF or checkpoint bytes", p.ImportPath)
			}
		}
	}
	for _, fd := range funcDecls(p) {
		body := fd.Body
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := calleeOf(p.Info, n); fn != nil && fn.Name() == "Now" && pkgPathOf(fn) == "time" {
					report(n.Pos(), "time.Now in output-affecting package %s: use internal/walltime for wall-clock accounting", p.ImportPath)
				}
			case *ast.RangeStmt:
				t := p.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if orderInsensitiveLoop(p.Info, n) || sortsAfter(p.Info, body, n.End()) {
					return true
				}
				report(n.Pos(), "map iteration order escapes this loop: sort before emitting, restructure into a commutative accumulation, or iterate a sorted key slice")
			}
			return true
		})
	}
}

// sortsAfter reports whether a sort call (package sort or slices) occurs
// after pos in the function body — the collect-then-sort idiom.
func sortsAfter(info *types.Info, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return !found
		}
		if fn := calleeOf(info, call); fn != nil {
			switch pkgPathOf(fn) {
			case "sort", "slices":
				found = true
			}
		}
		return !found
	})
	return found
}

// orderInsensitiveLoop reports whether the range body cannot observe the
// iteration order (see the package comment for the allowed forms).
func orderInsensitiveLoop(info *types.Info, rs *ast.RangeStmt) bool {
	keyObj := rangeVarObj(info, rs.Key)
	var stmtOK func(s ast.Stmt) bool
	stmtsOK := func(list []ast.Stmt) bool {
		for _, s := range list {
			if !stmtOK(s) {
				return false
			}
		}
		return true
	}
	stmtOK = func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.IncDecStmt:
			return isNumeric(info, s.X)
		case *ast.AssignStmt:
			switch s.Tok {
			case token.DEFINE:
				return true // loop-local declaration
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
				token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
				return len(s.Lhs) == 1 && isNumeric(info, s.Lhs[0])
			case token.ASSIGN:
				for _, l := range s.Lhs {
					if !assignTargetOK(info, rs, keyObj, l) {
						return false
					}
				}
				return true
			}
			return false
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				switch id.Name {
				case "panic":
					return true
				case "delete":
					// Deleting the current key from the ranged map is the
					// filter idiom; deleting anything else is ordered.
					return len(call.Args) == 2 && sameObj(info, call.Args[1], keyObj)
				}
			}
			return false
		case *ast.IfStmt:
			if s.Init != nil && !stmtOK(s.Init) {
				return false
			}
			if !stmtsOK(s.Body.List) {
				return false
			}
			return s.Else == nil || stmtOK(s.Else)
		case *ast.SwitchStmt:
			if s.Init != nil && !stmtOK(s.Init) {
				return false
			}
			for _, c := range s.Body.List {
				if !stmtsOK(c.(*ast.CaseClause).Body) {
					return false
				}
			}
			return true
		case *ast.BlockStmt:
			return stmtsOK(s.List)
		case *ast.ReturnStmt:
			// Early returns are failure paths here (which error surfaces
			// may vary, the success output does not).
			return true
		case *ast.BranchStmt:
			// continue is fine; break/goto make the exit iteration-order
			// dependent.
			return s.Tok == token.CONTINUE
		case *ast.RangeStmt:
			// A nested range is fine when its own body is; a nested range
			// over another map is additionally judged on its own by the
			// main walk.
			return stmtOK(s.Body)
		case *ast.ForStmt:
			return (s.Init == nil || stmtOK(s.Init)) &&
				(s.Post == nil || stmtOK(s.Post)) && stmtOK(s.Body)
		case *ast.DeclStmt:
			return true
		}
		return false
	}
	return stmtsOK(rs.Body.List)
}

// assignTargetOK accepts plain assignments that stay order-free: writes
// to variables declared inside the loop body, and inserts into another
// map indexed by the range key (a set insert — each iteration writes a
// distinct element).
func assignTargetOK(info *types.Info, rs *ast.RangeStmt, keyObj types.Object, l ast.Expr) bool {
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return true
		}
		obj := info.Uses[l]
		return obj != nil && rs.Body.Pos() <= obj.Pos() && obj.Pos() < rs.Body.End()
	case *ast.IndexExpr:
		t := info.TypeOf(l.X)
		if t == nil {
			return false
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return false
		}
		return sameObj(info, l.Index, keyObj)
	}
	return false
}

// rangeVarObj resolves the object of a range key/value variable.
func rangeVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// sameObj reports whether e is an identifier bound to obj.
func sameObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && info.Uses[id] == obj
}

func isNumeric(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsNumeric) != 0
}
