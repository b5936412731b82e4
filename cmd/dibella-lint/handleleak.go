package main

// handleleak: every posted exchange handle must reach Wait.
//
// IAlltoallv (typed or on the raw transport) returns a handle
// (spmd.Handle or spmd.PendingExchange) the caller must Wait on: the peers have already posted their sides, so a
// rank that drops its handle leaves the world's exchange matrix
// half-completed and the next collective deadlocks. This is the
// lostcancel shape, but the leak costs the whole world, not one
// context.
//
// The analyzer runs a path-sensitive walk over each function body
// (and each function literal), carrying the set of maybe-live handle
// obligations:
//
//   - an obligation is created when a call result of a handle type is
//     assigned to a variable; a handle result that is discarded (bare
//     call statement, or assigned to _) is reported immediately;
//   - any other use discharges it — a Wait call, but also returning
//     the handle, passing it to a call (append to a pending slice),
//     storing it in a composite literal or struct field, sending it on
//     a channel, or capturing it in a closure: ownership moved
//     somewhere this intraprocedural walk cannot follow, and claiming
//     a leak would be a false positive. Comparisons (==, !=) are not
//     uses: `if h != nil` keeps the obligation alive;
//   - branches fork the obligation set and joins take the union, so a
//     handle waited on only one arm is still live on the other;
//   - the `h, err := post(...); if err != nil { return ... }` idiom is
//     exempt: on the error arm the handle was never posted, so the
//     obligation is dropped there;
//   - a return (or falling off the end of the function) with live
//     obligations reports each at its creation site, once.
//
// Loop bodies are walked once (obligations flow out of the body and
// its breaks/continues); functions using goto are skipped outright.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var handleleakAnalyzer = &Analyzer{
	Name: "handleleak",
	Doc:  "flags exchange handles (PendingExchange, Handle) that can miss Wait on some path",
	Run:  runHandleleak,
}

func runHandleleak(p *Pkg, _ *Program, cfg *Config, report reporter) {
	for _, f := range p.Files {
		// Every function body — declarations and literals — is its own
		// flow unit: a closure's obligations must resolve inside it.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			}
			if body == nil || usesGoto(body) {
				return true
			}
			hl := &hlUnit{p: p, cfg: cfg, report: report, namedResults: namedResultObjs(p.Info, n)}
			st := hl.block(body.List, make(hstate))
			hl.reportLive(st, token.NoPos)
			return true
		})
	}
}

// usesGoto reports whether the body (excluding nested function
// literals) contains a goto; label-driven flow is out of scope.
func usesGoto(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if n.Tok == token.GOTO {
				found = true
			}
		}
		return !found
	})
	return found
}

// oblig is one outstanding Wait obligation. It is shared between the
// states of every path that saw the same creation, so a leak on several
// paths reports once, at the creation site.
type oblig struct {
	pos      token.Pos
	what     string       // creating call, e.g. "spmd.IAlltoallv"
	errObj   types.Object // paired error result, for the err-guard exemption
	reported bool
}

// hstate maps handle variables to their maybe-live obligations. A nil
// hstate means the path is unreachable.
type hstate map[types.Object]*oblig

func (st hstate) clone() hstate {
	out := make(hstate, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// mergeInto unions b into a (either may be nil = unreachable).
func mergeInto(a, b hstate) hstate {
	if a == nil {
		return b
	}
	for k, v := range b {
		a[k] = v
	}
	return a
}

// hlUnit is the per-function walk state: break/continue collectors for
// the enclosing loops and switches, plus the unit's named result
// objects (a bare return publishes the handles they hold).
type hlUnit struct {
	p            *Pkg
	cfg          *Config
	report       reporter
	namedResults map[types.Object]bool
	breaks       []*[]hstate
	conts        []*[]hstate
}

// namedResultObjs collects the named result variables of a function
// declaration or literal.
func namedResultObjs(info *types.Info, fn ast.Node) map[types.Object]bool {
	var ftype *ast.FuncType
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		ftype = fn.Type
	case *ast.FuncLit:
		ftype = fn.Type
	}
	if ftype == nil || ftype.Results == nil {
		return nil
	}
	out := make(map[types.Object]bool)
	for _, field := range ftype.Results.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// reportLive reports every live, unreported obligation: at a return
// (ret is its position) or at the end of the function (NoPos).
func (hl *hlUnit) reportLive(st hstate, ret token.Pos) {
	for _, ob := range st {
		if ob.reported {
			continue
		}
		ob.reported = true
		if ret.IsValid() {
			hl.report(ob.pos, "exchange handle from %s may reach the return at line %d without Wait: a leaked handle deadlocks the world",
				ob.what, hl.p.Fset.Position(ret).Line)
		} else {
			hl.report(ob.pos, "exchange handle from %s may reach the end of the function without Wait: a leaked handle deadlocks the world", ob.what)
		}
	}
}

// block flows one statement list, returning the fall-through state (nil
// when every path returned, panicked, or branched away).
func (hl *hlUnit) block(list []ast.Stmt, st hstate) hstate {
	for _, s := range list {
		if st == nil {
			return nil
		}
		st = hl.stmt(s, st)
	}
	return st
}

func (hl *hlUnit) stmt(s ast.Stmt, st hstate) hstate {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return hl.assign(s.Lhs, s.Rhs, st)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return st
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) == 0 {
				continue
			}
			lhs := make([]ast.Expr, len(vs.Names))
			for i, name := range vs.Names {
				lhs[i] = name
			}
			st = hl.assign(lhs, vs.Values, st)
		}
		return st
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if isPanicLike(hl.p.Info, call) {
				hl.discharge(st, s.X)
				return nil
			}
			// A discarded handle result leaks immediately: nothing can
			// ever Wait on it.
			hl.discharge(st, s.X)
			for _, res := range handleResults(hl.p.Info, hl.cfg, call) {
				hl.report(call.Pos(), "exchange handle from %s is discarded without Wait: a leaked handle deadlocks the world", res.what)
			}
			return st
		}
		hl.discharge(st, s.X)
		return st
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			hl.discharge(st, r)
		}
		if len(s.Results) == 0 {
			// A bare return hands named results (and any handles they
			// hold) to the caller.
			for obj := range st {
				if hl.namedResults[obj] {
					ob := st[obj]
					for k, v := range st {
						if v == ob {
							delete(st, k)
						}
					}
				}
			}
		}
		hl.reportLive(st, s.Pos())
		return nil
	case *ast.IfStmt:
		if s.Init != nil {
			st = hl.stmt(s.Init, st)
			if st == nil {
				return nil
			}
		}
		hl.discharge(st, s.Cond)
		thenSt, elseSt := st.clone(), st.clone()
		hl.applyErrGuard(s.Cond, thenSt, elseSt)
		thenSt = hl.block(s.Body.List, thenSt)
		if s.Else != nil {
			elseSt = hl.stmt(s.Else, elseSt)
		}
		return mergeInto(thenSt, elseSt)
	case *ast.BlockStmt:
		return hl.block(s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			st = hl.stmt(s.Init, st)
			if st == nil {
				return nil
			}
		}
		if s.Cond != nil {
			hl.discharge(st, s.Cond)
		}
		var brks, cnts []hstate
		hl.breaks = append(hl.breaks, &brks)
		hl.conts = append(hl.conts, &cnts)
		bodySt := hl.block(s.Body.List, st.clone())
		if s.Post != nil && bodySt != nil {
			bodySt = hl.stmt(s.Post, bodySt)
		}
		hl.breaks = hl.breaks[:len(hl.breaks)-1]
		hl.conts = hl.conts[:len(hl.conts)-1]
		if s.Cond == nil {
			// for {} only exits through break; the body's fall loops
			// back around.
			var out hstate
			for _, b := range brks {
				out = mergeInto(out, b)
			}
			return out
		}
		out := st // zero iterations fall straight through
		out = mergeInto(out, bodySt)
		for _, c := range cnts {
			// A continue re-tests the condition, which can then exit.
			out = mergeInto(out, c)
		}
		for _, b := range brks {
			out = mergeInto(out, b)
		}
		return out
	case *ast.RangeStmt:
		hl.discharge(st, s.X)
		var brks, cnts []hstate
		hl.breaks = append(hl.breaks, &brks)
		hl.conts = append(hl.conts, &cnts)
		bodySt := hl.block(s.Body.List, st.clone())
		hl.breaks = hl.breaks[:len(hl.breaks)-1]
		hl.conts = hl.conts[:len(hl.conts)-1]
		out := mergeInto(st, bodySt)
		for _, b := range brks {
			out = mergeInto(out, b)
		}
		for _, c := range cnts {
			out = mergeInto(out, c)
		}
		return out
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return hl.switchLike(s, st)
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if len(hl.breaks) > 0 {
				top := hl.breaks[len(hl.breaks)-1]
				*top = append(*top, st)
			}
			return nil
		case token.CONTINUE:
			if len(hl.conts) > 0 {
				top := hl.conts[len(hl.conts)-1]
				*top = append(*top, st)
			}
			return nil
		case token.FALLTHROUGH:
			return st
		}
		return st
	case *ast.LabeledStmt:
		return hl.stmt(s.Stmt, st)
	case *ast.DeferStmt:
		hl.discharge(st, s.Call)
		return st
	case *ast.GoStmt:
		hl.discharge(st, s.Call)
		return st
	case *ast.SendStmt:
		hl.discharge(st, s.Chan)
		hl.discharge(st, s.Value)
		return st
	case *ast.IncDecStmt:
		hl.discharge(st, s.X)
		return st
	case *ast.EmptyStmt:
		return st
	}
	// Unmodeled statement kinds carry no handle flow.
	return st
}

// switchLike flows switch/type-switch/select: each clause forks from
// the incoming state and the falls merge. A switch with no default may
// run no clause at all; a select with no default always runs one.
func (hl *hlUnit) switchLike(s ast.Stmt, st hstate) hstate {
	var init ast.Stmt
	var scan []ast.Node
	var body *ast.BlockStmt
	hasDefault := false
	mayskip := true
	switch s := s.(type) {
	case *ast.SwitchStmt:
		init, body = s.Init, s.Body
		if s.Tag != nil {
			scan = append(scan, s.Tag)
		}
	case *ast.TypeSwitchStmt:
		init, body = s.Init, s.Body
		scan = append(scan, s.Assign)
	case *ast.SelectStmt:
		body = s.Body
		mayskip = false
	}
	if init != nil {
		st = hl.stmt(init, st)
		if st == nil {
			return nil
		}
	}
	for _, n := range scan {
		hl.discharge(st, n)
	}
	var brks []hstate
	hl.breaks = append(hl.breaks, &brks)
	var out hstate
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				hl.discharge(st, e)
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			}
			clSt := st.clone()
			if cl.Comm != nil {
				clSt = hl.stmt(cl.Comm, clSt)
			}
			out = mergeInto(out, hl.block(cl.Body, clSt))
			continue
		}
		out = mergeInto(out, hl.block(stmts, st.clone()))
	}
	hl.breaks = hl.breaks[:len(hl.breaks)-1]
	for _, b := range brks {
		out = mergeInto(out, b)
	}
	if mayskip && !hasDefault {
		out = mergeInto(out, st)
	}
	return out
}

// assign processes one (possibly parallel or tuple) assignment:
// aliases share the obligation, other right-hand sides are scanned for
// discharging uses, and handle-typed call results create obligations
// (or report immediately when assigned to _).
func (hl *hlUnit) assign(lhs, rhs []ast.Expr, st hstate) hstate {
	// Discharge uses in non-identifier assignment targets (indexes,
	// fields); plain identifier targets are definitions, not uses.
	for _, l := range lhs {
		if _, ok := ast.Unparen(l).(*ast.Ident); !ok {
			hl.discharge(st, l)
		}
	}
	if len(lhs) == len(rhs) {
		for i, r := range rhs {
			if id, ok := ast.Unparen(r).(*ast.Ident); ok {
				if ob := st[hl.p.Info.Uses[id]]; ob != nil {
					// Alias copy: both names carry the one obligation.
					if obj := lhsObj(hl.p.Info, lhs[i]); obj != nil {
						st[obj] = ob
					}
					continue
				}
			}
			hl.discharge(st, r)
			if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
				hl.create(st, call, lhs[i:i+1])
			}
		}
		return st
	}
	// Tuple form: x, err := call(...).
	for _, r := range rhs {
		hl.discharge(st, r)
	}
	if len(rhs) == 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			hl.create(st, call, lhs)
		}
	}
	return st
}

// handleResult is one handle-typed position of a call's results.
type handleResult struct {
	index int
	what  string
}

// handleResults lists the handle-typed result positions of a call.
func handleResults(info *types.Info, cfg *Config, call *ast.CallExpr) []handleResult {
	t := info.TypeOf(call)
	if t == nil {
		return nil
	}
	what := callDisplayName(info, call)
	var out []handleResult
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isHandleType(cfg, tup.At(i).Type()) {
				out = append(out, handleResult{index: i, what: what})
			}
		}
		return out
	}
	if isHandleType(cfg, t) {
		out = append(out, handleResult{index: 0, what: what})
	}
	return out
}

// create records obligations for a call's handle-typed results bound to
// the given targets, pairing each with the call's error result (if one
// is bound) for the err-guard exemption.
func (hl *hlUnit) create(st hstate, call *ast.CallExpr, targets []ast.Expr) {
	results := handleResults(hl.p.Info, hl.cfg, call)
	if len(results) == 0 {
		return
	}
	var errObj types.Object
	for _, tgt := range targets {
		if obj := lhsObj(hl.p.Info, tgt); obj != nil && isErrorType(obj.Type()) {
			errObj = obj
		}
	}
	for _, res := range results {
		if res.index >= len(targets) {
			continue
		}
		tgt := ast.Unparen(targets[res.index])
		if id, ok := tgt.(*ast.Ident); ok {
			if id.Name == "_" {
				hl.report(call.Pos(), "exchange handle from %s is discarded without Wait: a leaked handle deadlocks the world", res.what)
				continue
			}
			if obj := lhsObj(hl.p.Info, id); obj != nil {
				st[obj] = &oblig{pos: call.Pos(), what: res.what, errObj: errObj}
			}
			continue
		}
		// Handle stored into a field/index: it escapes this walk.
	}
}

// discharge removes the obligations of every handle identifier used
// under n, except identifiers that only appear as ==/!= operands.
func (hl *hlUnit) discharge(st hstate, n ast.Node) {
	if n == nil || len(st) == 0 {
		return
	}
	compared := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(c ast.Node) bool {
		if be, ok := c.(*ast.BinaryExpr); ok && (be.Op == token.EQL || be.Op == token.NEQ) {
			if id, ok := ast.Unparen(be.X).(*ast.Ident); ok {
				compared[id] = true
			}
			if id, ok := ast.Unparen(be.Y).(*ast.Ident); ok {
				compared[id] = true
			}
		}
		return true
	})
	ast.Inspect(n, func(c ast.Node) bool {
		id, ok := c.(*ast.Ident)
		if !ok || compared[id] {
			return true
		}
		obj := hl.p.Info.Uses[id]
		ob := st[obj]
		if ob == nil {
			return true
		}
		for k, v := range st {
			if v == ob {
				delete(st, k)
			}
		}
		return true
	})
}

// applyErrGuard implements the posted-exchange error idiom: under
// `if err != nil` the handle paired with err was never created, so its
// obligation is dropped on that arm (and on the else arm of == nil).
func (hl *hlUnit) applyErrGuard(cond ast.Expr, thenSt, elseSt hstate) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return
	}
	var errID *ast.Ident
	if isNilIdent(be.Y) {
		errID, _ = ast.Unparen(be.X).(*ast.Ident)
	} else if isNilIdent(be.X) {
		errID, _ = ast.Unparen(be.Y).(*ast.Ident)
	}
	if errID == nil {
		return
	}
	errObj := hl.p.Info.Uses[errID]
	if errObj == nil {
		return
	}
	errArm := thenSt
	if be.Op == token.EQL {
		errArm = elseSt
	}
	for k, ob := range errArm {
		if ob.errObj == errObj {
			delete(errArm, k)
		}
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// isHandleType reports whether t is (a pointer to) one of the SPMD
// package's exchange-handle types.
func isHandleType(cfg *Config, t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == cfg.SpmdPath && cfg.HandleTypes[obj.Name()]
}

// callDisplayName renders the creating call for diagnostics.
func callDisplayName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeOf(info, call); fn != nil {
		return funcDisplayName(fn)
	}
	return "this call"
}

// lhsObj resolves the object an assignment target binds or writes.
func lhsObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// isPanicLike reports whether the call never returns: builtin panic.
func isPanicLike(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	return id.Name == "panic"
}
