package main

// The analyzer framework: diagnostics, the //lint:ignore suppression
// convention, and the type-resolution helpers shared by the analyzers.
//
// Suppression: a diagnostic is suppressed by
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or on the line directly above it. The reason is
// mandatory — a suppression without one is itself reported (analyzer
// "suppress") and does not suppress anything. A well-formed directive
// that matches no diagnostic is stale — the code it excused has been
// fixed or moved — and is reported too, so suppressions cannot outlive
// their findings.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	// Suppressed carries the //lint:ignore reason when one applied.
	Suppressed string `json:"suppressed,omitempty"`
}

// Analyzer is one static check over a type-checked package. Run also
// receives the whole-run Program, whose call-graph summaries let a
// check reason across function and package boundaries.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pkg, prog *Program, cfg *Config, report reporter)
}

type reporter func(pos token.Pos, format string, args ...any)

// allAnalyzers returns the suite in reporting order.
func allAnalyzers() []*Analyzer {
	return []*Analyzer{spmdorderAnalyzer, detmapAnalyzer, collecterrAnalyzer, tracenameAnalyzer}
}

// suppression is one parsed //lint:ignore directive.
type suppression struct {
	analyzer string
	reason   string
	pos      token.Pos
	used     bool
}

// collectSuppressions parses every //lint:ignore directive in the package,
// keyed by file and line. Malformed directives (no analyzer, or no reason)
// are reported immediately.
func collectSuppressions(p *Pkg, report reporter) map[string]map[int]*suppression {
	sups := make(map[string]map[int]*suppression)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					report(c.Pos(), "malformed //lint:ignore: need an analyzer name and a reason")
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := sups[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]*suppression)
					sups[pos.Filename] = byLine
				}
				byLine[pos.Line] = &suppression{analyzer: fields[0], reason: strings.Join(fields[1:], " "), pos: c.Pos()}
			}
		}
	}
	return sups
}

// runAnalyzers runs the given analyzers over one package, applies
// suppressions, and returns all diagnostics (suppressed ones carry the
// reason and do not fail the run). A directive that suppressed nothing
// is reported as stale.
func runAnalyzers(p *Pkg, prog *Program, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	reportAs := func(name string) reporter {
		return func(pos token.Pos, format string, args ...any) {
			position := p.Fset.Position(pos)
			diags = append(diags, Diagnostic{
				Analyzer: name,
				File:     position.Filename,
				Line:     position.Line,
				Col:      position.Column,
				Message:  fmt.Sprintf(format, args...),
			})
		}
	}
	sups := collectSuppressions(p, reportAs("suppress"))
	for _, a := range analyzers {
		a.Run(p, prog, cfg, reportAs(a.Name))
	}
	for i := range diags {
		d := &diags[i]
		if d.Analyzer == "suppress" {
			continue
		}
		for _, line := range []int{d.Line, d.Line - 1} {
			if s, ok := sups[d.File][line]; ok && s.analyzer == d.Analyzer {
				d.Suppressed = s.reason
				s.used = true
				break
			}
		}
	}
	reportStale := reportAs("suppress")
	for _, byLine := range sups {
		for _, s := range byLine {
			if !s.used {
				reportStale(s.pos, "//lint:ignore %s suppresses nothing: the finding it excused is gone, remove the stale directive", s.analyzer)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// calleeOf resolves the function or method object a call invokes,
// unwrapping parentheses and generic instantiations. Returns nil for
// calls through function values, builtins, and type conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch e := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(e.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(e.X)
	}
	var obj types.Object
	switch e := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// pkgPathOf returns the import path of the package declaring fn
// ("" for builtins and error.Error).
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isCollectiveCall reports whether a call is one of the SPMD collective
// operations every rank must reach in the same order.
func isCollectiveCall(info *types.Info, cfg *Config, call *ast.CallExpr) (name string, ok bool) {
	fn := calleeOf(info, call)
	if fn == nil || pkgPathOf(fn) != cfg.SpmdPath {
		return "", false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		if cfg.CollectiveMethods[fn.Name()] {
			return recvTypeName(sig) + "." + fn.Name(), true
		}
		return "", false
	}
	if cfg.CollectiveFuncs[fn.Name()] {
		return fn.Name(), true
	}
	return "", false
}

// recvTypeName names a method's receiver type ("Comm", "Transport", ...).
func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return "interface"
	}
	return t.String()
}

// funcDecls yields every function declaration with a body in the package.
func funcDecls(p *Pkg) []*ast.FuncDecl {
	var decls []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	return decls
}
