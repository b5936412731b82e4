package main

// The analyzer framework: diagnostics, the per-package driver, and the
// type-resolution helpers shared by the analyzers. There is no
// suppression directive: the gate's contract is zero findings.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
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

// runAnalyzers runs the given analyzers over one package and returns
// their diagnostics sorted by position.
func runAnalyzers(p *Pkg, prog *Program, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(p, prog, cfg, func(pos token.Pos, format string, args ...any) {
			position := p.Fset.Position(pos)
			diags = append(diags, Diagnostic{
				Analyzer: a.Name,
				File:     position.Filename,
				Line:     position.Line,
				Col:      position.Column,
				Message:  fmt.Sprintf(format, args...),
			})
		})
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
