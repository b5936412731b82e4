package main

// Package loading without golang.org/x/tools: one `go list -deps
// -export -json` enumerates the audited packages (its DepOnly: false
// entries) and builds and names the compiler export data of their whole
// dependency closure; each audited package is then parsed and
// type-checked from source against that export data. This gives the
// analyzers full go/types resolution using only the standard library.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Pkg is one loaded, type-checked package.
type Pkg struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPkg is the subset of `go list -json` output the loader uses.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -deps -export -json` over patterns and decodes
// the package stream: the matched packages and their dependencies, with
// export data built for each.
func goList(patterns []string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json", "--"}, patterns...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listedPkg
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("load %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiler export data.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// typecheckDir parses and type-checks the named .go files of one package
// directory against the export map. Source positions land in fset.
func typecheckDir(fset *token.FileSet, importPath, dir string, goFiles []string,
	exports map[string]string) (*Pkg, error) {

	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: exportImporter(fset, exports)}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", importPath, err)
	}
	return &Pkg{ImportPath: importPath, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// loadPackages loads every package matching patterns, type-checked and
// ready for analysis.
func loadPackages(patterns []string) ([]*Pkg, error) {
	listed, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, l := range listed {
		if l.Export != "" {
			exports[l.ImportPath] = l.Export
		}
	}
	fset := token.NewFileSet()
	var pkgs []*Pkg
	for _, t := range listed {
		if t.DepOnly || t.Standard || len(t.GoFiles) == 0 {
			continue
		}
		p, err := typecheckDir(fset, t.ImportPath, t.Dir, t.GoFiles, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
