package dibella

// The reachability scan: an exported function, method, type, constant or
// variable of this module earns its lines by having a caller. The scan
// type-checks the non-test files of every package in the module, and every
// file of the bench/ module, records each declaration they use (a method
// counts as used when its type satisfies an interface that has it), and lists
// every exported declaration of the module that nothing uses. Each survivor
// must be in keep under the reason it stays; an entry that has gained a
// caller or lost its declaration is stale and fails the test too.
//
//	go test -run TestEveryExportHasACaller -v .

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The reasons a declaration may stay without a caller.
const (
	oracle     = "an independent oracle a test checks live code against"
	testHelper = "a helper the tests of live code use"
	paperClaim = "a paper claim a test checks against live output"
	assembly   = "the string-graph oracle Example_assembly pins for the parked distributed-assembly item"
)

// keep names every exported declaration that no non-test code reaches, by
// package path less "dibella/", with the reason it stays.
var keep = map[string]string{
	"internal/align.SmithWaterman":               oracle,
	"internal/fastq.SplitOffsets":                oracle,
	"internal/kmer.Kmer.Canonical":               oracle,
	"internal/dht.Partition.Retained":            testHelper,
	"internal/dna.IsValid":                       testHelper,
	"internal/dna.MustCode":                      testHelper,
	"internal/fastq.LocalView.ReplicaCount":      testHelper,
	"internal/fastq.ReadStore.Len":               testHelper,
	"internal/kmer.ExtractAll":                   testHelper,
	"internal/kmer.Kmer.Bytes":                   testHelper,
	"internal/kmer.MustPack":                     testHelper,
	"internal/pipeline.World.QueryStats":         testHelper,
	"internal/spmd.PoisonRecycledRows":           testHelper,
	"internal/trace.Histogram.Count":             testHelper,
	"internal/bella.EstimateSingletonFraction":   paperClaim,
	"internal/machine.Platform.NodeSpeed":        paperClaim,
	"internal/overlap.PairBounds":                paperClaim,
	"internal/evalx.BinRecall.Recall":            assembly,
	"internal/evalx.RecallByOverlapLength":       assembly,
	"internal/olgraph.New":                       assembly,
	"internal/olgraph.Graph.AddEdge":             assembly,
	"internal/olgraph.Graph.Components":          assembly,
	"internal/olgraph.Graph.Degree":              assembly,
	"internal/olgraph.Graph.Degrees":             assembly,
	"internal/olgraph.Graph.LayoutEstimate":      assembly,
	"internal/olgraph.Graph.Neighbors":           assembly,
	"internal/olgraph.Graph.NumEdges":            assembly,
	"internal/olgraph.Graph.NumReads":            assembly,
	"internal/olgraph.Graph.TransitiveReduction": assembly,
}

func TestEveryExportHasACaller(t *testing.T) {
	unreached := scanUnreached(t)
	for _, k := range unreached {
		if _, ok := keep[k]; !ok {
			t.Errorf("%s: nothing outside tests uses it; delete it or add it to keep", k)
		}
	}
	for k := range keep {
		if !slices.Contains(unreached, k) {
			t.Errorf("keep entry %s is stale: it has a caller now, or is gone", k)
		}
	}
}

// scanUnreached returns the sorted keys ("internal/x.Name",
// "internal/x.Type.Method") of the module's exported declarations that
// neither the module's non-test files nor bench/ use.
func scanUnreached(t *testing.T) []string {
	t.Helper()
	declared := map[string]bool{}
	used := map[string]bool{}
	for _, p := range checkPackages(t, ".", false) {
		markUses(p, used)
		for _, name := range p.pkg.Scope().Names() {
			obj := p.pkg.Scope().Lookup(name)
			if k := objectKey(obj); k != "" {
				declared[k] = true
			}
			if named, ok := obj.Type().(*types.Named); ok && !types.IsInterface(named) {
				for m := range named.Origin().Methods() {
					if k := objectKey(m); k != "" {
						declared[k] = true
					}
				}
			}
		}
	}
	for _, p := range checkPackages(t, "bench", true) {
		markUses(p, used)
	}
	var unreached []string
	for k := range declared {
		if !used[k] {
			unreached = append(unreached, k)
		}
	}
	sort.Strings(unreached)
	return unreached
}

// checkedPackage is one package type-checked from source.
type checkedPackage struct {
	pkg  *types.Package
	uses map[*ast.Ident]types.Object
}

// checkPackages type-checks the non-standard packages `go list ./...` finds
// in dir (their test files too if withTests), importing everything from the
// export data the same go list builds.
func checkPackages(t *testing.T, dir string, withTests bool) []checkedPackage {
	t.Helper()
	args := []string{"list", "-deps", "-export", "-json"}
	if withTests {
		args = append(args, "-test")
	}
	cmd := exec.Command("go", append(args, "./...")...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		Standard                bool
		GoFiles, TestGoFiles    []string
		DepOnly                 bool
	}
	exports := map[string]string{}
	var targets []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		// -test adds each package's test variants ("p [p.test]") and its
		// test main ("p.test"); the plain package carries the test files.
		if !p.Standard && !p.DepOnly && !strings.ContainsAny(p.ImportPath, " ") && !strings.HasSuffix(p.ImportPath, ".test") {
			targets = append(targets, p)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	var checked []checkedPackage
	for _, p := range targets {
		names := p.GoFiles
		if withTests {
			names = append(names, p.TestGoFiles...)
		}
		if len(names) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked = append(checked, checkedPackage{pkg, info.Uses})
	}
	return checked
}

// markUses records what p uses: every identifier's object, and every method
// of a module type that satisfies, for p, an interface that has the method
// (one that p's imports declare, or error).
func markUses(p checkedPackage, used map[string]bool) {
	for _, obj := range p.uses {
		if k := objectKey(obj); k != "" {
			used[k] = true
		}
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var named []*types.Named
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(q *types.Package) {
		if seen[q] {
			return
		}
		seen[q] = true
		for _, name := range q.Scope().Names() {
			n, ok := q.Scope().Lookup(name).Type().(*types.Named)
			if !ok || n.TypeParams() != nil {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else if strings.HasPrefix(q.Path(), "dibella/") {
				named = append(named, n)
			}
		}
		for _, r := range q.Imports() {
			walk(r)
		}
	}
	walk(p.pkg)
	for _, n := range named {
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !types.Implements(ptr, it) {
				continue
			}
			for m := range it.Methods() {
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				if k := objectKey(obj); k != "" {
					used[k] = true
				}
			}
		}
	}
}

// objectKey names an exported package-level declaration of the module, or
// an exported method of an exported type, by package path less "dibella/",
// receiver type for a method, and name; "" for anything else.
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() || !strings.HasPrefix(obj.Pkg().Path(), "dibella/") {
		return ""
	}
	pkg := strings.TrimPrefix(obj.Pkg().Path(), "dibella/")
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		rt := fn.Origin().Signature().Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		named, ok := rt.(*types.Named)
		if !ok || !named.Obj().Exported() {
			return "" // an interface's own method, or an unexported type's
		}
		return pkg + "." + named.Origin().Obj().Name() + "." + fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // a field or a local
	}
	switch obj.(type) {
	case *types.Func, *types.TypeName, *types.Const, *types.Var:
		return pkg + "." + obj.Name()
	}
	return ""
}
