package main

// Table-driven fixture tests. Each package under testdata/src encodes its
// expected diagnostics as comments:
//
//	// want <analyzer>:"substring"      unsuppressed diagnostic on this line
//	// wantsup <analyzer>:"substring"   suppressed diagnostic on this line
//	// want(-1) <analyzer>:"substring"  diagnostic one line above
//
// The fixtures are real compiled packages, loaded through the same
// go list / export-data path as production runs and importing the real
// spmd / ckpt / trace packages, so the analyzers' type resolution is
// exercised end to end. They live under testdata/ precisely because go
// wildcards skip it: `dibella-lint ./...` never audits the
// intentionally-bad code, but the explicit import paths below still load.

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const fixtureBase = "dibella/cmd/dibella-lint/testdata/src/"

type expectation struct {
	file       string
	line       int
	analyzer   string
	substr     string
	suppressed bool
	matched    bool
}

var wantRe = regexp.MustCompile(`^//\s*want(sup)?(?:\((-?\d+)\))?\s+(\w+):"([^"]*)"`)

// collectExpectations parses the // want comments of a loaded package.
func collectExpectations(t *testing.T, p *Pkg) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				offset := 0
				if m[2] != "" {
					var err error
					if offset, err = strconv.Atoi(m[2]); err != nil {
						t.Fatalf("%s:%d: bad want offset %q", pos.Filename, pos.Line, m[2])
					}
				}
				wants = append(wants, &expectation{
					file:       pos.Filename,
					line:       pos.Line + offset,
					analyzer:   m[3],
					substr:     m[4],
					suppressed: m[1] == "sup",
				})
			}
		}
	}
	return wants
}

// claim marks the first unmatched expectation the diagnostic satisfies.
func claim(wants []*expectation, d Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.file != d.File || w.line != d.Line || w.analyzer != d.Analyzer {
			continue
		}
		if !strings.Contains(d.Message, w.substr) {
			continue
		}
		if w.suppressed != (d.Suppressed != "") {
			continue
		}
		w.matched = true
		return true
	}
	return false
}

func TestFixtures(t *testing.T) {
	// primary is the analyzer the fixture exists to exercise: it must
	// produce at least one unsuppressed diagnostic there. "" marks a
	// support package (helpers a cross-package fixture calls into) that
	// only has to stay clean.
	fixtures := []struct {
		dir     string
		primary string
	}{
		{"spmdorder", "spmdorder"},
		{"detmap", "detmap"},
		{"collecterr", "collecterr"},
		// interproc imports interproc/helpers: the engine must see
		// through the package boundary via the shared call graph.
		{"interproc", "spmdorder"},
		{"interproc/helpers", ""},
		// tracename/helpers declares a cross-package trace name const.
		{"tracename", "tracename"},
		{"tracename/helpers", ""},
	}
	patterns := make([]string, len(fixtures))
	primaries := make(map[string]string, len(fixtures))
	for i, f := range fixtures {
		patterns[i] = fixtureBase + f.dir
		primaries[fixtureBase+f.dir] = f.primary
	}
	cfg := DefaultConfig()
	// The detmap fixture stands in for an output-affecting package.
	cfg.DetmapPackages = append(cfg.DetmapPackages, fixtureBase+"detmap")

	pkgs, err := loadPackages(patterns)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	if len(pkgs) != len(fixtures) {
		t.Fatalf("loaded %d fixture packages, want %d", len(pkgs), len(fixtures))
	}
	// One program over all fixture packages, as in production: the
	// interproc fixtures depend on summaries of their helper package.
	prog := NewProgram(pkgs, cfg)
	for _, p := range pkgs {
		name := strings.TrimPrefix(p.ImportPath, fixtureBase)
		primary := primaries[p.ImportPath]
		t.Run(name, func(t *testing.T) {
			wants := collectExpectations(t, p)
			if len(wants) == 0 && primary != "" {
				t.Fatalf("fixture %s declares no expectations", p.ImportPath)
			}
			// Every primary fixture must show its analyzer both catching
			// a violation (unsuppressed want) and letting clean code pass
			// (the Good* functions, checked by the unexpected-diagnostic
			// loop below).
			if primary != "" {
				caught := false
				for _, w := range wants {
					caught = caught || w.analyzer == primary && !w.suppressed
				}
				if !caught {
					t.Errorf("fixture %s has no unsuppressed %s expectation", p.ImportPath, primary)
				}
			}

			diags := runAnalyzers(p, prog, cfg, allAnalyzers())
			for _, d := range diags {
				if !claim(wants, d) {
					t.Errorf("unexpected diagnostic %s:%d: %s: %s (suppressed=%q)",
						d.File, d.Line, d.Analyzer, d.Message, d.Suppressed)
				}
			}
			for _, w := range wants {
				if !w.matched {
					kind := "diagnostic"
					if w.suppressed {
						kind = "suppressed diagnostic"
					}
					t.Errorf("missing %s at %s:%d: %s:%q", kind, w.file, w.line, w.analyzer, w.substr)
				}
			}
		})
	}
}
