package main

// Table-driven fixture tests. Each package under testdata/src encodes its
// expected diagnostics as comments:
//
//	// want <analyzer>:"substring"
//
// The fixtures are real compiled packages, loaded through the same
// go list / export-data path as production runs and importing the real
// spmd / ckpt / trace packages, so the analyzers' type resolution is
// exercised end to end. They live under testdata/ precisely because go
// wildcards skip it: `dibella-lint ./...` never audits the
// intentionally-bad code, but the explicit import paths below still load.

import (
	"regexp"
	"strings"
	"testing"
)

const fixtureBase = "dibella/cmd/dibella-lint/testdata/src/"

type expectation struct {
	file     string
	line     int
	analyzer string
	substr   string
	matched  bool
}

var wantRe = regexp.MustCompile(`^//\s*want\s+(\w+):"([^"]*)"`)

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
				wants = append(wants, &expectation{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: m[1],
					substr:   m[2],
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
		w.matched = true
		return true
	}
	return false
}

func TestFixtures(t *testing.T) {
	// primary is the analyzer the fixture exists to exercise: it must
	// produce at least one diagnostic there. "" marks a
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
			// a violation (a want) and letting clean code pass
			// (the Good* functions, checked by the unexpected-diagnostic
			// loop below).
			if primary != "" {
				caught := false
				for _, w := range wants {
					caught = caught || w.analyzer == primary
				}
				if !caught {
					t.Errorf("fixture %s has no %s expectation", p.ImportPath, primary)
				}
			}

			diags := runAnalyzers(p, prog, cfg, allAnalyzers())
			for _, d := range diags {
				if !claim(wants, d) {
					t.Errorf("unexpected diagnostic %s:%d: %s: %s",
						d.File, d.Line, d.Analyzer, d.Message)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("missing diagnostic at %s:%d: %s:%q", w.file, w.line, w.analyzer, w.substr)
				}
			}
		})
	}
}
