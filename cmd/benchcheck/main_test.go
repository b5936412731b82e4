package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func snap(runs map[string]float64) *snapshot {
	return &snapshot{Workload: "w", Platform: "p", Nodes: 8, SimRanks: 32, runs: runs}
}

func TestComparePerSchedule(t *testing.T) {
	prev := snap(map[string]float64{"sync": 1.0, "streamed": 0.8, "gone": 0.5})
	fresh := snap(map[string]float64{"sync": 1.05, "streamed": 0.79, "ckpt": 0.9})

	report, failed, err := compare(prev, fresh, "prev.json", "fresh.json", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	// +5% on sync is within the 10% tolerance; the added and removed
	// schedules must be reported but never gate.
	if failed {
		t.Errorf("within-tolerance diff failed:\n%s", report)
	}
	for _, want := range []string{
		"sync", "streamed",
		"ckpt", "new schedule, no baseline",
		"gone", "missing from fresh",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	// A >10% regression on a common schedule fails.
	fresh.runs["sync"] = 1.2
	report, failed, err = compare(prev, fresh, "prev.json", "fresh.json", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !failed || !strings.Contains(report, "REGRESSED") {
		t.Errorf("20%% regression passed:\n%s", report)
	}

	// So does a >10% improvement: the baseline is stale, and gating
	// against it would let the schedule regress by as much unnoticed.
	fresh.runs["sync"], fresh.runs["streamed"] = 1.0, 0.7
	report, failed, err = compare(prev, fresh, "prev.json", "fresh.json", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !failed || !strings.Contains(report, "re-base the committed snapshot") || strings.Contains(report, "REGRESSED") {
		t.Errorf("12.5%% improvement against a stale baseline passed:\n%s", report)
	}

	// An added schedule alone (no common ones) is an error, not a pass.
	if _, _, err := compare(snap(map[string]float64{"a": 1}), snap(map[string]float64{"b": 1}),
		"p", "f", 0.1); err == nil {
		t.Error("disjoint schedule sets accepted")
	}
}

func TestLoadSnapshotToleratesExtraSchedules(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	blob := `{
		"workload": "w", "platform": "p", "nodes": 8, "sim_ranks": 32,
		"sync": {"virtual_seconds": 1.5},
		"ckpt": {"virtual_seconds": 1.6, "extra_field": 3},
		"streamed_depth_sweep": [{"depth": 1, "virtual_seconds": 2.0}],
		"reads": 1200
	}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.runs) != 2 || s.runs["sync"] != 1.5 || s.runs["ckpt"] != 1.6 {
		t.Errorf("runs = %v", s.runs)
	}
}

func TestComparableGuardsJobShape(t *testing.T) {
	a := snap(map[string]float64{"sync": 1})
	b := snap(map[string]float64{"sync": 1})
	if err := a.comparable(b); err != nil {
		t.Errorf("identical shapes: %v", err)
	}
	b.Nodes = 16
	if err := a.comparable(b); err == nil {
		t.Error("node-count change accepted")
	}
}
