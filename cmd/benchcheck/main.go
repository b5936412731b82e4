// Command benchcheck is the CI bench-regression gate: it compares a fresh
// dibella-bench snapshot against the latest committed BENCH_PR*.json and
// fails (exit 1) if any schedule's modeled virtual_seconds moved by more
// than the tolerance in either direction. The modeled times are
// machine-independent, so a fresh CI run of unchanged code reproduces the
// committed numbers exactly; a regression beyond tolerance means a code
// change slowed a modeled hot path, and an improvement beyond tolerance
// means the committed snapshot is stale — left in place it would let the
// same schedule regress by that much again unnoticed, so the PR that
// earned the improvement re-bases the snapshot.
//
// Usage:
//
//	benchcheck -fresh BENCH_CI.json              # auto-discover the committed baseline
//	benchcheck -prev BENCH_PR26.json -fresh BENCH_CI.json
//
// The diff is strictly per-schedule (sync / streamed / ckpt / serve /
// ...): only schedules present in both snapshots gate the build, so a
// fresh snapshot that *adds* a schedule (a new feature's run) passes
// with the addition reported as informational, and a schedule missing
// from the fresh snapshot is called out as a warning (lost coverage)
// without failing the gate. Identical schedule sets are not required.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		prev      = flag.String("prev", "", "committed baseline snapshot (default: highest-numbered BENCH_PR*.json in -dir)")
		fresh     = flag.String("fresh", "", "freshly generated snapshot (required)")
		dir       = flag.String("dir", ".", "directory to search for the committed baseline")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional virtual_seconds change, either way")
	)
	flag.Parse()
	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -fresh is required")
		flag.Usage()
		os.Exit(2)
	}
	prevPath := *prev
	if prevPath == "" {
		p, err := latestSnapshot(*dir)
		if err != nil {
			fatal(err)
		}
		prevPath = p
	}
	prevSnap, err := loadSnapshot(prevPath)
	if err != nil {
		fatal(err)
	}
	freshSnap, err := loadSnapshot(*fresh)
	if err != nil {
		fatal(err)
	}
	// Modeled times are only comparable on the same modeled job: a scale
	// or shape change must come with a regenerated committed baseline,
	// not slip through as a speedup or a spurious regression.
	if err := prevSnap.comparable(freshSnap); err != nil {
		fatal(fmt.Errorf("%s vs %s: %w (regenerate the committed baseline alongside the workload change)",
			prevPath, *fresh, err))
	}
	report, failed, err := compare(prevSnap, freshSnap, prevPath, *fresh, *tolerance)
	if err != nil {
		fatal(err)
	}
	fmt.Print(report)
	if failed {
		os.Exit(1)
	}
}

// compare diffs two comparable snapshots per schedule. Only schedules in
// both gate the result; additions and removals are reported but never
// fail the check.
func compare(prevSnap, freshSnap *snapshot, prevPath, freshPath string, tolerance float64) (string, bool, error) {
	prevRuns, freshRuns := prevSnap.runs, freshSnap.runs
	var common, added, missing []string
	for name := range prevRuns {
		if _, ok := freshRuns[name]; ok {
			common = append(common, name)
		} else {
			missing = append(missing, name)
		}
	}
	for name := range freshRuns {
		if _, ok := prevRuns[name]; !ok {
			added = append(added, name)
		}
	}
	if len(common) == 0 {
		return "", false, fmt.Errorf("no common schedules between %s and %s", prevPath, freshPath)
	}
	sort.Strings(common)
	sort.Strings(added)
	sort.Strings(missing)

	var b strings.Builder
	failed := false
	fmt.Fprintf(&b, "bench regression check: %s (baseline) vs %s (fresh), tolerance %.0f%%\n",
		prevPath, freshPath, tolerance*100)
	for _, name := range common {
		p, f := prevRuns[name], freshRuns[name]
		delta := (f - p) / p
		status := "ok"
		switch {
		case delta > tolerance:
			status = "REGRESSED"
			failed = true
		case delta < -tolerance:
			status = "improved beyond tolerance: re-base the committed snapshot"
			failed = true
		}
		fmt.Fprintf(&b, "  %-10s virtual_seconds %.6f -> %.6f (%+.1f%%) %s\n",
			name, p, f, delta*100, status)
	}
	for _, name := range added {
		fmt.Fprintf(&b, "  %-10s virtual_seconds %.6f (new schedule, no baseline to gate against)\n",
			name, freshRuns[name])
	}
	for _, name := range missing {
		fmt.Fprintf(&b, "  %-10s WARNING: present in baseline but missing from fresh snapshot (coverage lost?)\n",
			name)
	}
	return b.String(), failed, nil
}

// snapshot is the comparable content of one bench JSON: the workload
// identity plus every schedule's virtual_seconds.
type snapshot struct {
	Workload string `json:"workload"`
	Platform string `json:"platform"`
	Nodes    int    `json:"nodes"`
	SimRanks int    `json:"sim_ranks"`
	runs     map[string]float64
}

// comparable reports whether two snapshots priced the same modeled job.
func (s *snapshot) comparable(o *snapshot) error {
	switch {
	case s.Workload != o.Workload:
		return fmt.Errorf("workloads differ: %q vs %q", s.Workload, o.Workload)
	case s.Platform != o.Platform:
		return fmt.Errorf("platforms differ: %q vs %q", s.Platform, o.Platform)
	case s.Nodes != o.Nodes:
		return fmt.Errorf("modeled node counts differ: %d vs %d", s.Nodes, o.Nodes)
	case s.SimRanks != o.SimRanks:
		return fmt.Errorf("sim rank counts differ: %d vs %d", s.SimRanks, o.SimRanks)
	}
	return nil
}

// loadSnapshot extracts the workload identity and every schedule's
// virtual_seconds from a snapshot. The run decoding is schema-tolerant:
// any top-level object carrying a numeric "virtual_seconds" counts as a
// schedule, so older snapshots (fewer schedules) and newer ones compare
// on their intersection.
func loadSnapshot(path string) (*snapshot, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(blob, &top); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.runs = make(map[string]float64)
	for name, raw := range top {
		var run struct {
			VirtualSeconds *float64 `json:"virtual_seconds"`
		}
		if err := json.Unmarshal(raw, &run); err != nil || run.VirtualSeconds == nil {
			continue // not a schedule object
		}
		if *run.VirtualSeconds <= 0 {
			return nil, fmt.Errorf("%s: schedule %q has non-positive virtual_seconds %v",
				path, name, *run.VirtualSeconds)
		}
		s.runs[name] = *run.VirtualSeconds
	}
	if len(s.runs) == 0 {
		return nil, fmt.Errorf("%s: no schedule runs with virtual_seconds found", path)
	}
	return &s, nil
}

var snapshotRe = regexp.MustCompile(`^BENCH_PR(\d+)\.json$`)

// latestSnapshot returns the highest-numbered committed BENCH_PR*.json.
func latestSnapshot(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		m := snapshotRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		if n > bestN {
			bestN, best = n, filepath.Join(dir, e.Name())
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_PR*.json snapshot in %s", dir)
	}
	return best, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
