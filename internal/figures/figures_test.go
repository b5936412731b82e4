package figures

import (
	"strings"
	"testing"

	"dibella/internal/pipeline"
)

// testOptions keeps harness tests fast: tiny genome, two node counts.
func testOptions() *Options {
	return &Options{
		Scale:             0.008,
		Seed:              3,
		NodeCounts:        []int{1, 8},
		SimRanksPerNode:   2,
		MaxSimRanks:       32,
		InjectCoriAnomaly: true,
	}
}

// fullSweep is the sweep the consistency, shape and anomaly tests share:
// testOptions at one and sixteen nodes. Options caches its sweep, so the
// package executes it once.
var fullSweep = func() *Options {
	o := testOptions()
	o.NodeCounts = []int{1, 16}
	return o
}()

func TestSweepConsistency(t *testing.T) {
	o := fullSweep
	if testing.Short() {
		o = testOptions()
		// The invariants here (positive work counts, exchange < total,
		// platform-independent work) hold at any scale; shrink the sweep
		// so short runs stay fast.
		o.Scale = 0.002
		o.NodeCounts = []int{1, 4}
	}
	ms, err := o.Sweep30x()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4*len(o.NodeCounts) {
		t.Fatalf("sweep produced %d runs", len(ms))
	}
	// Work counts are platform-independent (same algorithm, same ranks):
	// only times differ.
	byNodes := make(map[int]RunMetrics)
	for _, m := range ms {
		if m.BagKmers <= 0 || m.Retained <= 0 || m.Alignments <= 0 {
			t.Fatalf("degenerate run: %+v", m)
		}
		if m.Total() <= 0 || m.TotalExchange() <= 0 {
			t.Fatalf("degenerate times: %+v", m)
		}
		if m.TotalExchange() >= m.Total() {
			t.Fatalf("exchange exceeds total: %+v", m)
		}
		if ref, ok := byNodes[m.Nodes]; ok {
			if ref.BagKmers != m.BagKmers || ref.Retained != m.Retained ||
				ref.Alignments != m.Alignments {
				t.Fatalf("work counts differ across platforms at %d nodes", m.Nodes)
			}
		} else {
			byNodes[m.Nodes] = m
		}
	}
	// Sweep is cached.
	again, err := o.Sweep30x()
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &ms[0] {
		t.Error("sweep not cached")
	}
}

func TestSweepShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-architecture shape claims need a realistic sweep; skipped in short mode")
	}
	// The headline cross-architecture claims the reproduction must hold.
	ms, err := fullSweep.Sweep30x()
	if err != nil {
		t.Fatal(err)
	}
	at := func(plat string, nodes int) RunMetrics {
		for _, m := range ms {
			if strings.HasPrefix(m.Platform, plat) && m.Nodes == nodes {
				return m
			}
		}
		t.Fatalf("missing run %s@%d", plat, nodes)
		return RunMetrics{}
	}
	// Single node: Cori fastest overall; AWS comparable to Titan.
	if !(at("Cori", 1).Total() < at("Edison", 1).Total() &&
		at("Edison", 1).Total() < at("Titan", 1).Total()) {
		t.Error("single-node platform ranking violated")
	}
	ratio := at("AWS", 1).Total() / at("Titan", 1).Total()
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("AWS/Titan single-node ratio %.2f", ratio)
	}
	// At scale: Titan beats AWS (the paper's crossover); AWS has the worst
	// exchange time.
	if at("Titan", 16).Total() >= at("AWS", 16).Total() {
		t.Error("Titan should overtake AWS at 16 nodes")
	}
	for _, p := range []string{"Cori", "Edison", "Titan"} {
		if at("AWS", 16).TotalExchange() <= at(p, 16).TotalExchange() {
			t.Errorf("AWS exchange should be worst (vs %s)", p)
		}
	}
	// Hash-table stage beats the Bloom stage's rate (Figs. 3 vs 5): same
	// k-mer volume, less time (first-call penalty + cheaper inserts).
	for _, plat := range []string{"Cori", "Edison", "Titan", "AWS"} {
		m := at(plat, 1)
		if m.Stage[pipeline.StageHash].Total >= m.Stage[pipeline.StageBloom].Total {
			t.Errorf("%s: hash stage not faster than bloom stage", plat)
		}
	}
}

func TestCoriAnomalyInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("anomaly sweep comparison in short mode")
	}
	msOn, err := fullSweep.Sweep30x()
	if err != nil {
		t.Fatal(err)
	}
	off := testOptions()
	off.NodeCounts = []int{16}
	off.InjectCoriAnomaly = false
	msOff, err := off.Sweep30x()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msOff {
		var on RunMetrics
		for _, o := range msOn {
			if o.Platform == m.Platform && o.Nodes == m.Nodes {
				on = o
			}
		}
		if !strings.HasPrefix(m.Platform, "Cori") {
			// Other platforms unaffected.
			if on.Total() != m.Total() {
				t.Errorf("anomaly leaked into %s", m.Platform)
			}
		} else if on.Stage[pipeline.StageOverlap].Total <= m.Stage[pipeline.StageOverlap].Total {
			t.Error("anomaly did not inflate Cori@16 overlap stage")
		}
	}
}

// Every experiment runs and prints tables with rows in them. This is the
// smoke test, so it runs them on a 2.3 kb genome at two node counts (a
// scaling table needs two rows) in about a second; TestSweepShapeClaims and
// TestSweepConsistency hold the figures' claims at testOptions' scale.
func TestAllExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment set in short mode")
	}
	o := testOptions()
	o.Scale, o.NodeCounts = 0.0005, []int{1, 2}
	for _, id := range ExperimentIDs() {
		out, err := RunExperiment(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 50 {
			t.Errorf("%s: suspiciously short output %q", id, out)
		}
		lines := strings.Split(out, "\n")
		tables := 0
		for i, line := range lines {
			if strings.HasPrefix(line, "---") {
				tables++
				if i+1 == len(lines) || strings.TrimSpace(lines[i+1]) == "" {
					t.Errorf("%s: a table with no rows\n%s", id, out)
				}
			}
		}
		if tables == 0 || strings.Contains(out, "NaN") {
			t.Errorf("%s: no table, or NaN in one\n%s", id, out)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("fig99", testOptions()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentIDsComplete(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != len(Experiments) {
		t.Errorf("ID list has %d entries, map has %d", len(ids), len(Experiments))
	}
	for _, id := range ids {
		if _, ok := Experiments[id]; !ok {
			t.Errorf("listed ID %q missing from map", id)
		}
	}
	// Every table and figure of the paper is covered: 2 tables + 11 figures.
	if len(ids) != 13 {
		t.Errorf("expected 13 experiments, have %d", len(ids))
	}
}

func TestFormatSeriesTableAlignment(t *testing.T) {
	out := formatSeriesTable("T", "y", nil)
	if !strings.HasPrefix(out, "T\ny\n") {
		t.Errorf("empty series table = %q", out)
	}
}
