package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The harness runs the program through its own binary in launcher mode;
// under `go test` that binary is the test binary.
func TestMain(m *testing.M) {
	launcherMode()
	os.Exit(m.Run())
}

// TestSmoke runs the whole harness — every workload, end to end and per
// layer — with one timed round on quarter-size inputs, and holds the
// emitted JSON against BENCHMARK.json: every declared workload, every
// declared metric, each with a unit and a finite value, no failed
// operation. A metric renamed on one side only fails here.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dibella and runs every workload and its ladder: about 30 s")
	}
	out := t.TempDir()
	var stdout bytes.Buffer
	o := options{seed: 1, rounds: 1, mode: modeBoth, scale: 0.25, out: out}
	if err := run(o, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	var s spec
	readJSON(t, filepath.Join("..", "BENCHMARK.json"), &s)
	var doc struct {
		Record    map[string]any `json:"record"`
		Workloads []struct {
			Name       string             `json:"name"`
			Inputs     []inputRecord      `json:"inputs"`
			Operations tally              `json:"operations"`
			EndToEnd   map[string]float64 `json:"end_to_end"`
			PerLayer   map[string]float64 `json:"per_layer"`
			Raw        map[string]summary `json:"raw"`
		} `json:"workloads"`
	}
	readJSON(t, filepath.Join(out, "latest.json"), &doc)

	for _, key := range []string{"seed", "go_version", "nproc", "git_head", "dibella_build_id"} {
		if doc.Record[key] == nil {
			t.Errorf("reproducibility record lacks %q", key)
		}
	}
	if len(doc.Workloads) != len(s.Workloads) {
		t.Fatalf("%d workloads emitted, %d declared", len(doc.Workloads), len(s.Workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != s.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json declares %q", i, w.Name, s.Workloads[i].Name)
		}
		if w.Operations.Attempted == 0 || w.Operations.Failed != 0 {
			t.Errorf("%s: operations %+v", w.Name, w.Operations)
		}
		if len(w.Inputs) == 0 || w.Inputs[0].MD5 == "" || w.Inputs[0].Reads == 0 {
			t.Errorf("%s: inputs not recorded: %+v", w.Name, w.Inputs)
		}
		if len(w.Raw["wall_s"].Samples) != 1 {
			t.Errorf("%s: raw per-round samples missing: %+v", w.Name, w.Raw["wall_s"])
		}
		for _, set := range []struct {
			specs  []metricSpec
			values map[string]float64
		}{{s.EndToEnd, w.EndToEnd}, {s.PerLayer, w.PerLayer}} {
			for _, m := range set.specs {
				v, ok := set.values[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: declared metric %s not emitted (value %v)", w.Name, m.Name, v)
				}
				if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
					t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
				}
			}
		}
		for _, m := range s.EndToEnd {
			if w.EndToEnd[m.Name] == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
}

// TestResultLine pins the driver's result line: exactly the four keys, and
// under metrics exactly the declared set with value and unit.
func TestResultLine(t *testing.T) {
	b := &bench{}
	b.mode = modeEndToEnd
	b.spec.EndToEnd = []metricSpec{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}, {Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}}
	r := &workloadResult{
		Tally:    tally{Attempted: 7},
		EndToEnd: map[string]float64{"wall_s": 1.25, "setup_s": 0.5, "extra": 9},
	}
	var buf bytes.Buffer
	if err := b.printResultLine(&buf, r); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || string(line["correct"]) != "true" || string(line["attempted"]) != "7" || string(line["failed"]) != "0" {
		t.Errorf("result line %s", buf.Bytes())
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 2 || metrics["wall_s"].Value != 1.25 || metrics["wall_s"].Unit != "s" || metrics["setup_s"].Value != 0.5 {
		t.Errorf("metrics %+v", metrics)
	}

	delete(r.EndToEnd, "setup_s")
	if err := b.printResultLine(io.Discard, r); err == nil {
		t.Error("a declared metric that was not measured must be an error, not an omission")
	}
}

func readJSON(t *testing.T, path string, into any) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
