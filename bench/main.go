// Command bench is diBELLA's wall-clock benchmark: it drives the built
// dibella binary on generated FASTQ files for the end-to-end numbers and
// calls each layer's public functions on the same data for the per-layer
// numbers. See README.md in this directory.
//
//	go run . -seed 1                      # every workload, end to end and per layer
//	go run . -workload longread_align     # one workload
//	go run . -trace 1                     # only the per-layer ladder and traced replay
//	go run . -selfcheck                   # two end-to-end sets, compared against the bounds
//
// The driver's form, one workload and one metric set per invocation:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"crypto/md5"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dibella/internal/fastq"
	"dibella/internal/seqgen"
)

// metricSpec and spec mirror BENCHMARK.json, the one place metric names,
// units, directions and bounds are declared.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// Which metric sets a run produces (-trace).
const (
	modeBoth     = -1
	modeEndToEnd = 0
	modePerLayer = 1
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	rounds    int
	mode      int
	selfcheck bool

	// Not flags: only the smoke test sets these.
	scale float64 // shrinks every workload's genome and query count; 0 means 1
	out   string  // directory for latest.json and the span files; "" means bench/out in the checkout
}

// bench is one invocation's fixed context.
type bench struct {
	options
	spec   spec
	root   string // the checkout: where BENCHMARK.json is
	work   string // scratch for inputs and outputs, removed on exit
	bin    string // the built dibella
	self   string // this binary, for launcher mode
	buildS float64
	log    io.Writer
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, format+"\n", args...)
}

func main() {
	launcherMode()
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all, round-robin)")
	flag.Int64Var(&o.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&o.seconds, "seconds", 0, "seconds of timed end-to-end rounds per workload (default: BENCHMARK.json run_seconds)")
	flag.IntVar(&o.rounds, "rounds", 0, "run exactly this many timed rounds instead of -seconds")
	flag.IntVar(&o.mode, "trace", modeBoth, "0: end-to-end metrics only; 1: per-layer ladder and traced replay only (default: both)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two end-to-end sets back to back and fail if any metric disagrees beyond its bound")
	flag.Parse()
	if flag.NArg() > 0 || o.mode < modeBoth || o.mode > modePerLayer || o.rounds < 0 || o.seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run is the whole benchmark; the driver's result line, when one workload
// is selected, is the last thing written to stdout.
func run(o options, stdout, stderr io.Writer) error {
	b := &bench{options: o, log: stderr}
	if err := b.init(); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)
	var ws []*workload
	for i := range workloads {
		if o.workload == "" || o.workload == workloads[i].name {
			ws = append(ws, &workloads[i])
		}
	}
	if len(ws) == 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.selfcheck {
		return b.selfcheck(ws, stdout)
	}
	results, err := b.measure(ws, o.mode)
	if err != nil {
		return err
	}
	b.printSheet(stdout, results)
	if err := b.writeJSON(results); err != nil {
		return err
	}
	for _, r := range results {
		if r.Tally.Failed > 0 {
			b.logf("%s: %d of %d operations failed: %s", r.Name, r.Tally.Failed, r.Tally.Attempted, r.Tally.FirstErr)
		}
	}
	if len(results) == 1 && o.mode != modeBoth {
		return b.printResultLine(stdout, results[0])
	}
	return nil
}

// init locates the checkout, reads BENCHMARK.json and builds dibella.
func (b *bench) init() error {
	dir, err := os.Getwd()
	if err != nil {
		return err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			break
		}
		if filepath.Dir(dir) == dir {
			return errors.New("no BENCHMARK.json in this directory or any above it")
		}
		dir = filepath.Dir(dir)
	}
	b.root = dir
	if b.self, err = os.Executable(); err != nil {
		return err
	}
	blob, err := os.ReadFile(filepath.Join(b.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, &b.spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(b.spec.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json declares %d workloads, the harness has %d", len(b.spec.Workloads), len(workloads))
	}
	for _, w := range b.spec.Workloads {
		if workloadByName(w.Name) == nil {
			return fmt.Errorf("BENCHMARK.json declares workload %q, which the harness does not have", w.Name)
		}
	}
	if b.seconds == 0 {
		b.seconds = float64(b.spec.RunSeconds)
	}
	if b.out == "" {
		b.out = filepath.Join(b.root, "bench", "out")
	}
	if b.scale == 0 {
		b.scale = 1
	}
	build := filepath.Join(b.root, ".bench_build")
	if b.work, err = os.MkdirTemp(mkdirAll(build), "work-"); err != nil {
		return err
	}
	b.bin = filepath.Join(build, "dibella")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", b.bin, "./cmd/dibella")
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(b.work)
		return fmt.Errorf("go build ./cmd/dibella: %w: %s", err, out)
	}
	b.buildS = time.Since(t0).Seconds()
	return nil
}

func mkdirAll(dir string) string {
	os.MkdirAll(dir, 0o755) // a failure surfaces at the first write into dir
	return dir
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name      string             `json:"name"`
	Generator seqgen.Config      `json:"generator"`
	Inputs    []inputRecord      `json:"inputs"`
	Rounds    int                `json:"rounds"`
	Tally     tally              `json:"operations"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	Raw       map[string]summary `json:"raw,omitempty"` // the per-round samples behind the end-to-end values
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	SelfTime  map[string]float64 `json:"span_self_seconds,omitempty"`
}

// measure sets every workload up, then produces the metric sets mode asks
// for: the end-to-end rounds (all workloads round-robin), then the ladder.
func (b *bench) measure(ws []*workload, mode int) ([]*workloadResult, error) {
	runners := make([]*runner, len(ws))
	defer func() {
		for _, r := range runners {
			if r != nil {
				r.close()
			}
		}
	}()
	for i, w := range ws {
		r := &runner{b: b, w: w, dir: mkdirAll(filepath.Join(b.work, w.name))}
		runners[i] = r
		b.logf("%s: set-up", w.name)
		if err := r.prepare(mode != modePerLayer); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}
	results := make([]*workloadResult, len(ws))
	for i, r := range runners {
		results[i] = &workloadResult{Name: r.w.name, Generator: r.in.ds.Config, Inputs: r.in.inputs}
	}
	if mode != modePerLayer {
		b.logf("end-to-end rounds")
		if err := b.measureRounds(runners); err != nil {
			return nil, err
		}
		for i, r := range runners {
			if err := r.close(); err != nil {
				return nil, fmt.Errorf("%s: stopping the daemon: %w", r.w.name, err)
			}
			var err error
			if results[i].EndToEnd, results[i].Raw, err = r.endToEnd(); err != nil {
				return nil, err
			}
			results[i].Rounds, results[i].Tally = len(r.wall), r.tally
		}
	}
	if mode != modeEndToEnd {
		b.logf("per-layer ladder, data-independent rungs")
		shared, err := b.sharedLayers()
		if err != nil {
			return nil, err
		}
		for i, r := range runners {
			b.logf("%s: per-layer ladder", r.w.name)
			m, tr, t, err := b.perLayer(r.in)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.w.name, err)
			}
			for name, v := range shared {
				m[name] = v
			}
			results[i].PerLayer, results[i].SelfTime = m, tr.selfSeconds()
			results[i].Tally.Attempted += t.Attempted
			results[i].Tally.Failed += t.Failed
			path := filepath.Join(mkdirAll(b.out), "trace-"+r.w.name+".json")
			if err := tr.writeChrome(path); err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}

// declared returns the measured value of each metric BENCHMARK.json
// declares, in its order; a declared metric nobody measured is an error,
// so names cannot rot.
func declared(specs []metricSpec, values map[string]float64) ([]float64, error) {
	out := make([]float64, len(specs))
	for i, s := range specs {
		v, ok := values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured (got %v)", s.Name, v)
		}
		out[i] = v
	}
	return out, nil
}

// printResultLine writes the driver's one-object result line.
func (b *bench) printResultLine(w io.Writer, r *workloadResult) error {
	specs, values := b.spec.EndToEnd, r.EndToEnd
	if b.mode == modePerLayer {
		specs, values = b.spec.PerLayer, r.PerLayer
	}
	vals, err := declared(specs, values)
	if err != nil {
		return err
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(specs))
	for i, s := range specs {
		metrics[s.Name] = mv{vals[i], s.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Tally.Failed == 0, "attempted": r.Tally.Attempted, "failed": r.Tally.Failed,
		"metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printSheet prints every metric by name with its unit.
func (b *bench) printSheet(w io.Writer, results []*workloadResult) {
	units := make(map[string]string)
	for _, s := range append(append([]metricSpec(nil), b.spec.EndToEnd...), b.spec.PerLayer...) {
		units[s.Name] = s.Unit
	}
	for k, u := range map[string]string{"query_ms_p50": "ms", "query_ms_p90": "ms", "queries_per_s": "1/s", "speedup_p2_over_p1": "x"} {
		units[k] = u
	}
	for _, r := range results {
		fmt.Fprintf(w, "== %s  seed %d  timed rounds %d  operations %d  failed %d  failed_fraction %g\n",
			r.Name, b.seed, r.Rounds, r.Tally.Attempted, r.Tally.Failed,
			float64(r.Tally.Failed)/math.Max(1, float64(r.Tally.Attempted)))
		for _, set := range []map[string]float64{r.EndToEnd, r.PerLayer} {
			names := make([]string, 0, len(set))
			for name := range set {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(w, "  %-36s %14.6g %-6s", name, set[name], units[name])
				if raw, ok := r.Raw[name]; ok {
					fmt.Fprintf(w, "  as measured: min %.4g p10 %.4g p25 %.4g median %.4g p75 %.4g max %.4g n %d", raw.Min, raw.P10, raw.P25, raw.Median, raw.P75, raw.Max, raw.N)
				}
				fmt.Fprintln(w)
			}
		}
		if st, ok := r.Raw["stolen_s"]; ok {
			quiet, stolen, wall := 0, 0.0, 0.0
			for i, s := range st.Samples {
				if s <= quietShare*r.Raw["wall_s"].Samples[i] {
					quiet++
				}
				stolen += s
				wall += r.Raw["wall_s"].Samples[i]
			}
			fmt.Fprintf(w, "  host: %d of %d rounds quiet; the hypervisor took %.1f%% of the vCPU time of the timed rounds\n",
				quiet, st.N, 100*stolen/(wall*float64(runtime.NumCPU())))
		}
	}
}

// inputRecord identifies one generated input file.
type inputRecord struct {
	File  string `json:"file"`
	Reads int    `json:"reads"`
	Bases int    `json:"bases"`
	Bytes int    `json:"bytes"`
	MD5   string `json:"md5"`
}

func describeInput(path string, reads []*fastq.Record) (inputRecord, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return inputRecord{}, err
	}
	rec := inputRecord{File: filepath.Base(path), Reads: len(reads), Bytes: len(blob), MD5: fmt.Sprintf("%x", md5.Sum(blob))}
	for _, r := range reads {
		rec.Bases += len(r.Seq)
	}
	return rec, nil
}

// writeJSON writes latest.json: the results and what is needed
// to reproduce them.
func (b *bench) writeJSON(results []*workloadResult) error {
	tool := func(dir string, args ...string) string {
		cmd := exec.Command(args[0], args[1:]...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			return "unknown" // e.g. a checkout that is not a git repository
		}
		return strings.TrimSpace(string(out))
	}
	doc := map[string]any{
		"record": map[string]any{
			"seed": b.seed, "scale": b.scale, "seconds_per_workload": b.seconds, "rounds_flag": b.rounds,
			"setups": setupReps, "mode": b.mode, "ranks": ranks, "k": kmerLen, "m": maxFreq,
			"go_version": runtime.Version(), "nproc": runtime.NumCPU(),
			"git_head":         tool(b.root, "git", "rev-parse", "HEAD"),
			"dibella_build_id": tool(b.root, "go", "tool", "buildid", b.bin),
			"dibella_build_s":  b.buildS,
			"time":             time.Now().UTC().Format(time.RFC3339),
		},
		"workloads": results,
	}
	blob, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(mkdirAll(b.out), "latest.json"), blob, 0o644)
}

// selfcheck measures the end-to-end set twice with the same code and
// inputs and holds the two against each metric's bound, in either
// direction: a benchmark that cannot agree with itself cannot judge a
// change.
func (b *bench) selfcheck(ws []*workload, w io.Writer) error {
	var sets [2][]*workloadResult
	for i := range sets {
		b.logf("self-check set %d", i+1)
		var err error
		if sets[i], err = b.measure(ws, modeEndToEnd); err != nil {
			return err
		}
	}
	bad := 0
	for wi, first := range sets[0] {
		second := sets[1][wi]
		specs := b.spec.EndToEnd
		a, err := declared(specs, first.EndToEnd)
		if err != nil {
			return err
		}
		c, err := declared(specs, second.EndToEnd)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== %s\n", first.Name)
		for i, s := range specs {
			diff := math.Abs(worseBy(a[i], c[i], s.Better == "higher"))
			verdict := "ok"
			if diff > s.Bound || first.Tally.Failed+second.Tally.Failed > 0 {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(w, "  %-14s %12.6g %12.6g %-5s differ %5.1f%%  bound %4.1f%%  %s",
				s.Name, a[i], c[i], s.Unit, diff*100, s.Bound*100, verdict)
			if s.Name == "wall_s" || s.Name == "cpu_s" {
				// What the plain lower decile over every round would have said,
				// stolen time left in: the case for undisturbed and settled.
				ra, rc := first.Raw[s.Name].P10, second.Raw[s.Name].P10
				fmt.Fprintf(w, "   (p10 as measured %.6g %.6g differ %.1f%%)", ra, rc, math.Abs(worseBy(ra, rc, false))*100)
			}
			fmt.Fprintln(w)
		}
	}
	if bad > 0 {
		return fmt.Errorf("self-check: %d metric(s) disagree beyond their bound", bad)
	}
	return nil
}
