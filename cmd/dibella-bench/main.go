// Command dibella-bench regenerates the paper's evaluation: every table
// and figure (Tables 1-2, Figures 3-13) as text tables.
//
// Usage:
//
//	dibella-bench -experiment all                 # everything, quick scale
//	dibella-bench -experiment fig3 -scale 0.2     # one figure, bigger input
//	dibella-bench -list
//
// Scale 1.0 corresponds to the paper's full E. coli data sets; the default
// reduced scale reproduces curve shapes in minutes. With -bench-out it
// writes the modeled perf snapshot instead (docs/BENCH.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dibella/internal/figures"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment ID or 'all'")
		scale      = flag.Float64("scale", 0.05, "genome scale factor in (0,1]")
		seed       = flag.Int64("seed", 1, "data-set generation seed")
		nodesFlag  = flag.String("nodes", "1,2,4,8,16,32", "comma-separated node counts")
		simRPN     = flag.Int("sim-ranks-per-node", 4, "goroutine ranks per modeled node")
		maxSim     = flag.Int("max-sim-ranks", 128, "cap on total goroutine ranks")
		anomaly    = flag.Bool("cori-anomaly", true, "inject the paper's Cori 16-node interference spike")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		benchOut   = flag.String("bench-out", "", "run the sync-vs-async exchange benchmark and write its JSON snapshot to this path (skips -experiment)")
	)
	flag.Parse()

	if *list {
		for _, id := range figures.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}

	nodeCounts, err := parseNodes(*nodesFlag)
	if err != nil {
		fatal(err)
	}
	o := figures.DefaultOptions()
	o.Scale = *scale
	o.Seed = *seed
	o.NodeCounts = nodeCounts
	o.SimRanksPerNode = *simRPN
	o.MaxSimRanks = *maxSim
	o.InjectCoriAnomaly = *anomaly
	if !*quiet {
		o.Progress = os.Stderr
	}

	if *benchOut != "" {
		res, err := figures.ExchangeBench(o)
		if err != nil {
			fatal(err)
		}
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(*benchOut, blob, 0o644); err != nil {
			fatal(err)
		}
		os.Stdout.Write(blob)
		return
	}

	ids := figures.ExperimentIDs()
	if *experiment != "all" {
		ids = strings.Split(*experiment, ",")
	}
	for _, id := range ids {
		out, err := figures.RunExperiment(strings.TrimSpace(id), o)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
}

func parseNodes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad node count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dibella-bench:", err)
	os.Exit(1)
}
