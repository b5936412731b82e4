// Package figures regenerates every table and figure of the paper's
// evaluation (§5–§10): the cross-architecture per-stage rates (Figs. 3, 5,
// 6, 7), the AWS Bloom-stage efficiency split (Fig. 4), alignment load
// imbalance (Fig. 8), Cori runtime breakdowns (Figs. 9, 10), workload
// efficiency comparison (Fig. 11), cross-architecture efficiency (Fig. 12),
// overall performance (Fig. 13), the platform table (Table 1), and the
// single-node baseline comparison (Table 2).
//
// Mechanics: synthetic E. coli analogues (internal/seqgen) are pushed
// through the real pipeline on goroutine ranks; the machine models price
// the counted work per platform and node count. Absolute magnitudes track
// the paper only at full genome scale; at reduced scale the *shapes* —
// who wins, where crossovers fall, which stage dominates — are the
// reproduction targets TestSweepShapeClaims asserts.
package figures

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dibella/internal/fastq"
	"dibella/internal/machine"
	"dibella/internal/overlap"
	"dibella/internal/pipeline"
	"dibella/internal/seqgen"
	"dibella/internal/stats"
)

// Options configures the harness.
type Options struct {
	// Scale shrinks the E. coli genome (1.0 = full 4.64 Mbp). The default
	// 0.01 keeps a full figure sweep under a minute on a laptop.
	Scale float64
	Seed  int64
	// NodeCounts is the strong-scaling x-axis (default 1..32 by doubling).
	NodeCounts []int
	// SimRanksPerNode controls how many goroutine ranks execute each
	// modeled node (default 4, capped at MaxSimRanks total).
	SimRanksPerNode int
	MaxSimRanks     int
	// InjectCoriAnomaly reproduces the paper's observed 16-node network
	// interference spike on Cori (Figs. 6/13) by scaling the overlap- and
	// alignment-stage exchange times of that one configuration.
	InjectCoriAnomaly bool
	// Progress, when non-nil, receives one line per pipeline execution.
	Progress io.Writer

	ds30x     *seqgen.Dataset
	reads100x []*fastq.Record
	sweep30x  []RunMetrics
}

// DefaultOptions returns the quick-run configuration.
func DefaultOptions() *Options {
	return &Options{
		Scale:             0.05,
		Seed:              1,
		NodeCounts:        []int{1, 2, 4, 8, 16, 32},
		SimRanksPerNode:   4,
		MaxSimRanks:       128,
		InjectCoriAnomaly: true,
	}
}

func (o *Options) setDefaults() {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 0.05
	}
	if len(o.NodeCounts) == 0 {
		o.NodeCounts = []int{1, 2, 4, 8, 16, 32}
	}
	if o.SimRanksPerNode <= 0 {
		o.SimRanksPerNode = 4
	}
	if o.MaxSimRanks <= 0 {
		o.MaxSimRanks = 128
	}
}

func (o *Options) logf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// Dataset30x lazily generates the E. coli 30x analogue, retaining the
// read origins so evalx can score predictions against ground truth.
func (o *Options) Dataset30x() (*seqgen.Dataset, error) {
	if o.ds30x == nil {
		ds, err := seqgen.Generate(seqgen.EColi30x(o.Scale, o.Seed))
		if err != nil {
			return nil, err
		}
		o.ds30x = ds
		o.logf("generated 30x analogue: %s", ds.Stats())
	}
	return o.ds30x, nil
}

// Reads30x returns the E. coli 30x analogue's reads.
func (o *Options) Reads30x() ([]*fastq.Record, error) {
	ds, err := o.Dataset30x()
	if err != nil {
		return nil, err
	}
	return ds.Reads, nil
}

// Reads100x lazily generates the E. coli 100x analogue.
func (o *Options) Reads100x() ([]*fastq.Record, error) {
	if o.reads100x == nil {
		ds, err := seqgen.Generate(seqgen.EColi100x(o.Scale, o.Seed+1))
		if err != nil {
			return nil, err
		}
		o.reads100x = ds.Reads
		o.logf("generated 100x analogue: %s", ds.Stats())
	}
	return o.reads100x, nil
}

// simRanks returns the goroutine count for a node count.
func (o *Options) simRanks(nodes int) int {
	r := nodes * o.SimRanksPerNode
	if r > o.MaxSimRanks {
		r = o.MaxSimRanks
	}
	return r
}

// StageTimes is one stage's modeled cost in a run.
type StageTimes struct {
	Total    float64
	Exchange float64
}

// RunMetrics is the distilled result of one (platform, nodes) pipeline
// execution — everything the figures consume.
type RunMetrics struct {
	Platform   string
	Nodes      int
	Stage      map[pipeline.StageName]StageTimes
	BagKmers   int64 // k-mer instances parsed per pass
	Retained   int64
	Pairs      int64
	Alignments int64
	// Per-bucket Bloom-stage times for Fig. 4.
	BloomPack, BloomLocal, BloomExchange float64
	AlignImbalance                       float64
	TaskImbalance                        float64
}

// Total returns the run's full modeled pipeline time.
func (m RunMetrics) Total() float64 {
	t := 0.0
	for _, s := range pipeline.Stages {
		t += m.Stage[s].Total
	}
	return t
}

// TotalExchange returns the run's modeled exchange time across stages.
func (m RunMetrics) TotalExchange() float64 {
	t := 0.0
	for _, s := range pipeline.Stages {
		t += m.Stage[s].Exchange
	}
	return t
}

// oneSeedConfig is the paper's standard minimum-intensity workload; m is
// derived from coverage via BELLA's theory (MaxFreq 0).
func oneSeedConfig() pipeline.Config {
	return pipeline.Config{
		K: 17, SeedMode: overlap.OneSeed,
		ErrorRate: 0.15, Coverage: 30, XDrop: 7,
	}
}

// extract converts a pipeline report into RunMetrics, optionally applying
// the Cori 16-node interference anomaly.
func (o *Options) extract(platform string, nodes int, rep *pipeline.Report) RunMetrics {
	m := RunMetrics{
		Platform: platform, Nodes: nodes,
		Stage:      make(map[pipeline.StageName]StageTimes, len(pipeline.Stages)),
		Retained:   rep.RetainedKmers,
		Pairs:      rep.Pairs,
		Alignments: rep.Alignments,
	}
	for _, rr := range rep.PerRank {
		m.BagKmers += rr.Bloom.KmersParsed
	}
	for _, s := range pipeline.Stages {
		m.Stage[s] = StageTimes{
			Total:    rep.StageVirtual(s),
			Exchange: rep.StageExchangeVirtual(s),
		}
	}
	// Fig. 4 buckets: max over ranks per bucket.
	var pack, local, exch []float64
	for _, rr := range rep.PerRank {
		pack = append(pack, rr.Bloom.PackVirtual)
		local = append(local, rr.Bloom.LocalVirtual)
		exch = append(exch, rr.Bloom.ExchangeVirtual)
	}
	m.BloomPack, m.BloomLocal, m.BloomExchange = stats.Max(pack), stats.Max(local), stats.Max(exch)
	m.AlignImbalance = rep.AlignImbalance()
	m.TaskImbalance = rep.TaskImbalance()

	if o.InjectCoriAnomaly && strings.HasPrefix(platform, "Cori") && nodes == 16 {
		// The paper attributes a one-off Overlap/Alignment exchange spike
		// at 16 nodes to network interference; reproduce it so the Fig. 6
		// dip and Fig. 13 anomaly appear.
		for _, s := range []pipeline.StageName{pipeline.StageOverlap, pipeline.StageAlign} {
			st := m.Stage[s]
			extra := st.Exchange * 3
			st.Exchange += extra
			st.Total += extra
			m.Stage[s] = st
		}
	}
	return m
}

// Sweep30x runs (and caches) the cross-architecture strong-scaling sweep
// on the E. coli 30x one-seed workload — the shared substrate of Figs. 3,
// 5, 6, 7, 8, 12, and 13.
func (o *Options) Sweep30x() ([]RunMetrics, error) {
	o.setDefaults()
	if o.sweep30x != nil {
		return o.sweep30x, nil
	}
	reads, err := o.Reads30x()
	if err != nil {
		return nil, err
	}
	cfg := oneSeedConfig()
	var out []RunMetrics
	for _, plat := range machine.Platforms {
		for _, nodes := range o.NodeCounts {
			p := o.simRanks(nodes)
			mdl, err := machine.NewModelScaled(plat, nodes, p)
			if err != nil {
				return nil, err
			}
			rep, err := pipeline.Execute(p, mdl, reads, cfg)
			if err != nil {
				return nil, fmt.Errorf("figures: %s @%d nodes: %w", plat.Name, nodes, err)
			}
			o.logf("sweep %s nodes=%d: %s", plat.Name, nodes, rep.Summary())
			out = append(out, o.extract(plat.Name, nodes, rep))
		}
	}
	o.sweep30x = out
	return out, nil
}

// seriesBy builds one series per platform from sweep metrics.
func seriesBy(ms []RunMetrics, f func(RunMetrics) float64) []stats.Series {
	byPlat := make(map[string]*stats.Series)
	var order []string
	for _, m := range ms {
		s, ok := byPlat[m.Platform]
		if !ok {
			s = &stats.Series{Name: m.Platform}
			byPlat[m.Platform] = s
			order = append(order, m.Platform)
		}
		s.X = append(s.X, float64(m.Nodes))
		s.Y = append(s.Y, f(m))
	}
	out := make([]stats.Series, 0, len(order))
	for _, name := range order {
		out = append(out, *byPlat[name])
	}
	return out
}

// formatSeriesTable renders per-platform series as a nodes-by-platform
// table (the shape of the paper's plots).
func formatSeriesTable(title, yLabel string, series []stats.Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", title, yLabel)
	if len(series) == 0 {
		return b.String()
	}
	headers := []string{"nodes"}
	for _, s := range series {
		headers = append(headers, s.Name)
	}
	// Collect the union of x values (sorted).
	xsSet := make(map[float64]bool)
	for _, s := range series {
		for _, x := range s.X {
			xsSet[x] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	var rows [][]string
	for _, x := range xs {
		row := []string{fmt.Sprintf("%g", x)}
		for _, s := range series {
			cell := "-"
			for i := range s.X {
				if s.X[i] == x {
					cell = fmt.Sprintf("%.4g", s.Y[i])
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	b.WriteString(stats.FormatTable(headers, rows))
	return b.String()
}
