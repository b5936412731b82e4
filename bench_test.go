package dibella

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, each regenerating the corresponding result via
// the figure harness at a reduced genome scale, plus host-throughput and
// ablation benchmarks. `go test -bench=.` therefore reproduces the whole
// evaluation; `cmd/dibella-bench` prints the same results as tables with
// adjustable scale.

import (
	"testing"

	"dibella/internal/daligner"
	"dibella/internal/figures"
	"dibella/internal/overlap"
	"dibella/internal/pipeline"
	"dibella/internal/seqgen"
)

// benchOptions returns harness options sized for benchmarking: small
// enough to iterate, large enough to exercise every code path.
func benchOptions() *figures.Options {
	o := figures.DefaultOptions()
	o.Scale = 0.01
	o.NodeCounts = []int{1, 4, 16}
	o.SimRanksPerNode = 2
	o.MaxSimRanks = 32
	return o
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		// Fresh options each iteration: the sweep cache must not hide the
		// work being measured.
		if _, err := figures.RunExperiment(id, benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Platforms(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkTable2SingleNode(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkFig3BloomStage(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig4BloomEfficiency(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5HashTable(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFig6Overlap(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkFig7Alignment(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8Imbalance(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig9Breakdown30x(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig10Breakdown100x(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11Workloads(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFig12Efficiency(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFig13Overall(b *testing.B)        { benchExperiment(b, "fig13") }

// benchReads caches one generated data set across host benchmarks.
var benchReads []*Record

func getBenchReads(b *testing.B) []*Record {
	b.Helper()
	if benchReads == nil {
		reads, err := GenerateEColi30x(0.01, 7)
		if err != nil {
			b.Fatal(err)
		}
		benchReads = reads
	}
	return benchReads
}

// BenchmarkPipelineHost measures real host throughput of the full pipeline
// (no platform model), reporting alignments per second.
func BenchmarkPipelineHost(b *testing.B) {
	reads := getBenchReads(b)
	b.ResetTimer()
	var aligns int64
	for i := 0; i < b.N; i++ {
		rep, err := Run(8, reads, Config{K: 17, MaxFreq: 10, SeedMode: OneSeed})
		if err != nil {
			b.Fatal(err)
		}
		aligns = rep.Alignments
	}
	b.ReportMetric(float64(aligns)/b.Elapsed().Seconds()*float64(b.N), "alignments/s")
}

// BenchmarkBaselineHost measures the DALIGNER-style baseline on the same
// input (Table 2's comparison on the host).
func BenchmarkBaselineHost(b *testing.B) {
	reads := getBenchReads(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := daligner.Run(reads, daligner.Config{
			K: 17, MaxFreq: 10, SeedMode: overlap.OneSeed,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks for the round size and the seed policy ---

// BenchmarkAblationRounds* explores the memory/communication trade of the
// streaming round size (§4's two-pass memory-limited design).
func BenchmarkAblationRoundsLarge(b *testing.B) { benchAblationRounds(b, 1<<20) }
func BenchmarkAblationRoundsSmall(b *testing.B) { benchAblationRounds(b, 1<<14) }

func benchAblationRounds(b *testing.B, batch int) {
	b.Helper()
	reads := getBenchReads(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(8, reads, Config{
			K: 17, MaxFreq: 10, SeedMode: OneSeed, MaxKmersPerRound: batch,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSeedMode* quantifies the computational-intensity knob
// of §5 (one-seed vs d=1K vs d=k).
func BenchmarkAblationSeedModeOne(b *testing.B) { benchAblationSeeds(b, OneSeed, 0) }
func BenchmarkAblationSeedModeD1K(b *testing.B) { benchAblationSeeds(b, MinDistance, 1000) }
func BenchmarkAblationSeedModeDK(b *testing.B)  { benchAblationSeeds(b, AllSeeds, 0) }

func benchAblationSeeds(b *testing.B, mode SeedMode, dist int) {
	b.Helper()
	reads := getBenchReads(b)
	b.ResetTimer()
	var aligns int64
	for i := 0; i < b.N; i++ {
		rep, err := Run(8, reads, Config{
			K: 17, MaxFreq: 10, SeedMode: mode, MinDist: dist,
		})
		if err != nil {
			b.Fatal(err)
		}
		aligns = rep.Alignments
	}
	b.ReportMetric(float64(aligns), "alignments")
}

// BenchmarkAblationKmerLength shows the k trade-off BELLA's theory
// navigates: shorter k inflates candidate pairs.
func BenchmarkAblationK15(b *testing.B) { benchAblationK(b, 15) }
func BenchmarkAblationK17(b *testing.B) { benchAblationK(b, 17) }
func BenchmarkAblationK21(b *testing.B) { benchAblationK(b, 21) }

func benchAblationK(b *testing.B, k int) {
	b.Helper()
	reads := getBenchReads(b)
	b.ResetTimer()
	var pairs int64
	for i := 0; i < b.N; i++ {
		rep, err := Run(8, reads, Config{K: k, MaxFreq: 10, SeedMode: OneSeed})
		if err != nil {
			b.Fatal(err)
		}
		pairs = rep.Pairs
	}
	b.ReportMetric(float64(pairs), "pairs")
}

// BenchmarkAblationMinimizers* quantifies the Minimap2-style minimizer
// compaction (extension): exchanged k-mer volume vs discovered pairs.
func BenchmarkAblationMinimizersOff(b *testing.B) { benchMinimizers(b, 0) }
func BenchmarkAblationMinimizersW5(b *testing.B)  { benchMinimizers(b, 5) }
func BenchmarkAblationMinimizersW10(b *testing.B) { benchMinimizers(b, 10) }

func benchMinimizers(b *testing.B, w int) {
	b.Helper()
	reads := getBenchReads(b)
	b.ResetTimer()
	var pairs int64
	for i := 0; i < b.N; i++ {
		rep, err := Run(8, reads, Config{
			K: 17, MaxFreq: 10, SeedMode: OneSeed, MinimizerWindow: w,
		})
		if err != nil {
			b.Fatal(err)
		}
		pairs = rep.Pairs
	}
	b.ReportMetric(float64(pairs), "pairs")
}

// BenchmarkDalignerBlockMode measures the paper's point about DALIGNER's
// blocked distribution: repeated sorting of block pairs.
func BenchmarkDalignerBlocks1(b *testing.B) { benchBlocks(b, 1) }
func BenchmarkDalignerBlocks4(b *testing.B) { benchBlocks(b, 4) }

func benchBlocks(b *testing.B, blocks int) {
	b.Helper()
	ds, err := seqgen.Generate(seqgen.Config{
		GenomeLen: 20000, Seed: 5, Coverage: 10, MeanReadLen: 1500,
		MinReadLen: 400, ErrorRate: 0.12, BothStrands: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := daligner.Run(ds.Reads, daligner.Config{
			K: 17, MaxFreq: 10, Blocks: blocks, SeedMode: overlap.OneSeed,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Silence the unused-import guard for pipeline (used via type aliases).
var _ = pipeline.Stages
