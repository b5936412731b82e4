package machine_test

import (
	"fmt"
	"log"

	"dibella/internal/machine"
	"dibella/internal/overlap"
	"dibella/internal/pipeline"
	"dibella/internal/seqgen"
)

// One pipeline execution priced under each of the paper's four machine
// models at the same node count: a single point of the paper's Fig. 13.
// NewModelScaled prices a job of nodes × CoresPerNode MPI ranks while
// simRanks goroutine ranks do the work, so the modeled seconds are those
// of the full-size job. The last column is the Bloom stage's k-mer rate.
func ExampleNewModelScaled() {
	ds, err := seqgen.Generate(seqgen.EColi30x(0.002, 11))
	if err != nil {
		log.Fatal(err)
	}
	cfg := pipeline.Config{K: 17, MaxFreq: 10, SeedMode: overlap.OneSeed}
	const nodes, simRanks = 8, 4
	// The exchange column counts hidden time too: the streamed schedule
	// runs most of it under computation.
	fmt.Printf("%-13s  %9s  %10s  %6s  %9s  %10s\n",
		"platform", "modeled s", "exchange s", "hidden", "M align/s", "M k-mer/s")
	for _, plat := range []machine.Platform{machine.Cori, machine.Edison, machine.Titan, machine.AWS} {
		mdl, err := machine.NewModelScaled(plat, nodes, simRanks)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := pipeline.Execute(simRanks, mdl, ds.Reads, cfg)
		if err != nil {
			log.Fatal(err)
		}
		var kmers int64
		for _, rr := range rep.PerRank {
			kmers += rr.Bloom.KmersParsed
		}
		total := rep.TotalVirtual()
		fmt.Printf("%-13s  %9.5f  %10.5f  %5.0f%%  %9.3f  %10.1f\n", plat.Name, total, rep.ExchangeVirtual(),
			100*rep.OverlapFraction(), float64(rep.Alignments)/total/1e6,
			float64(kmers)/rep.StageVirtual(pipeline.StageBloom)/1e6)
	}
	// Output:
	// platform       modeled s  exchange s  hidden  M align/s   M k-mer/s
	// Cori (XC40)      0.00971     0.01164     21%      0.724        68.1
	// Edison (XC30)    0.01004     0.01183     22%      0.701        68.4
	// Titan (XK7)      0.01234     0.01299     23%      0.570        55.3
	// AWS              0.04496     0.05278     19%      0.156        12.7
}
