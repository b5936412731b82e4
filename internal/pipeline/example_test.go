package pipeline_test

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"dibella/internal/overlap"
	"dibella/internal/paf"
	"dibella/internal/pipeline"
	"dibella/internal/seqgen"
)

// Synthesize a small long-read data set, run the four-stage pipeline on
// four in-process ranks, and print the first overlap alignments as PAF.
// k and the reliable-k-mer cutoff m are derived from the error rate,
// depth and genome size, as BELLA's theory prescribes.
func ExampleExecute() {
	// A 0.4%-scale E. coli analogue: an 18.5 kbp genome at 30x coverage
	// with 15% error (stands in for the paper's PacBio input).
	ds, err := seqgen.Generate(seqgen.EColi30x(0.004, 42))
	if err != nil {
		log.Fatal(err)
	}
	cfg := pipeline.Config{
		ErrorRate:      0.15,
		Coverage:       30,
		GenomeEst:      float64(ds.Config.GenomeLen),
		SeedMode:       overlap.OneSeed,
		KeepAlignments: true,
	}
	rep, err := pipeline.Execute(4, nil, ds.Reads, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d reads, k=%d m=%d: %d pairs, %d alignments\n",
		rep.Reads, rep.Config.K, rep.Config.MaxFreq, rep.Pairs, rep.Alignments)
	recs := rep.PAFRecords(ds.Reads)
	if err := paf.Write(os.Stdout, recs[:3]); err != nil {
		log.Fatal(err)
	}
	// Output:
	// 882 reads, k=20 m=10: 7041 pairs, 7041 alignments
	// sim_000000/8198_8783	609	211	607	+	sim_000026/9749_11148	1447	786	1183	207	1
	// sim_000000/8198_8783	609	0	295	-	sim_000036/7960_8480	519	0	282	193	1
	// sim_000000/8198_8783	609	100	608	+	sim_000059/16481_17113	657	18	518	195	1
}

// The output does not depend on the world size: the same reads on one,
// two and four ranks give the same alignment counts and the same PAF,
// byte for byte.
func ExampleExecute_rankCounts() {
	ds, err := seqgen.Generate(seqgen.EColi30x(0.002, 7))
	if err != nil {
		log.Fatal(err)
	}
	cfg := pipeline.Config{K: 17, MaxFreq: 10, SeedMode: overlap.OneSeed, KeepAlignments: true}
	var first []byte
	for _, p := range []int{1, 2, 4} {
		rep, err := pipeline.Execute(p, nil, ds.Reads, cfg)
		if err != nil {
			log.Fatal(err)
		}
		var out bytes.Buffer
		if err := paf.Write(&out, rep.PAFRecords(ds.Reads)); err != nil {
			log.Fatal(err)
		}
		if p == 1 {
			first = out.Bytes()
		}
		fmt.Printf("p=%d: %d pairs, %d alignments, %d PAF bytes, same PAF as p=1: %t\n",
			p, rep.Pairs, rep.Alignments, out.Len(), bytes.Equal(out.Bytes(), first))
	}
	// Output:
	// p=1: 7331 pairs, 7331 alignments, 522345 PAF bytes, same PAF as p=1: true
	// p=2: 7331 pairs, 7331 alignments, 522345 PAF bytes, same PAF as p=1: true
	// p=4: 7331 pairs, 7331 alignments, 522345 PAF bytes, same PAF as p=1: true
}
