package olgraph_test

import (
	"fmt"
	"log"

	"dibella/internal/evalx"
	"dibella/internal/olgraph"
	"dibella/internal/overlap"
	"dibella/internal/pipeline"
	"dibella/internal/seqgen"
)

// Feed the pipeline's alignments into the first moves of an
// overlap-layout-consensus assembler: score overlap detection against the
// generator's ground truth, build the overlap graph, transitively reduce it
// and estimate the layout of its largest component.
func Example_assembly() {
	ds, err := seqgen.Generate(seqgen.EColi30x(0.004, 23))
	if err != nil {
		log.Fatal(err)
	}
	reads := ds.Reads
	rep, err := pipeline.Execute(4, nil, reads, pipeline.Config{
		K: 17, MaxFreq: 12,
		SeedMode:       overlap.MinDistance,
		MinDist:        500,
		MinAlignScore:  200, // keep confident overlaps only
		KeepAlignments: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Quality against the interval each read was sampled from.
	var pred []evalx.Pair
	for _, a := range rep.Records {
		pred = append(pred, evalx.Canon(a.A, a.B))
	}
	minOv := len(reads[0].Seq) / 3
	fmt.Printf("truth = genomic overlap >= %d bp: %s\n", minOv, evalx.Evaluate(ds, pred, minOv))
	for _, bin := range evalx.RecallByOverlapLength(ds, pred, []int{minOv, 2 * minOv, 3 * minOv}) {
		fmt.Printf("overlap >= %5d bp: recall %.3f (%d/%d)\n", bin.MinLen, bin.Recall(), bin.Found, bin.Truth)
	}

	// Reads are vertices, the best alignment per pair the edge, weighted
	// by aligned span (scores under-count overlap length at 15% error,
	// because mismatches cancel matches).
	g := olgraph.New(len(reads))
	for _, a := range rep.Records {
		if err := g.AddEdge(a.A, a.B, a.AEnd-a.AStart); err != nil {
			log.Fatal(err)
		}
	}
	st := g.Degrees()
	fmt.Printf("overlap graph: %d reads, %d edges, mean degree %.1f, %d isolated\n",
		g.NumReads(), g.NumEdges(), st.Mean, st.Isolated)
	removed := g.TransitiveReduction()
	comps := g.Components()
	fmt.Printf("transitive reduction: %d edges removed, %d components\n", removed, len(comps))
	giant := comps[0]
	layout := g.LayoutEstimate(giant, func(id uint32) int { return len(reads[id].Seq) })
	fmt.Printf("largest component: %d reads, layout ~%d bp (genome %d bp)\n",
		len(giant), layout, ds.Config.GenomeLen)
	// Output:
	// truth = genomic overlap >= 264 bp: truth=15847 predicted=9160 TP=8026 FP=1108 near=26 recall=0.506 precision=0.879 F1=0.643
	// overlap >=   264 bp: recall 0.451 (5400/11971)
	// overlap >=   528 bp: recall 0.667 (2391/3584)
	// overlap >=   792 bp: recall 0.805 (235/292)
	// overlap graph: 893 reads, 9160 edges, mean degree 20.5, 20 isolated
	// transitive reduction: 6398 edges removed, 21 components
	// largest component: 873 reads, layout ~15202 bp (genome 18560 bp)
}
