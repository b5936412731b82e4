package pipeline

import (
	"bytes"
	"testing"

	"dibella/internal/overlap"
	"dibella/internal/seqgen"
)

// TestBuildDepthPAFEquivalence pins down Config.BuildDepth as schedule-only:
// the DHT build's round pipeline must produce byte-identical PAF at
// every legal depth, from the degenerate blocking schedule (1) to the
// cap (spmd.MaxStreamDepth). KeepSingletons rides along: retained
// singletons and high-frequency tombstones never pair, so a serve-shaped
// index answers batch mode identically too.
func TestBuildDepthPAFEquivalence(t *testing.T) {
	const p = 4
	ds, err := seqgen.Generate(seqgen.Config{
		GenomeLen: 18000, Coverage: 9, MeanReadLen: 1400, MinReadLen: 400,
		BothStrands: true, ErrorRate: 0.07, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		K: 17, ErrorRate: 0.07, Coverage: 9, KeepAlignments: true,
		SeedMode: overlap.MinDistance, MinDist: 500,
		MaxKmersPerRound: 1 << 12, // several rounds per pass, so depth matters
	}
	ref, err := Execute(p, nil, ds.Reads, base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Alignments == 0 {
		t.Fatal("reference run produced no alignments; nothing to compare")
	}
	want := pafBytes(t, ref, ds.Reads)

	for _, depth := range []int{1, 3, 8} {
		cfg := base
		cfg.BuildDepth = depth
		rep, err := Execute(p, nil, ds.Reads, cfg)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if got := pafBytes(t, rep, ds.Reads); !bytes.Equal(want, got) {
			t.Errorf("depth %d: PAF diverges from the default schedule (%d vs %d bytes)",
				depth, len(got), len(want))
		}
	}

	cfg := base
	cfg.KeepSingletons = true
	rep, err := Execute(p, nil, ds.Reads, cfg)
	if err != nil {
		t.Fatalf("keep-singletons: %v", err)
	}
	if got := pafBytes(t, rep, ds.Reads); !bytes.Equal(want, got) {
		t.Errorf("keep-singletons batch run diverges from the pruned index (%d vs %d bytes)",
			len(got), len(want))
	}
}
