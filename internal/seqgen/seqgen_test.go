package seqgen

import (
	"math"
	"testing"

	"dibella/internal/dna"
)

func small() Config {
	return Config{
		GenomeLen:   20000,
		Seed:        42,
		Coverage:    20,
		MeanReadLen: 1500,
		MinReadLen:  300,
		ErrorRate:   0.15,
		BothStrands: true,
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Config{
		{GenomeLen: 0, Coverage: 10, MeanReadLen: 100},
		{GenomeLen: 1000, Coverage: 0, MeanReadLen: 100},
		{GenomeLen: 1000, Coverage: 10, MeanReadLen: 0},
		{GenomeLen: 1000, Coverage: 10, MeanReadLen: 100, ErrorRate: 1.0},
		{GenomeLen: 1000, Coverage: 10, MeanReadLen: 100, ErrorRate: -0.1},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Reads) != len(b.Reads) {
		t.Fatalf("read counts differ: %d vs %d", len(a.Reads), len(b.Reads))
	}
	for i := range a.Reads {
		if string(a.Reads[i].Seq) != string(b.Reads[i].Seq) {
			t.Fatalf("read %d differs between identically seeded runs", i)
		}
	}
	cfg := small()
	cfg.Seed = 43
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Reads) == len(a.Reads) && string(c.Reads[0].Seq) == string(a.Reads[0].Seq) {
		t.Error("different seeds produced identical output")
	}
}

func TestGenerateCoverageAndLengths(t *testing.T) {
	ds, err := Generate(small())
	if err != nil {
		t.Fatal(err)
	}
	st := ds.Stats()
	depth := float64(st.TotalBases) / float64(ds.Config.GenomeLen)
	if depth < 18 || depth > 24 {
		t.Errorf("realized depth %.1f, want ~20", depth)
	}
	// Errors are insertion-heavy, so emitted reads run slightly longer
	// than templates; allow a generous band around the configured mean.
	if st.MeanLen() < 1000 || st.MeanLen() > 2300 {
		t.Errorf("mean read length %.0f, want ~1500", st.MeanLen())
	}
	if st.MinLen < ds.Config.MinReadLen/2 {
		t.Errorf("min length %d below floor", st.MinLen)
	}
	for i, r := range ds.Reads {
		if !dna.IsValid(r.Seq) {
			t.Fatalf("read %d contains invalid bases", i)
		}
	}
}

func TestOriginsConsistent(t *testing.T) {
	ds, err := Generate(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Origins) != len(ds.Reads) {
		t.Fatalf("origins %d != reads %d", len(ds.Origins), len(ds.Reads))
	}
	sawRC := false
	for i, o := range ds.Origins {
		if o.Start < 0 || o.End > ds.Config.GenomeLen || o.Start >= o.End {
			t.Fatalf("origin %d out of bounds: %+v", i, o)
		}
		if o.RC {
			sawRC = true
		}
		// Read length tracks template length within error-rate slack.
		tmplLen := o.End - o.Start
		readLen := len(ds.Reads[i].Seq)
		if math.Abs(float64(readLen-tmplLen)) > 0.35*float64(tmplLen)+20 {
			t.Fatalf("read %d length %d far from template %d", i, readLen, tmplLen)
		}
	}
	if !sawRC {
		t.Error("BothStrands produced no reverse-complement reads")
	}
}

func TestErrorFreeReadsMatchGenome(t *testing.T) {
	cfg := small()
	cfg.ErrorRate = 0
	cfg.BothStrands = false
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ds.Reads {
		o := ds.Origins[i]
		if string(r.Seq) != string(ds.Genome[o.Start:o.End]) {
			t.Fatalf("error-free read %d does not equal its template", i)
		}
	}
}

func TestRCReadMatchesTemplate(t *testing.T) {
	cfg := small()
	cfg.ErrorRate = 0
	cfg.BothStrands = true
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, r := range ds.Reads {
		o := ds.Origins[i]
		if !o.RC {
			continue
		}
		want := dna.ReverseComplement(ds.Genome[o.Start:o.End])
		if string(r.Seq) != string(want) {
			t.Fatalf("RC read %d does not equal RC of its template", i)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no RC reads to check")
	}
}

func TestErrorRateRealized(t *testing.T) {
	cfg := small()
	cfg.ErrorRate = 0.15
	cfg.BothStrands = false
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Estimate divergence cheaply via length inflation + mismatch count on
	// a crude base-by-base walk; with ins-heavy errors the read diverges
	// from its template, so identity of the naive comparison drops well
	// below 1 but total length stays within ~20%.
	var tmpl, emitted int
	for i := range ds.Reads {
		tmpl += ds.Origins[i].End - ds.Origins[i].Start
		emitted += len(ds.Reads[i].Seq)
	}
	inflation := float64(emitted) / float64(tmpl)
	// ins 53% adds bases, del 35% removes: net +(0.53-0.35)*0.15 ≈ +2.7%.
	if inflation < 1.0 || inflation > 1.08 {
		t.Errorf("length inflation %.3f, want ~1.03", inflation)
	}
}

func TestOverlapArithmetic(t *testing.T) {
	a := Origin{Start: 0, End: 100}
	b := Origin{Start: 50, End: 150}
	c := Origin{Start: 100, End: 200}
	if a.Overlap(b) != 50 || b.Overlap(a) != 50 {
		t.Error("overlap(a,b) != 50")
	}
	if a.Overlap(c) != 0 {
		t.Error("touching intervals should not overlap")
	}
}

func TestTrueOverlaps(t *testing.T) {
	ds, err := Generate(small())
	if err != nil {
		t.Fatal(err)
	}
	const minOv = 500
	pairs := ds.TrueOverlaps(minOv)
	if len(pairs) == 0 {
		t.Fatal("20x coverage produced no true overlaps")
	}
	seen := make(map[[2]uint32]bool)
	for _, p := range pairs {
		if p[0] >= p[1] {
			t.Fatalf("unordered pair %v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
		if ds.Origins[p[0]].Overlap(ds.Origins[p[1]]) < minOv {
			t.Fatalf("pair %v overlaps < %d", p, minOv)
		}
	}
	// Cross-check against the quadratic definition.
	want := 0
	for i := range ds.Origins {
		for j := i + 1; j < len(ds.Origins); j++ {
			if ds.Origins[i].Overlap(ds.Origins[j]) >= minOv {
				want++
			}
		}
	}
	if len(pairs) != want {
		t.Errorf("TrueOverlaps found %d pairs, quadratic check found %d", len(pairs), want)
	}
}

func TestRepeatsCreateHighFrequencyKmers(t *testing.T) {
	cfg := small()
	cfg.RepeatLen = 2000
	cfg.RepeatCopies = 6
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Genome) != cfg.GenomeLen {
		t.Fatalf("genome length changed: %d", len(ds.Genome))
	}
}

func TestPresets(t *testing.T) {
	for _, cfg := range []Config{EColi30x(0.01, 1), EColi100x(0.01, 1), EColi30xSample(0.01, 1)} {
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.Reads) == 0 {
			t.Fatal("preset generated no reads")
		}
	}
	c30 := EColi30x(0.01, 1)
	c100 := EColi100x(0.01, 1)
	if c100.Coverage <= c30.Coverage || c100.MeanReadLen >= c30.MeanReadLen {
		t.Error("100x preset should have higher depth and shorter reads")
	}
	// Out-of-range scale falls back to full size.
	if EColi30x(0, 1).GenomeLen != int(4.64e6) {
		t.Error("scale=0 should mean full genome")
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := small()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
