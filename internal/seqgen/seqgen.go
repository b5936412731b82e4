// Package seqgen synthesizes long-read sequencing data sets with known
// ground truth, standing in for the paper's PacBio E. coli inputs.
//
// The generator builds a reference genome (uniform random bases, optionally
// seeded with exact repeat copies to exercise the high-frequency k-mer
// filter), then samples reads: start positions uniform over the genome,
// lengths from a clamped log-normal (long-read length distributions are
// heavy-tailed), strand chosen per read, and PacBio-like errors applied at
// a configurable rate split across insertions, deletions, and
// substitutions (PacBio RS II error profiles are insertion-dominated).
//
// Every read records its true genome interval and strand, so integration
// tests can measure overlap-detection recall against ground truth.
package seqgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dibella/internal/fastq"
)

// Config controls data-set synthesis.
type Config struct {
	GenomeLen int   // reference length in bases
	Seed      int64 // RNG seed (generation is fully deterministic)

	// Repeats: RepeatCopies extra copies of RepeatLen-base segments are
	// pasted over the genome, creating high-frequency k-mers.
	RepeatLen    int
	RepeatCopies int

	Coverage    float64 // target mean per-base depth d
	MeanReadLen int     // mean read length L
	MinReadLen  int     // floor on sampled lengths
	LenSigma    float64 // sigma of the log-normal length distribution

	ErrorRate float64 // total per-base error probability e
	// Error-type mix; normalized internally. PacBio-like default when all
	// three are zero: 12% sub / 53% ins / 35% del.
	SubFrac, InsFrac, DelFrac float64

	BothStrands bool // sample reverse-complement reads with probability 1/2

	// NamePrefix is prepended to every generated read name, so reads from
	// different generator invocations (e.g. an indexed corpus and a serve
	// query set) stay distinguishable after mixing.
	NamePrefix string
}

// Origin is the ground-truth placement of one read.
type Origin struct {
	Start int  // genome offset of the read's first template base
	End   int  // one past the last template base
	RC    bool // read is the reverse complement of the template interval
}

// Overlap returns the length of genomic overlap between two origins
// (0 when disjoint).
func (o Origin) Overlap(p Origin) int {
	lo, hi := o.Start, o.End
	if p.Start > lo {
		lo = p.Start
	}
	if p.End < hi {
		hi = p.End
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Dataset is a synthesized read set with its reference and ground truth.
type Dataset struct {
	Genome  []byte
	Reads   []*fastq.Record
	Origins []Origin
	Config  Config
}

// Stats summarizes the generated reads.
func (d *Dataset) Stats() fastq.Stats { return fastq.Summarize(d.Reads) }

// TrueOverlaps returns all read-ID pairs (a<b) whose genomic intervals
// overlap by at least minOverlap bases — the ground truth an overlapper
// should recall.
func (d *Dataset) TrueOverlaps(minOverlap int) [][2]uint32 {
	// Sweep by sorted start position: O(n log n + output).
	type iv struct {
		start, end int
		id         uint32
	}
	ivs := make([]iv, len(d.Origins))
	for i, o := range d.Origins {
		ivs[i] = iv{o.Start, o.End, uint32(i)}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var out [][2]uint32
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			// Sorted by start, so once read j starts too late to overlap
			// read i by minOverlap, no later read can either.
			if ivs[j].start+minOverlap > ivs[i].end {
				break
			}
			end := ivs[i].end
			if ivs[j].end < end {
				end = ivs[j].end
			}
			if end-ivs[j].start < minOverlap {
				continue // read j ends too early
			}
			a, b := ivs[i].id, ivs[j].id
			if a > b {
				a, b = b, a
			}
			out = append(out, [2]uint32{a, b})
		}
	}
	return out
}

// Generate synthesizes a data set from the configuration.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.GenomeLen <= 0 {
		return nil, fmt.Errorf("seqgen: genome length %d must be positive", cfg.GenomeLen)
	}
	if cfg.Coverage <= 0 {
		return nil, fmt.Errorf("seqgen: coverage %v must be positive", cfg.Coverage)
	}
	if cfg.MeanReadLen <= 0 {
		return nil, fmt.Errorf("seqgen: mean read length %d must be positive", cfg.MeanReadLen)
	}
	if cfg.ErrorRate < 0 || cfg.ErrorRate >= 1 {
		return nil, fmt.Errorf("seqgen: error rate %v out of [0,1)", cfg.ErrorRate)
	}
	if cfg.MinReadLen <= 0 {
		cfg.MinReadLen = cfg.MeanReadLen / 10
		if cfg.MinReadLen < 1 {
			cfg.MinReadLen = 1
		}
	}
	if cfg.LenSigma <= 0 {
		cfg.LenSigma = 0.35
	}
	if cfg.SubFrac == 0 && cfg.InsFrac == 0 && cfg.DelFrac == 0 {
		cfg.SubFrac, cfg.InsFrac, cfg.DelFrac = 0.12, 0.53, 0.35
	}
	tot := cfg.SubFrac + cfg.InsFrac + cfg.DelFrac
	cfg.SubFrac /= tot
	cfg.InsFrac /= tot
	cfg.DelFrac /= tot

	rng := rand.New(rand.NewSource(cfg.Seed))
	genome := randomGenome(rng, cfg.GenomeLen, cfg.RepeatLen, cfg.RepeatCopies)

	targetBases := float64(cfg.GenomeLen) * cfg.Coverage
	ds := &Dataset{Genome: genome, Config: cfg}
	var emitted float64
	// Log-normal length parameters: mean of LN(mu, sigma) is
	// exp(mu + sigma^2/2) = MeanReadLen.
	mu := math.Log(float64(cfg.MeanReadLen)) - cfg.LenSigma*cfg.LenSigma/2
	for emitted < targetBases {
		n := int(math.Exp(rng.NormFloat64()*cfg.LenSigma + mu))
		if n < cfg.MinReadLen {
			n = cfg.MinReadLen
		}
		if n > cfg.GenomeLen {
			n = cfg.GenomeLen
		}
		start := rng.Intn(cfg.GenomeLen - n + 1)
		template := genome[start : start+n]
		rc := cfg.BothStrands && rng.Intn(2) == 1
		seq := applyErrors(rng, template, cfg)
		if rc {
			reverseComplement(seq)
		}
		id := len(ds.Reads)
		ds.Reads = append(ds.Reads, &fastq.Record{
			Name: fmt.Sprintf("%ssim_%06d/%d_%d", cfg.NamePrefix, id, start, start+n),
			Seq:  seq,
			Qual: constantQual(len(seq)),
		})
		ds.Origins = append(ds.Origins, Origin{Start: start, End: start + n, RC: rc})
		emitted += float64(n)
	}
	return ds, nil
}

// randomGenome builds the reference, optionally pasting repeat copies.
func randomGenome(rng *rand.Rand, n, repLen, repCopies int) []byte {
	g := make([]byte, n)
	for i := range g {
		g[i] = "ACGT"[rng.Intn(4)]
	}
	if repLen > 0 && repCopies > 0 && repLen < n {
		src := rng.Intn(n - repLen + 1)
		segment := append([]byte(nil), g[src:src+repLen]...)
		for c := 0; c < repCopies; c++ {
			dst := rng.Intn(n - repLen + 1)
			copy(g[dst:], segment)
		}
	}
	return g
}

// applyErrors corrupts a template with the configured error mix.
func applyErrors(rng *rand.Rand, template []byte, cfg Config) []byte {
	if cfg.ErrorRate == 0 {
		return append([]byte(nil), template...)
	}
	out := make([]byte, 0, len(template)+len(template)/8)
	for i := 0; i < len(template); i++ {
		if rng.Float64() >= cfg.ErrorRate {
			out = append(out, template[i])
			continue
		}
		r := rng.Float64()
		switch {
		case r < cfg.SubFrac:
			out = append(out, substitute(rng, template[i]))
		case r < cfg.SubFrac+cfg.InsFrac:
			// Insertion: emit a random base, then the true base.
			out = append(out, "ACGT"[rng.Intn(4)], template[i])
		default:
			// Deletion: skip the template base.
		}
	}
	return out
}

func substitute(rng *rand.Rand, b byte) byte {
	for {
		c := "ACGT"[rng.Intn(4)]
		if c != b {
			return c
		}
	}
}

func reverseComplement(s []byte) {
	comp := map[byte]byte{'A': 'T', 'C': 'G', 'G': 'C', 'T': 'A'}
	i, j := 0, len(s)-1
	for i < j {
		s[i], s[j] = comp[s[j]], comp[s[i]]
		i, j = i+1, j-1
	}
	if i == j {
		s[i] = comp[s[i]]
	}
}

func constantQual(n int) []byte {
	q := make([]byte, n)
	for i := range q {
		q[i] = 'I'
	}
	return q
}

// EColi30x returns a configuration mirroring the paper's first data set —
// E. coli MG1655 (4.64 Mbp) at 30x depth, PacBio RS II P5-C3, 16,890 reads
// of mean length 9,958 bp — at a genome-scale factor in (0,1] so tests and
// benches can run reduced instances. Error rate 15% is PacBio RS II
// raw-read typical (the paper's 5-35% band).
//
// Scaling law: the genome shrinks linearly with scale while read lengths
// shrink by sqrt(scale). Shrinking only the genome would leave full-length
// reads covering large genome fractions, making the overlap graph
// near-complete (quadratic pair blowup) — nothing like the real workload,
// where each read truly overlaps ~2·coverage others. The square-root
// compromise keeps per-read overlap degree realistic at tractable sizes
// and recovers the paper's exact numbers at scale 1.
func EColi30x(scale float64, seed int64) Config {
	return Config{
		GenomeLen:    scaledGenome(scale),
		Seed:         seed,
		Coverage:     30,
		MeanReadLen:  scaledLen(9958, scale),
		MinReadLen:   scaledLen(1000, scale),
		ErrorRate:    0.15,
		BothStrands:  true,
		RepeatLen:    scaledLen(5000, scale),
		RepeatCopies: 4, // E. coli carries ~5-copy rRNA operon repeats
	}
}

// EColi100x mirrors the paper's second data set: 100x depth, PacBio RS II
// P4-C2, 91,394 reads of mean length 6,934 bp. The same scaling law as
// EColi30x applies.
func EColi100x(scale float64, seed int64) Config {
	cfg := EColi30x(scale, seed)
	cfg.Coverage = 100
	cfg.MeanReadLen = scaledLen(6934, scale)
	return cfg
}

// EColi30xSample mirrors Table 2's "E. coli 30x (sample)": a reduced-depth
// sample of the 30x data set.
func EColi30xSample(scale float64, seed int64) Config {
	cfg := EColi30x(scale, seed)
	cfg.Coverage = 8
	return cfg
}

func scaledGenome(scale float64) int {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	return int(4.64e6 * scale)
}

func scaledLen(full int, scale float64) int {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	n := int(float64(full) * math.Sqrt(scale))
	if n < 60 {
		n = 60 // floor keeps k-mer extraction meaningful at extreme scales
	}
	return n
}
