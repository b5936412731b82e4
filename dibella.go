// Package dibella is a Go reproduction of diBELLA, the distributed
// long-read to long-read overlapper and aligner of Ellis, Guidi, Buluç,
// Oliker & Yelick (ICPP 2019).
//
// The library runs BELLA's seed-and-extend overlap/alignment method as the
// paper's four-stage pipeline — distributed Bloom filter, k-mer hash table,
// overlap detection, x-drop alignment — over an in-process SPMD runtime
// (goroutine ranks + MPI-style collectives). Every byte moves in an
// irregular all-to-all between supersteps, as in the paper; by default the
// rounds keep a window of those exchanges in flight under packing,
// inserting and aligning (ExchangeStreamed), and Config.Exchange =
// ExchangeSync selects the paper's pack → exchange → process sum, kept as
// the reference with byte-identical output. A per-platform
// performance model reprices executed work to regenerate the paper's
// cross-architecture evaluation on the Cori/Edison/Titan/AWS machine
// models; docs/BENCH.md ("What machine.Model prices") says what is
// counted and how it is priced.
//
// Quick start:
//
//	reads, _ := dibella.GenerateEColi30x(0.01, 42)
//	rep, err := dibella.Run(8, reads, dibella.Config{K: 17, KeepAlignments: true})
//	if err != nil { ... }
//	fmt.Println(rep.Summary())
//	dibella.WritePAF(os.Stdout, rep, reads)
package dibella

import (
	"fmt"
	"io"

	"dibella/internal/fastq"
	"dibella/internal/machine"
	"dibella/internal/overlap"
	"dibella/internal/paf"
	"dibella/internal/pipeline"
	"dibella/internal/seqgen"
)

// Re-exported core types. Aliases keep one definition of each while giving
// downstream users a single import.
type (
	// Config holds every runtime parameter of a pipeline execution.
	Config = pipeline.Config
	// Report is the gathered result of one execution.
	Report = pipeline.Report
	// Alignment is one computed pairwise alignment.
	Alignment = pipeline.Alignment
	// Record is one sequencing read.
	Record = fastq.Record
	// Platform describes a modeled machine.
	Platform = machine.Platform
	// SeedMode selects the seed-exploration constraint.
	SeedMode = overlap.SeedMode
)

// Seed exploration modes (§8): one seed per pair, all seeds separated by
// MinDist bases, or all seeds separated by k.
const (
	OneSeed     = overlap.OneSeed
	MinDistance = overlap.MinDistance
	AllSeeds    = overlap.AllSeeds
)

// Exchange scheduling modes: non-blocking overlapped exchanges with a
// streamed alignment-stage reply (the default) or the paper's
// bulk-synchronous schedule. Both produce byte-identical PAF.
const (
	ExchangeStreamed = pipeline.ExchangeStreamed
	ExchangeSync     = pipeline.ExchangeSync
)

// The paper's evaluated platforms (Table 1).
var (
	Cori   = machine.Cori
	Edison = machine.Edison
	Titan  = machine.Titan
	AWS    = machine.AWS
)

// ReadFastq loads a FASTQ or FASTA read set.
func ReadFastq(path string) ([]*Record, error) { return fastq.ReadFile(path) }

// Run executes the full diBELLA pipeline across p in-process ranks on the
// host, without platform modeling, and returns the gathered report.
func Run(p int, reads []*Record, cfg Config) (*Report, error) {
	return pipeline.Execute(p, nil, reads, cfg)
}

// RunModeled executes the pipeline and prices it as a job of
// nodes × platform.CoresPerNode MPI ranks on the given platform model,
// simulated by simRanks goroutine ranks. The report's virtual times are
// the modeled platform seconds.
func RunModeled(platform Platform, nodes, simRanks int, reads []*Record, cfg Config) (*Report, error) {
	mdl, err := machine.NewModelScaled(platform, nodes, simRanks)
	if err != nil {
		return nil, err
	}
	return pipeline.Execute(simRanks, mdl, reads, cfg)
}

// WritePAF writes the report's alignment records (requires
// Config.KeepAlignments) as PAF lines.
func WritePAF(w io.Writer, rep *Report, reads []*Record) error {
	if !rep.Config.KeepAlignments {
		return fmt.Errorf("dibella: report was produced without KeepAlignments")
	}
	return paf.Write(w, rep.PAFRecords(reads))
}

// GenerateEColi30x synthesizes the paper's E. coli 30x analogue data set
// at a genome-scale factor in (0, 1] (substitution for the PacBio input;
// see internal/seqgen).
func GenerateEColi30x(scale float64, seed int64) ([]*Record, error) {
	ds, err := seqgen.Generate(seqgen.EColi30x(scale, seed))
	if err != nil {
		return nil, err
	}
	return ds.Reads, nil
}

// GenerateEColi100x synthesizes the paper's E. coli 100x analogue.
func GenerateEColi100x(scale float64, seed int64) ([]*Record, error) {
	ds, err := seqgen.Generate(seqgen.EColi100x(scale, seed))
	if err != nil {
		return nil, err
	}
	return ds.Reads, nil
}
