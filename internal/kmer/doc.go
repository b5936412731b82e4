// Package kmer implements fixed-length DNA substrings (k-mers) packed two
// bits per base into a uint64, supporting k in [1,32]. It is the "seed"
// end of the pipeline's seed→exchange→overlap path: everything the DHT
// exchanges, the Bloom filter tests, and the overlap stage walks starts as
// a k-mer extracted here.
//
// diBELLA parses every read into its overlapping k-mers (typically k=17
// for long-read data), hashes them, and distributes them across ranks by
// hash ownership. This package provides the packed representation, reverse
// complementation, canonicalization (min of a k-mer and its reverse
// complement, so that both strands of the genome map to one key), rolling
// extraction from ASCII reads that restarts across non-ACGT bytes, and the
// 64-bit mixing hash used for rank assignment and Bloom-filter indexing.
//
// The package also implements (w,k)-minimizer selection (one streaming
// sweep, MinimizerScanner, behind Minimizers and MinimizerCount; Roberts
// et al. 2004, the scheme Minimap2 builds on):
// per window of w consecutive k-mers, only the minimum-hash one is kept.
// On random sequence the expected density is 2/(w+1) (MinimizerDensity),
// and two reads sharing an exact run of at least w+k-1 bases are
// guaranteed to share a minimizer — the sparse seeding mode the pipeline
// exposes as `-seed minimizer` to cut exchange volume.
package kmer
