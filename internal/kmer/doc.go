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
// Scanning is in blocks. Scanner.Fill writes up to len(keys) canonical
// k-mers of one read per call: keys[i] is the i-th k-mer's canonical form,
// min(forward, reverse complement), and locs[i] its Loc, one word with the
// read ID in the high 32 bits and pos<<1 | fwd in the low 32 (fwd = forward
// <= reverse complement, so a palindrome reads forward; the low half is the
// DHT's Occ.PosFlag as it stands). A call resumes where the last one
// stopped: the rolling forward and reverse-complement k-mers, the byte
// position and the length of the current run of ACGT are the Scanner's
// state between calls, so the k-mers and their order do not depend on how
// the calls cut the read. A non-ACGT byte (N, an IUPAC code, anything)
// restarts the run, and the next k-mer is the one completed k valid bases
// later; upper and lower case are the same base. Fill writes fewer than
// asked only when the read is done. Next is a view over the same loop: it
// hands out one Extracted at a time from a 512-slot block Fill buffers in
// the Scanner. MinimizerScanner.Fill sweeps its deque over the Scanner's
// blocks and writes minimizers with the same contract.
//
// The loop rolls the first k-1 bases of a run one at a time; from there
// every valid base completes a k-mer, and roll writes them without a branch
// on the strand (min for the key, a set-on-compare for the bit). On amd64
// with AVX2 and 8 <= k <= 31, rollAVX2 (kmer_amd64.s) takes whole
// 32-byte windows of ACGT: codes and validity by byte compares, each group
// of eight bases packed into 16 bits twice by multiply-adds, and the group's
// eight k-mers shifted out of the two rolling words in lanes. The Go loop
// rolls the rest and is the routine's oracle (TestRollKernelMatchesGo); the
// per-k-mer scanner both replaced is the oracle of the whole
// (FuzzScanMatchesReference, reference_test.go). Measured on a 2.1 GHz Xeon,
// 2 vCPUs, k=17, random 10 kb reads (BenchmarkScanner*, medians of six):
// Fill 940 MB/s with the assembly routine and 395 MB/s on the Go loop alone;
// Next 250 MB/s against 139 for the per-k-mer scanner it replaced (each call
// still pays a function call and a load and store of the block index); and
// Minimizers 48 MB/s against 32, where the deque's branches are the cost.
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
