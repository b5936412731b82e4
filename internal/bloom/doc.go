// Package bloom implements the Bloom filter used by diBELLA's first
// pipeline stage to identify singleton k-mers without storing the full
// k-mer bag — the gatekeeper between the seed exchange and the hash
// table: only seeds the filter has (probably) seen twice become table
// keys that the overlap stage can later walk.
//
// A Bloom filter is a bit array with h hash functions per element; it can
// report false positives but never false negatives (Bloom 1970). diBELLA
// (following HipMer) builds one partition per rank: k-mers are exchanged to
// their hash owner, tested, and only those seen at least twice become hash
// table keys. For long reads up to 98% of k-mers are singletons, so the
// filter removes the bulk of the data before any per-k-mer metadata is
// stored. A false positive only admits a key whose occurrence count stays
// below 2 — the hash pass's prune removes it — so filter sizing and layout
// affect memory and time, never output (dht's TestBuildIndependentOfBloomFP).
// Under minimizer seeding the filter is sized for the ~2/(w+1)-sparser
// minimizer stream.
//
// # Layout
//
// The filter is split-block (the layout of Impala's and Parquet's filters,
// after Putze, Sanders & Singler 2007's blocking): the bit array is cut into
// 512-bit blocks of eight 64-bit words, a key picks one block and sets
// exactly one bit in each of its eight words. An insert-and-test touches one
// cache line, costs three multiplies, and has neither a data-dependent
// branch nor a loop over probes: the eight words are independent, so they
// are two 256-bit vectors. From the key's 64-bit hash:
//
//	x     = hash · odd constant             (remix 1)
//	block = high word of x · #blocks        (multiply-shift on x's top bits)
//	y     = (x ^ x>>32) · odd constant      (remix 2)
//	bit in word i = bits [6i, 6i+6) of y    (i = 0..7; 48 of y's bits)
//
// Remix 1 is not optional. kmer.Owner routes a key to rank r when the top
// bits of its hash fall in [r/P, (r+1)/P), so every key one rank's filter
// ever sees shares those bits; a block index taken from them directly uses
// 1/P of the blocks (in the blocked layout's prototype at P=2 that doubled
// the load per block, let ~100 k extra false positives into the table per
// run and was 25% slower — with every equivalence test still green,
// because false positives never reach the output). The odd multiply folds
// all 64 hash bits into x's top bits.
// Remix 2 exists for the mirror-image reason: keys that share a block share
// x's top bits, so their bits are cut from a word in which those bits have
// been spread again. TestOwnerRestrictedKeysSpreadOverAllBlocks holds both
// properties on keys restricted to one owner.
//
// # Kernels
//
// The Bloom pass inserts a received row at a time (InsertAndTestKmers), and
// the hash pass asks the owner filters about a chunk of scanned k-mers at a
// time (Owners.Route). On amd64 with AVX2 (internal/cpuid) each is one
// assembly routine (bloom_amd64.s) that hashes the k-mer as kmer.Hash does,
// locates it, builds its eight bits with two variable shifts, and tests (and
// for an insert, sets) them with two vector loads: a row's keys are
// independent but for a block they happen to share, which goes through
// memory, so one key's cache miss overlaps the next's. InsertAndTest and
// Contains, key by key, are the kernel elsewhere and the oracle
// everywhere: FuzzBloomKernelMatchesGo holds the routines to them, words
// left and answers given, on any keys, segment size and world size. On the
// 1.2 MB filter of BenchmarkInsertAndTest a key costs 21 ns through
// InsertAndTest and 10 ns through the routine (a 2-vCPU Xeon VM; the
// blocked layout's InsertAndTest, with seven probes of nine bits each, 23).
//
// # Owner filters
//
// Owners is the hash pass's sender-side test: one segment per rank, all of
// one size, segment r a split-block filter over rank r's hash-table keys,
// shipped to every rank by internal/dht. Route gives each k-mer its
// kmer.Owner if that rank's segment may hold it and -1 if not. A segment
// has no false negatives, so nothing the owner's table holds is held back;
// a false positive ships an occurrence the owner drops, as before.
//
// # Sizing and the blocking penalty
//
// NewWithEstimate starts from the classic m = -n·ln p/(ln 2)² (the paper's
// Eq. 2 feeds n). Blocks receive a Poisson-distributed number of keys, and
// the fuller ones answer wrong more often, so a block of load j answers a
// probe wrong with (1-(63/64)^j)^8 and the filter with
//
//	FP(load) = Σ_j P_load(j) · (1 - (63/64)^j)^8
//
// which at the classic 9.59 bits per key (p = 0.01, load 53.4) is 1.29%,
// against 1.16% for the blocked layout with seven probes. The penalty is
// paid in false positives up to fpSlack = 1.25x the target and in extra
// blocks beyond, added 1/64 at a time: +1.6% bits at p = 0.01
// (9.74 bits per key), +6.5% at p = 0.001. Measured at design load, the
// rate is 1.14x the target at p = 0.001, 1.18x at 0.01 (the bench's
// bloom.fp_rate rung: 0.0114 → 0.0117 on its sparse workload) and 1.24x
// at 0.1; TestFalsePositiveRateBounded bounds it at 1.5x.
// NewCapped is the same sizing under a budget of bits: the owner filters
// may take no more than the Bloom filter the rank has just freed, and past
// that their rate rises instead.
package bloom
