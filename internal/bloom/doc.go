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
// The filter is cache-line blocked (Putze, Sanders & Singler 2007): the bit
// array is cut into 512-bit blocks, a key picks one block and sets all h of
// its bits inside it, so an insert-and-test touches one cache line instead
// of h, costs three multiplies instead of h 64-bit divides, and has no
// data-dependent branch. From the key's 64-bit hash:
//
//	x     = hash · odd constant             (remix 1)
//	block = high word of x · #blocks        (multiply-shift on x's top bits)
//	y     = (x ^ x>>32) · odd constant      (remix 2)
//	probe i = bits [9i, 9i+9) of y          (7 per remix; y is remixed again for h > 7)
//
// Remix 1 is not optional. kmer.Owner routes a key to rank r when the top
// bits of its hash fall in [r/P, (r+1)/P), so every key one rank's filter
// ever sees shares those bits; a block index taken from them directly uses
// 1/P of the blocks (in this layout's prototype at P=2 that doubled the
// load per block, let ~100 k extra false positives into the table per run
// and was 25% slower — with every equivalence test still green, because
// false positives never reach the output). The odd multiply folds all 64
// hash bits into x's top bits.
// Remix 2 exists for the mirror-image reason: keys that share a block share
// x's top bits, so the probes are cut from a word in which those bits have
// been spread again. TestOwnerRestrictedKeysSpreadOverAllBlocks holds both
// properties on keys restricted to one owner.
//
// # Sizing and the blocking penalty
//
// NewWithEstimate keeps the classic m = -n·ln p/(ln 2)² and h = (m/n)·ln 2
// (the paper's Eq. 2 feeds n). Blocks receive a Poisson-distributed number
// of keys, and the fuller ones answer wrong more often, so at equal bits a
// blocked filter's false-positive rate is higher: measured at design load
// 1.02x the target at p=0.1, 1.18x at p=0.01 (0.0098 → 0.0115 on the bench's
// bloom.fp_rate rung), and it would be 1.6x at p=0.001. The penalty is paid
// in false positives up to 1.25x and in extra blocks beyond (≈5% more bits
// at p=0.001, none at dht's default 0.01); TestFalsePositiveRateBounded
// bounds the measured rate at 1.5x for p ∈ {0.001, 0.01, 0.1}.
package bloom
