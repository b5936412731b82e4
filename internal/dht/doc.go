// Package dht builds diBELLA's distributed k-mer hash table: the first two
// pipeline stages of the paper, and the producer of the seed set that the
// overlap stage walks. In the seed→exchange→overlap path this package is
// the "exchange": it is where the k-mer bag crosses ranks, and its
// all-to-all volume is the pipeline's dominant communication cost.
//
// Stage 1 (Bloom filter construction, §6): every rank streams its local
// reads into k-mers, routes each k-mer to its hash owner through an
// irregular all-to-all, and the owner inserts it into a local Bloom filter
// partition. A k-mer seen for the (probable) second time becomes a key in
// the owner's hash-table partition. Because up to ~98% of long-read k-mers
// are singletons, this pass eliminates the bulk of the data without storing
// per-instance metadata.
//
// Stage 2 (hash table construction, §7): the reads are streamed again, now
// shipping (k-mer, read ID, position, orientation) tuples; owners append
// occurrences only for resident keys and count every sighting. Afterwards
// each partition prunes Bloom false positives (count < 2) and
// high-frequency repeat k-mers (count > m). Surviving keys are the
// "retained" k-mers — the edges of the read-overlap graph.
//
// Both passes run in memory-limited rounds: ranks agree (via all-reduce) on
// the global round count and exchange at most MaxKmersPerRound k-mers per
// rank per round, so the full k-mer bag never resides in memory — the
// paper's streaming design.
//
// A round's send buffers are sized once (roundBufs): the round's record
// count is known and Owner is uniform, so each destination gets n/P plus a
// sixteenth and append never regrows it — a build allocates ~1.06x the
// bytes it ships, not the ~3x that doubling from nil cost
// (TestBuildAllocationBudget). Every round gets fresh buffers, because a
// posted buffer must stay untouched until every rank has finished reading
// it, and on the in-process transport receivers read the sender's memory
// while they process the round, after their Wait. The earliest safe reuse
// of round r's set is after this rank's Wait(r+BuildDepth) — a peer posts
// that round only once it has processed round r — i.e. a ring of
// 2·BuildDepth sets. None ships: the bench workloads run two rounds per
// pass, where a ring recycles nothing.
//
// With Config.MinimizerWindow > 1 both passes extract and exchange only
// (w,k)-minimizer occurrences (kmer.Minimizers) instead of every k-mer,
// shrinking the index and the exchanged bytes to ~2/(w+1) of the exact
// mode's at a small recall cost. Reads are still scanned in full — only
// the shipped subset changes — so local parse time is priced on the full
// k-mer stream while packing, exchange, and insertion scale with the
// minimizer count. The downstream overlap and alignment stages consume
// the sparser partition unchanged.
package dht
