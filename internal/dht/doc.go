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
// A partition is three pointer-free arrays (table.go). The table is an
// open-addressed, linearly probed []slot, each slot holding its entry
// inline: the k-mer, the sighting count, and the offset and length of the
// entry's span in the arena. Beside it runs one control byte per slot:
// zero for an empty slot, else a marker bit plus seven bits of the key's
// hash. A probe reads eight control bytes in one load and finds, without a
// branch per slot, the bytes that could be its key and the empty byte that
// ends its run — so a miss, which is most probes (the hash pass sees mostly
// singletons the Bloom pass kept out; a served query's k-mers mostly carry
// a read error), ends in an array a twenty-fourth the size of the slots
// without comparing a key. The arena is one []Occ holding every entry's
// occurrences, contiguous per entry and in arrival order. There is no map,
// no heap object per key and no slice header per key, so a partition costs
// three allocations however many keys it holds, and the runtime allocates
// them as noscan: the collector never walks a resident index, which the
// serve daemon's per-query garbage used to make it do on every cycle
// (TestPartitionIsPointerFree, TestIndexFormAllocsIndependentOfKeys).
// Emptiness is the control byte, not a key value: k-mer 0 (poly-A) is a
// key and k = 32 uses all 64 bits. A slot's arena offset is 32 bits, so a
// partition holds at most 2³² occurrences (32 GiB of arena per rank).
//
// The two passes fill it in place. The Bloom pass admits keys and counts,
// up to the cutoff, the sightings each admitted key goes on to receive;
// between the passes layOut turns those counts into spans (plus one for a
// key admitted at its second sighting, the latest the filter allows) and
// allocates the arena once; the hash pass writes each occurrence into its
// key's span; prune deletes in place by backward shift — no tombstones, so
// a later miss still stops at the first empty slot — and leaves the dropped
// keys' short spans as holes in the arena. The table is sized once where
// the entry count is known beforehand (DecodePartition's header, Reshard's
// received items, Merge, and a KeepSingletons build, where every distinct
// key gets an entry and the Eq. 2 estimate that sizes the Bloom filter is
// the count); otherwise it starts at 64 slots and doubles whenever more
// than 5/8 are used, the discarded arrays being pointer-free garbage. The
// slot index is a multiply-shift of the k-mer hash, so the capacity need
// not be a power of two — but of the hash remixed by one odd multiply, as
// bloom.locate's block index is: kmer.Owner routed on the hash's top bits,
// so every key a rank holds shares them and the bare hash would crowd 1/P
// of the slots. Slot order is a function of capacity and insertion
// history, so nothing that leaves the process follows it: ForEach, Encode
// and Reshard walk the keys in ascending order, and Encode's bytes are
// those the map-backed partition wrote (reference_test.go keeps that
// implementation as the oracle; TestEncodeMatchesReference,
// FuzzTableMatchesMap).
//
// Both passes exchange out of one fixed ring of send rows
// (spmd.RoundBufs), so a rank's exchange memory is a constant and its peak
// memory stops following its input. spmd.Rounds hands pack a set of
// per-destination rows, empty with their capacity kept, and takes them
// back when the round is posted; pack sizes a row the first time it meets
// it empty (sizeRows): a round ships at most MaxKmersPerRound records and
// Owner is uniform, so each destination gets n/P plus a sixteenth and
// append never regrows it. The rows are kept as bytes and sized for the
// hash pass's 16-byte records, so the Bloom pass's 8-byte keys pack into
// the same memory rather than a ring of their own. A set may be written
// again only when every rank has finished reading it, and on the in-process
// transport receivers read the sender's memory while they process the
// round, after their Wait: the earliest safe reuse of round r's set is
// after this rank's Wait(r+BuildDepth) — a peer posts that round only once
// it has processed round r — i.e. a ring of 2·BuildDepth sets, which holds
// at depth 1 with two (spmd.RoundBufs carries the argument, and
// TestRoundsRingReuse the stamped, slow-rank, race-detected check). In the
// other direction the rows process is handed are valid only until it
// returns: on the in-process transport they are the sender's rows, over
// TCP the frame payloads where the transport read them, back in its pool
// once process returns, the rank's own column its own send row on both.
// Neither pass keeps one: the Bloom pass folds keys into the filter and the
// table, the hash pass copies occurrences into the arena. A build
// therefore allocates its ring, its filter and its table — in under 500
// objects and no more bytes when the same reads are cut into more rounds
// (TestBuildAllocationBudget) — where fresh buffers per round allocated
// 1.06x every byte shipped.
//
// The round is 1<<16 k-mers: a hash-pass round is 1 MiB of records, which
// is still in cache when the transport sends it and again when the
// receiver walks it, and the ring is 4 x 1.06 MiB per rank at the default
// depth. Prototype round sizes on the two-rank loopback-TCP workload of
// bench/ (a 2 Mb sample at 1x; CPU seconds per run, largest resident set
// of either process):
//
//	round   cpu_s   max RSS
//	1<<19   0.323   59.7 MB   (the previous default; with it, fresh buffers)
//	1<<17   0.284   32.7 MB
//	1<<16   0.294   26.7 MB
//	1<<15   0.307   23.5 MB
//	1<<14   0.330   19.7 MB
//
// Below 1<<16 the per-round frame cost (61 µs for a small all-to-all over
// loopback) takes back what the cache gave; above it memory grows for no
// time. The round size is schedule only: it moves no byte of output
// (TestStreamingRoundsMatchSingleRound, TestEncodeMatchesReference).
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
