package dht

import (
	"fmt"

	"dibella/internal/kmer"
	"dibella/internal/spmd"
	"dibella/internal/wire"
)

// Partition-segment codec and ownership re-shard: the checkpoint
// representation of one rank's shard of the distributed k-mer hash table,
// plus the collective that redistributes loaded entries when the world
// size changed between snapshot and resume.
//
// K-mer ownership is the deterministic hash partition kmer.Owner(p), so a
// partition snapshot taken at world size W can be re-homed at any size P:
// every loaded entry is routed to its new owner in one packed all-to-all
// and the resulting partitions are exactly what a fresh P-rank build of
// the same data would hold (entry occurrence multisets included — an
// entry's occurrences travel with it, never split).

// Encoded sizes: an entry is its k-mer, count and occurrence count, an
// occurrence its read and position word.
const (
	entryHeaderSize = 16
	occSize         = 8
)

// Encode serializes the partition's entries in ascending k-mer order, each
// entry's occurrences in arrival order, so the encoding (and therefore a
// segment digest) is a function of the entries alone — not of the table's
// capacity or insertion history, and byte for byte what the map-backed
// partition this replaced wrote (TestEncodeMatchesReference).
func (p *Partition) Encode() []byte {
	buf := make([]byte, 0, 16+entryHeaderSize*p.n+occSize*len(p.occs))
	buf = wire.U32(buf, uint32(p.K))
	buf = wire.U32(buf, uint32(p.MaxFreq))
	buf = wire.U64(buf, uint64(p.n))
	p.forEachSlot(func(s *slot) { buf = p.appendEntry(buf, s) })
	return buf
}

// appendEntry serializes one entry.
func (p *Partition) appendEntry(buf []byte, s *slot) []byte {
	buf = wire.U64(buf, uint64(s.key))
	buf = wire.U32(wire.U32(buf, uint32(s.count)), s.n)
	for _, o := range p.span(s) {
		buf = wire.U32(wire.U32(buf, o.Read), o.PosFlag)
	}
	return buf
}

// readEntry parses one appendEntry record into p, straight into the arena.
// It reports false, leaving p as it was, for a k-mer p already holds.
func (p *Partition) readEntry(r *wire.Reader) (kmer.Kmer, bool) {
	km := kmer.Kmer(r.U64())
	count := int32(r.U32())
	n := r.Count(uint64(r.U32()), occSize)
	s, added := p.insert(km)
	if !added {
		return km, false
	}
	s.count = count
	s.off, s.n = uint32(len(p.occs)), uint32(n)
	for i := 0; i < n; i++ {
		p.occs = append(p.occs, Occ{Read: r.U32(), PosFlag: r.U32()})
	}
	arenaIndex(len(p.occs)) // the span's end fits in 32 bits, so its start did
	return km, true
}

// DecodePartition parses an Encode blob back into a Partition, sized once
// from the header's entry count.
func DecodePartition(b []byte) (*Partition, error) {
	r := wire.NewReader(b)
	p := &Partition{K: int(r.U32()), MaxFreq: int(r.U32())}
	if !kmer.ValidK(p.K) {
		r.Fail(fmt.Errorf("invalid k %d", p.K))
	}
	count := r.Count(r.U64(), entryHeaderSize)
	p.reserve(count)
	p.occs = make([]Occ, 0, (len(b)-entryHeaderSize*count)/occSize)
	var prev kmer.Kmer
	for i := 0; i < count; i++ {
		// Encode writes entries in strictly ascending k-mer order; anything
		// else (a repeat included) is not a blob Encode produced.
		km, added := p.readEntry(r)
		if i > 0 && km <= prev || !added {
			r.Fail(fmt.Errorf("entry %d: k-mer %#x repeats or is out of order", i, uint64(km)))
			break
		}
		prev = km
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("dht: partition segment: %w", err)
	}
	return p, nil
}

// Reshard redistributes part's entries to their hash owners under c's
// (new) world size. All ranks call it collectively, each contributing
// whatever entries it holds (typically the union of the old-world
// partition segments assigned to it); the union across ranks must cover
// each k-mer exactly once. Returns this rank's partition of the new
// world, holding exactly the entries kmer.Owner maps to it.
func Reshard(c *spmd.Comm, part *Partition) (*Partition, error) {
	p := c.Size()
	send := make([]spmd.PackedBufs, p)
	// Deterministic send order (sorted k-mers) keeps the exchange payload
	// reproducible; correctness does not depend on it, but digest-level
	// reproducibility of resumed runs is easier to reason about.
	var item []byte
	part.forEachSlot(func(s *slot) {
		item = part.appendEntry(item[:0], s)
		send[s.key.Owner(p)].AppendItem(item)
	})
	recv := spmd.AlltoallvPacked(c, send)
	out := &Partition{K: part.K, MaxFreq: part.MaxFreq}
	entries := 0
	for src := range recv {
		entries += len(recv[src].Lens)
	}
	out.reserve(entries)
	for src := 0; src < p; src++ {
		for _, item := range recv[src].Items() {
			r := wire.NewReader(item)
			km, added := out.readEntry(r)
			if !added {
				return nil, fmt.Errorf("dht: reshard received k-mer %#x twice (overlapping segments?)", uint64(km))
			}
			if err := r.Finish(); err != nil {
				return nil, fmt.Errorf("dht: reshard from rank %d: %w", src, err)
			}
			if km.Owner(p) != c.Rank() {
				return nil, fmt.Errorf("dht: reshard delivered k-mer %#x to rank %d, owner is %d",
					uint64(km), c.Rank(), km.Owner(p))
			}
		}
	}
	return out, nil
}
