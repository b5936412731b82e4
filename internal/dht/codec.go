package dht

import (
	"fmt"
	"sort"

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

// Encode serializes the partition's entries in ascending k-mer order, so
// the encoding (and therefore a segment digest) is deterministic despite
// Go's randomized map iteration.
func (p *Partition) Encode() []byte {
	kms := make([]kmer.Kmer, 0, len(p.Table))
	n := 16
	for km, e := range p.Table {
		kms = append(kms, km)
		n += entryHeaderSize + occSize*len(e.Occs)
	}
	sort.Slice(kms, func(i, j int) bool { return kms[i] < kms[j] })
	buf := wire.U32(make([]byte, 0, n), uint32(p.K))
	buf = wire.U32(buf, uint32(p.MaxFreq))
	buf = wire.U64(buf, uint64(len(kms)))
	for _, km := range kms {
		buf = appendEntry(buf, km, p.Table[km])
	}
	return buf
}

// appendEntry serializes one (k-mer, entry) pair.
func appendEntry(buf []byte, km kmer.Kmer, e *Entry) []byte {
	buf = wire.U64(buf, uint64(km))
	buf = wire.U32(wire.U32(buf, uint32(e.Count)), uint32(len(e.Occs)))
	for _, o := range e.Occs {
		buf = wire.U32(wire.U32(buf, o.Read), o.PosFlag)
	}
	return buf
}

// readEntry parses one appendEntry record.
func readEntry(r *wire.Reader) (kmer.Kmer, *Entry) {
	km := kmer.Kmer(r.U64())
	e := &Entry{Count: int32(r.U32())}
	e.Occs = make([]Occ, r.Count(uint64(r.U32()), occSize))
	for i := range e.Occs {
		e.Occs[i] = Occ{Read: r.U32(), PosFlag: r.U32()}
	}
	return km, e
}

// DecodePartition parses an Encode blob back into a Partition.
func DecodePartition(b []byte) (*Partition, error) {
	r := wire.NewReader(b)
	p := &Partition{K: int(r.U32()), MaxFreq: int(r.U32())}
	if !kmer.ValidK(p.K) {
		r.Fail(fmt.Errorf("invalid k %d", p.K))
	}
	count := r.Count(r.U64(), entryHeaderSize)
	p.Table = make(map[kmer.Kmer]*Entry, count)
	var prev kmer.Kmer
	for i := 0; i < count; i++ {
		km, e := readEntry(r)
		// Encode writes entries in strictly ascending k-mer order; anything
		// else (a repeat included) is not a blob Encode produced.
		if i > 0 && km <= prev {
			r.Fail(fmt.Errorf("entry %d: k-mer %#x repeats or is out of order", i, uint64(km)))
		}
		p.Table[km], prev = e, km
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
	kms := make([]kmer.Kmer, 0, len(part.Table))
	for km := range part.Table {
		kms = append(kms, km)
	}
	sort.Slice(kms, func(i, j int) bool { return kms[i] < kms[j] })
	for _, km := range kms {
		dst := km.Owner(p)
		send[dst].AppendItem(appendEntry(nil, km, part.Table[km]))
	}
	recv := spmd.AlltoallvPacked(c, send)
	out := &Partition{K: part.K, MaxFreq: part.MaxFreq, Table: make(map[kmer.Kmer]*Entry)}
	for src := 0; src < p; src++ {
		for _, item := range recv[src].Items() {
			r := wire.NewReader(item)
			km, e := readEntry(r)
			if err := r.Finish(); err != nil {
				return nil, fmt.Errorf("dht: reshard from rank %d: %w", src, err)
			}
			if km.Owner(p) != c.Rank() {
				return nil, fmt.Errorf("dht: reshard delivered k-mer %#x to rank %d, owner is %d",
					uint64(km), c.Rank(), km.Owner(p))
			}
			if _, dup := out.Table[km]; dup {
				return nil, fmt.Errorf("dht: reshard received k-mer %#x twice (overlapping segments?)", uint64(km))
			}
			out.Table[km] = e
		}
	}
	return out, nil
}
