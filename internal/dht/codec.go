package dht

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dibella/internal/kmer"
	"dibella/internal/spmd"
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

// Encode serializes the partition's entries in ascending k-mer order, so
// the encoding (and therefore a segment digest) is deterministic despite
// Go's randomized map iteration.
func (p *Partition) Encode() []byte {
	kms := make([]kmer.Kmer, 0, len(p.Table))
	n := 16
	for km, e := range p.Table {
		kms = append(kms, km)
		n += 16 + 8*len(e.Occs)
	}
	sort.Slice(kms, func(i, j int) bool { return kms[i] < kms[j] })
	buf := make([]byte, 0, n)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.K))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.MaxFreq))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(kms)))
	for _, km := range kms {
		buf = appendEntry(buf, km, p.Table[km])
	}
	return buf
}

// appendEntry serializes one (k-mer, entry) pair.
func appendEntry(buf []byte, km kmer.Kmer, e *Entry) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(km))
	buf = binary.BigEndian.AppendUint32(buf, uint32(e.Count))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Occs)))
	for _, o := range e.Occs {
		buf = binary.BigEndian.AppendUint32(buf, o.Read)
		buf = binary.BigEndian.AppendUint32(buf, o.PosFlag)
	}
	return buf
}

// decodeEntry parses one appendEntry blob prefix, returning the remainder.
func decodeEntry(b []byte) (km kmer.Kmer, e *Entry, rest []byte, err error) {
	if len(b) < 16 {
		return 0, nil, nil, fmt.Errorf("dht: entry header truncated (%d bytes)", len(b))
	}
	km = kmer.Kmer(binary.BigEndian.Uint64(b))
	e = &Entry{Count: int32(binary.BigEndian.Uint32(b[8:]))}
	nOccs := int(binary.BigEndian.Uint32(b[12:]))
	b = b[16:]
	if len(b) < 8*nOccs {
		return 0, nil, nil, fmt.Errorf("dht: entry for k-mer %#x truncated (%d of %d occurrence bytes)",
			uint64(km), len(b), 8*nOccs)
	}
	e.Occs = make([]Occ, nOccs)
	for i := range e.Occs {
		e.Occs[i] = Occ{
			Read:    binary.BigEndian.Uint32(b[8*i:]),
			PosFlag: binary.BigEndian.Uint32(b[8*i+4:]),
		}
	}
	return km, e, b[8*nOccs:], nil
}

// DecodePartition parses an Encode blob back into a Partition.
func DecodePartition(b []byte) (*Partition, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("dht: partition segment header truncated (%d bytes)", len(b))
	}
	p := &Partition{
		K:       int(binary.BigEndian.Uint32(b)),
		MaxFreq: int(binary.BigEndian.Uint32(b[4:])),
	}
	count := binary.BigEndian.Uint64(b[8:])
	b = b[16:]
	if !kmer.ValidK(p.K) {
		return nil, fmt.Errorf("dht: partition segment has invalid k %d", p.K)
	}
	// An entry is at least its 16-byte header; a larger count than the
	// bytes can hold is a truncation, caught before it sizes an allocation.
	if count > uint64(len(b))/16 {
		return nil, fmt.Errorf("dht: partition segment truncated (%d entries declared, %d bytes follow)", count, len(b))
	}
	p.Table = make(map[kmer.Kmer]*Entry, count)
	var prev kmer.Kmer
	for i := uint64(0); i < count; i++ {
		km, e, rest, err := decodeEntry(b)
		if err != nil {
			return nil, fmt.Errorf("dht: partition segment entry %d: %w", i, err)
		}
		// Encode writes entries in strictly ascending k-mer order; anything
		// else (a repeat included) is not a blob Encode produced.
		if i > 0 && km <= prev {
			return nil, fmt.Errorf("dht: partition segment entry %d: k-mer %#x repeats or is out of order", i, uint64(km))
		}
		p.Table[km], prev = e, km
		b = rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("dht: partition segment has %d trailing bytes", len(b))
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
			km, e, rest, err := decodeEntry(item)
			if err != nil {
				return nil, fmt.Errorf("dht: reshard from rank %d: %w", src, err)
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("dht: reshard from rank %d: %d trailing bytes", src, len(rest))
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
