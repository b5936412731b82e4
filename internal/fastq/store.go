package fastq

import "fmt"

// ReadStore holds a read set with global identifiers and the block
// distribution map used across the pipeline: read IDs are assigned in file
// order, and rank r owns the contiguous ID range Ranges[r].
//
// A store has one layout: the global per-read names and lengths, which
// answer for every ID on every rank (all the overlap placement heuristics
// and PAF output need), plus one resident run of records [first,
// first+len). NewReadStore's run covers every read, so goroutine ranks can
// share it; a cooperatively loaded store (NewShardedReadStore) holds its
// rank's owned range only. Sequence access outside the resident run is an
// ownership-protocol violation and panics: remote sequences travel
// through the alignment stage's replica exchange, whose Replica storage is
// kept separate so owned reads are never duplicated.
type ReadStore struct {
	Ranges [][2]int // per-rank [start,end) ID ranges

	// ParsedBytes counts the input bytes this process parsed to build its
	// part of the store — the per-rank cooperative-I/O counter surfaced in
	// pipeline reports. NewReadStore counts its total sequence bytes.
	ParsedBytes int64

	names []string  // global read names by ID
	lens  []int32   // global read lengths by ID
	first int       // global ID of recs[0]
	recs  []*Record // the resident run
}

// NewReadStore block-distributes recs over p ranks balanced by sequence
// bytes (the paper's layout) and assigns global IDs in file order. Every
// record is resident.
func NewReadStore(recs []*Record, p int) *ReadStore {
	names := make([]string, len(recs))
	lens := make([]int32, len(recs))
	var bases int64
	for i, r := range recs {
		names[i], lens[i] = r.Name, int32(r.Len())
		bases += int64(r.Len())
	}
	return &ReadStore{Ranges: PartitionLens(lens, p), ParsedBytes: bases,
		names: names, lens: lens, recs: recs}
}

// NewShardedReadStore assembles one rank's endpoint of a distributed
// store: the global ID map (ranges, names, lengths — identical on every
// rank) plus the records of the owned range only. parsedBytes is the
// input bytes this process parsed during cooperative loading.
func NewShardedReadStore(rank int, ranges [][2]int, names []string, lens []int32,
	owned []*Record, parsedBytes int64) (*ReadStore, error) {

	if rank < 0 || rank >= len(ranges) {
		return nil, fmt.Errorf("fastq: rank %d outside the %d-range distribution", rank, len(ranges))
	}
	total := ranges[len(ranges)-1][1]
	if len(names) != total || len(lens) != total {
		return nil, fmt.Errorf("fastq: global metadata covers %d names / %d lengths, distribution has %d reads",
			len(names), len(lens), total)
	}
	start, end := ranges[rank][0], ranges[rank][1]
	if len(owned) != end-start {
		return nil, fmt.Errorf("fastq: rank %d owns IDs [%d,%d) but holds %d records", rank, start, end, len(owned))
	}
	for i, rec := range owned {
		if rec.Len() != int(lens[start+i]) {
			return nil, fmt.Errorf("fastq: read %d is %d bases locally but %d in the global map",
				start+i, rec.Len(), lens[start+i])
		}
	}
	return &ReadStore{Ranges: ranges, ParsedBytes: parsedBytes,
		names: names, lens: lens, first: start, recs: owned}, nil
}

// NumReads returns the number of reads in the (global) set.
func (s *ReadStore) NumReads() int { return len(s.lens) }

// Owner returns the rank owning a read ID under the block distribution.
func (s *ReadStore) Owner(id uint32) int {
	// Binary search over the P range boundaries.
	lo, hi := 0, len(s.Ranges)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if int(id) >= s.Ranges[mid][1] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// LocalIDs returns the [start,end) global ID range owned by rank.
func (s *ReadStore) LocalIDs(rank int) (start, end uint32) {
	r := s.Ranges[rank]
	return uint32(r[0]), uint32(r[1])
}

// Get returns the record for a global read ID, which must be resident.
func (s *ReadStore) Get(id uint32) *Record {
	i := int(id) - s.first
	if i < 0 || i >= len(s.recs) {
		panic(fmt.Sprintf("fastq: read %d is not resident (this store holds [%d,%d) of %d reads)",
			id, s.first, s.first+len(s.recs), len(s.lens)))
	}
	return s.recs[i]
}

// Seq returns the sequence for a global read ID.
func (s *ReadStore) Seq(id uint32) []byte { return s.Get(id).Seq }

// Len returns the length of a read. Unlike Seq it is valid for every
// global ID: a cooperative load gathers the global length vector (4 bytes
// per read, as the paper's MPI startup would).
func (s *ReadStore) Len(id uint32) int { return int(s.lens[id]) }

// Name returns the name of a read; like Len it is globally valid.
func (s *ReadStore) Name(id uint32) string { return s.names[id] }

// Stats summarizes the global read set.
func (s *ReadStore) Stats() Stats {
	st := Stats{}
	for i, n := range s.lens {
		st.Reads++
		st.TotalBases += int64(n)
		if i == 0 || int(n) < st.MinLen {
			st.MinLen = int(n)
		}
		if int(n) > st.MaxLen {
			st.MaxLen = int(n)
		}
	}
	return st
}

// LocalView is one rank's working set: its owned ID range plus any replicas
// fetched for alignment.
type LocalView struct {
	store    *ReadStore
	rank     int
	start    uint32
	end      uint32
	replicas map[uint32][]byte
}

// View returns rank's local view of the store; rank's owned range must be
// resident.
func (s *ReadStore) View(rank int) *LocalView {
	start, end := s.LocalIDs(rank)
	if int(start) < s.first || int(end) > s.first+len(s.recs) {
		panic(fmt.Sprintf("fastq: rank %d's view needs [%d,%d), this store holds [%d,%d)",
			rank, start, end, s.first, s.first+len(s.recs)))
	}
	return &LocalView{store: s, rank: rank, start: start, end: end,
		replicas: make(map[uint32][]byte)}
}

// Owns reports whether the view's rank owns the read.
func (v *LocalView) Owns(id uint32) bool { return id >= v.start && id < v.end }

// Seq returns the sequence for id if it is local or replicated, else nil.
func (v *LocalView) Seq(id uint32) []byte {
	if v.Owns(id) {
		return v.store.Seq(id)
	}
	return v.replicas[id]
}

// AddReplica stores a fetched copy of a remote read.
func (v *LocalView) AddReplica(id uint32, seq []byte) { v.replicas[id] = seq }

// OwnerOf returns the rank owning a read ID.
func (v *LocalView) OwnerOf(id uint32) int { return v.store.Owner(id) }

// OwnedSeq returns the sequence of a read this rank owns; it panics if the
// read is remote (an ownership-protocol violation).
func (v *LocalView) OwnedSeq(id uint32) []byte {
	if !v.Owns(id) {
		panic(fmt.Sprintf("fastq: rank %d does not own read %d", v.rank, id))
	}
	return v.store.Seq(id)
}

// ReplicaCount returns the number of replicated reads held.
func (v *LocalView) ReplicaCount() int { return len(v.replicas) }

// ReplicaBytes returns the memory consumed by replicas, the quantity the
// paper's alignment-stage communication analysis bounds.
func (v *LocalView) ReplicaBytes() int {
	n := 0
	for _, s := range v.replicas {
		n += len(s)
	}
	return n
}

// LocalIDRange returns the owned [start, end) range.
func (v *LocalView) LocalIDRange() (uint32, uint32) { return v.start, v.end }
