// Cooperative input loading: the paper's parallel I/O stage. Instead of
// every rank parsing the whole FASTQ file, each rank parses only its
// record-boundary-aligned byte shard (fastq.LoadShard), the ranks
// allgather the per-read metadata (names and lengths — bytes per read,
// not sequences), and the sequences that fall outside a rank's canonical
// block-distribution range are reshuffled to their owners with one packed
// all-to-all. The resulting sharded stores carry the exact global ID map
// a whole-file load would have produced, so every downstream stage — and
// the PAF output — is byte-identical; only the I/O and resident memory
// drop from O(file) to O(file/P) per rank.
//
// The assembly half (metadata allgather + boundary reshuffle) is shared
// with the checkpoint loader: a resume hands each rank the contiguous
// record runs of its assigned snapshot segments, which assembleStore
// re-homes into the canonical distribution of the (possibly different)
// resumed world size exactly as it re-homes file-shard boundaries.
package pipeline

import (
	"errors"
	"fmt"
	"strings"

	"dibella/internal/fastq"
	"dibella/internal/spmd"
	"dibella/internal/trace"
	"dibella/internal/wire"
)

// agreeError is the collective error-agreement idiom: every rank
// contributes its local failure (or ""), and if any rank failed, every
// rank unwinds with the same error — a survivor would otherwise hang in
// the next collective.
func agreeError(c *spmd.Comm, op string, err error) error {
	status := ""
	if err != nil {
		status = fmt.Sprintf("rank %d: %v", c.Rank(), err)
	}
	for _, s := range spmd.Allgather(c, []byte(status)) {
		if len(s) != 0 {
			return errors.New("pipeline: " + op + ": " + string(s))
		}
	}
	return nil
}

// LoadStore cooperatively loads path across c's world and returns this
// rank's sharded ReadStore. All ranks must call it collectively with the
// same path; a load failure on any rank fails every rank (no partial
// worlds). The store's block distribution is identical to
// fastq.NewReadStore over the whole file.
func LoadStore(c *spmd.Comm, path string) (*fastq.ReadStore, error) {
	rec := trace.Rec(c.Rank())
	rec.Begin(traceLoad, c.Now())
	shard, parsed, err := fastq.LoadShard(path, c.Rank(), c.Size())

	// Collective error agreement: if any rank failed to read its shard
	// (missing file on one host, permissions, corrupt range), every rank
	// must unwind.
	if err := agreeError(c, "cooperative load of "+path, err); err != nil {
		return nil, err
	}
	store, err := assembleStore(c, shard, parsed)
	if err == nil {
		rec.End(traceLoad, c.Now(), parsed)
	}
	return store, err
}

// assembleStore builds this rank's endpoint of the canonical sharded
// store from a contiguous run of parsed records. The runs of all ranks,
// concatenated in rank order, must be exactly the global record sequence
// (global IDs follow that order); empty runs are fine. Sequences that
// fall outside the rank's canonical byte-balanced range travel to their
// owners in one packed all-to-all.
func assembleStore(c *spmd.Comm, held []*fastq.Record, parsed int64) (*fastq.ReadStore, error) {
	p, rank := c.Size(), c.Rank()
	// One rank's contribution to the global read-ID map, as one byte row:
	// the count, then the length and name of each record it holds.
	meta := wire.U32(nil, uint32(len(held)))
	for _, rec := range held {
		meta = wire.Bytes(wire.U32(meta, uint32(rec.Len())), rec.Name)
	}

	// Global ID map: IDs follow the rank-order concatenation of the held
	// runs. heldStart[r] is the first global ID rank r holds.
	heldStart := make([]int, p+1)
	var names []string
	var lens []int32
	for r, row := range spmd.Allgather(c, meta) {
		rd := wire.NewReader(row)
		n := rd.Count(uint64(rd.U32()), 8)
		for i := 0; i < n; i++ {
			lens = append(lens, int32(rd.U32()))
			names = append(names, rd.String())
		}
		if err := rd.Finish(); err != nil {
			return nil, fmt.Errorf("pipeline: read metadata from rank %d: %w", r, err)
		}
		heldStart[r+1] = heldStart[r] + n
	}
	ranges := fastq.PartitionLens(lens, p)

	// Reshuffle: held-but-not-owned sequences travel to their owners.
	// Receivers know exactly which IDs arrive from whom — the overlap of
	// src's held interval with our owned range, in ID order — so the
	// exchange carries raw sequence bytes, nothing else.
	send := make([]spmd.PackedBufs, p)
	myHeld := heldStart[rank]
	for i, rec := range held {
		gid := myHeld + i
		if owner := ownerOf(ranges, gid); owner != rank {
			send[owner].AppendItem(rec.Seq)
		}
	}
	recv := spmd.AlltoallvPacked(c, send)

	start, end := ranges[rank][0], ranges[rank][1]
	owned := make([]*fastq.Record, 0, end-start)
	items := make([][][]byte, p)
	cursor := make([]int, p)
	src := 0
	for gid := start; gid < end; gid++ {
		for gid >= heldStart[src+1] {
			src++
		}
		if src == rank {
			owned = append(owned, held[gid-myHeld])
			continue
		}
		if items[src] == nil {
			items[src] = recv[src].Items()
		}
		if cursor[src] >= len(items[src]) {
			return nil, fmt.Errorf("pipeline: rank %d sent %d boundary reads, rank %d expected more (ID %d)",
				src, len(items[src]), rank, gid)
		}
		seq := items[src][cursor[src]]
		cursor[src]++
		// Qualities are not reshuffled: no stage downstream of loading
		// reads them, and dropping them keeps the exchange at sequence
		// bytes, the paper's bound.
		owned = append(owned, &fastq.Record{Name: names[gid], Seq: seq})
	}
	for s := 0; s < p; s++ {
		if s != rank && cursor[s] != len(recv[s].Lens) {
			return nil, fmt.Errorf("pipeline: rank %d sent %d boundary reads, rank %d consumed %d",
				s, len(recv[s].Lens), rank, cursor[s])
		}
	}
	return fastq.NewShardedReadStore(rank, ranges, names, lens, owned, parsed)
}

// ownerOf returns the rank whose contiguous range holds gid.
func ownerOf(ranges [][2]int, gid int) int {
	lo, hi := 0, len(ranges)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if gid >= ranges[mid][1] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// DescribeLoad renders the per-rank parsed-byte counters of a gathered
// report ("12.3kB 12.1kB ..."), the observable that distinguishes a
// cooperative sharded load from P whole-file parses.
func DescribeLoad(rep *Report) string {
	var b strings.Builder
	b.WriteString("input bytes parsed per rank:")
	for i := range rep.PerRank {
		fmt.Fprintf(&b, " %d", rep.PerRank[i].InputBytes)
	}
	return b.String()
}
