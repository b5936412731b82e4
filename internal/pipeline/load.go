// Cooperative input loading: the paper's parallel I/O stage. Instead of
// every rank parsing the whole FASTQ file, each rank parses only its
// record-boundary-aligned byte shard (fastq.LoadShard), the ranks
// allgather the per-read metadata (names and lengths — bytes per read,
// not sequences), and the sequences that fall outside a rank's canonical
// block-distribution range are reshuffled to their owners with one packed
// all-to-all. The resulting sharded stores carry the exact global ID map
// a whole-file load would have produced, so every downstream stage — and
// the PAF output — is byte-identical; only the I/O and resident memory
// drop from O(file) to O(file/P) per rank. Every world loads this way,
// goroutine ranks included. An input the splitter cannot cut (gzip,
// FASTA) is parsed once, by rank 0, and the same reshuffle re-homes it.
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
	"math"
	"strings"
	"time"

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
// fastq.NewReadStore over the whole file. The load runs under the profiler
// labels stage=stage.load and the rank (trace.Do).
func LoadStore(c *spmd.Comm, path string) (store *fastq.ReadStore, err error) {
	trace.Do(traceLoad, c.Rank(), func() { store, err = loadStore(c, path) })
	return store, err
}

func loadStore(c *spmd.Comm, path string) (*fastq.ReadStore, error) {
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
	// Global ID map: IDs follow the rank-order concatenation of the held
	// runs. heldStart[r] is the first global ID rank r holds.
	heldStart := make([]int, p+1)
	myNames, myLens := make([]string, len(held)), make([]int32, len(held))
	for i, rec := range held {
		myNames[i], myLens[i] = rec.Name, int32(rec.Len())
	}
	var names []string
	var lens []int32
	for r, row := range spmd.Allgather(c, encodeReadMeta(myNames, myLens)) {
		rowNames, rowLens, err := decodeReadMeta(row)
		if err != nil {
			return nil, fmt.Errorf("pipeline: read metadata from rank %d: %w", r, err)
		}
		names, lens = append(names, rowNames...), append(lens, rowLens...)
		heldStart[r+1] = heldStart[r] + len(rowLens)
	}
	ranges := fastq.PartitionLens(lens, p)

	// Reshuffle: held-but-not-owned sequences travel to their owners.
	// Receivers know exactly which IDs arrive from whom — the overlap of
	// src's held interval with our owned range, in ID order — so the
	// exchange carries raw sequence bytes, nothing else. Held IDs ascend,
	// so the owner only ever advances over the contiguous ranges.
	send := make([]spmd.PackedBufs, p)
	myHeld := heldStart[rank]
	owner := 0
	for i, rec := range held {
		for myHeld+i >= ranges[owner][1] {
			owner++
		}
		if owner != rank {
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

// encodeReadMeta is one rank's contribution to the global read-ID map, as
// one byte row: the count, then the length and name of each read it holds.
func encodeReadMeta(names []string, lens []int32) []byte {
	row := wire.U32(nil, uint32(len(lens)))
	for i, n := range lens {
		row = wire.Bytes(wire.U32(row, uint32(n)), names[i])
	}
	return row
}

// decodeReadMeta parses an encodeReadMeta row. It either decodes exactly
// or is refused, and refuses a length no read can have.
func decodeReadMeta(row []byte) (names []string, lens []int32, err error) {
	rd := wire.NewReader(row)
	n := rd.Count(uint64(rd.U32()), 8) // a read is at least its two length fields
	names, lens = make([]string, 0, n), make([]int32, 0, n)
	for i := 0; i < n; i++ {
		ln := rd.U32()
		if ln > math.MaxInt32 {
			rd.Fail(fmt.Errorf("read %d: length %d exceeds %d", i, ln, math.MaxInt32))
		}
		lens = append(lens, int32(ln))
		names = append(names, rd.String())
	}
	if err := rd.Finish(); err != nil {
		return nil, nil, err
	}
	return names, lens, nil
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

// DescribeAlignRate is the x-drop kernel's rate as the run measured it: the
// cells of every rank's alignments, then each rank's cells, the local wall
// time its alignment stage spent computing them, and the two's quotient, as
// the least and the most over the ranks.
func DescribeAlignRate(rep *Report) string {
	var cells int64
	cellsLo, cellsHi := int64(math.MaxInt64), int64(0)
	wallLo, wallHi := time.Duration(math.MaxInt64), time.Duration(0)
	rateLo, rateHi := math.Inf(1), 0.0
	for i := range rep.PerRank {
		a := &rep.PerRank[i].Align
		cells += a.Cells
		cellsLo, cellsHi = min(cellsLo, a.Cells), max(cellsHi, a.Cells)
		wallLo, wallHi = min(wallLo, a.LocalWall), max(wallHi, a.LocalWall)
		rate := 0.0
		if a.LocalWall > 0 {
			rate = float64(a.Cells) / 1e6 / a.LocalWall.Seconds()
		}
		rateLo, rateHi = min(rateLo, rate), max(rateHi, rate)
	}
	return fmt.Sprintf("alignment rate: %d cells; a rank: %d-%d cells, %v-%v local wall, %.1f-%.1f Mcells/s",
		cells, cellsLo, cellsHi, wallLo.Round(time.Microsecond), wallHi.Round(time.Microsecond), rateLo, rateHi)
}
