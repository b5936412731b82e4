package fastq

import (
	"fmt"

	"dibella/internal/wire"
)

// Shard-segment codec: the checkpoint representation of one rank's owned
// block of the distributed read store. A segment is a contiguous run of
// global read IDs starting at idStart, each record carrying its name and
// sequence. Qualities are deliberately dropped — no pipeline stage
// downstream of loading reads them (the cooperative loader already drops
// them for reshuffled boundary reads), and omitting them keeps segment
// size at sequence bytes.
//
// The format is byte-deterministic for a given record run, so per-rank
// segment digests are stable across runs and transports: idStart and the
// record count as uint32, then per record its name and its sequence as
// wire byte strings.

// EncodeShardSegment serializes a contiguous run of reads with global IDs
// idStart, idStart+1, ...
func EncodeShardSegment(idStart uint32, recs []*Record) []byte {
	n := 8
	for _, rec := range recs {
		n += 8 + len(rec.Name) + len(rec.Seq)
	}
	buf := wire.U32(make([]byte, 0, n), idStart)
	buf = wire.U32(buf, uint32(len(recs)))
	for _, rec := range recs {
		buf = wire.Bytes(wire.Bytes(buf, rec.Name), rec.Seq)
	}
	return buf
}

// DecodeShardSegment parses an EncodeShardSegment blob. Truncated or
// trailing bytes are decode errors: a segment either round-trips exactly
// or is rejected.
func DecodeShardSegment(b []byte) (idStart uint32, recs []*Record, err error) {
	r := wire.NewReader(b)
	idStart = r.U32()
	// A record is at least its two length fields.
	count := r.Count(uint64(r.U32()), 8)
	recs = make([]*Record, 0, count)
	for i := 0; i < count; i++ {
		name := r.String()
		recs = append(recs, &Record{Name: name, Seq: append([]byte(nil), r.Bytes()...)})
	}
	if err := r.Finish(); err != nil {
		return 0, nil, fmt.Errorf("fastq: shard segment: %w", err)
	}
	return idStart, recs, nil
}
