package fastq

import (
	"encoding/binary"
	"fmt"
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
// segment digests are stable across runs and transports. All integers are
// big-endian, matching the spmd wire format.

// EncodeShardSegment serializes a contiguous run of reads with global IDs
// idStart, idStart+1, ...
func EncodeShardSegment(idStart uint32, recs []*Record) []byte {
	n := 8
	for _, rec := range recs {
		n += 2 + len(rec.Name) + 4 + len(rec.Seq)
	}
	buf := make([]byte, 0, n)
	buf = binary.BigEndian.AppendUint32(buf, idStart)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(recs)))
	for _, rec := range recs {
		if len(rec.Name) > 0xFFFF {
			// Read names are tokens (first whitespace-delimited header
			// field); 64 KiB is far beyond any real instrument's IDs.
			panic(fmt.Sprintf("fastq: read name %d bytes exceeds segment limit", len(rec.Name)))
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(rec.Name)))
		buf = append(buf, rec.Name...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec.Seq)))
		buf = append(buf, rec.Seq...)
	}
	return buf
}

// DecodeShardSegment parses an EncodeShardSegment blob. Truncated or
// trailing bytes are decode errors: a segment either round-trips exactly
// or is rejected.
func DecodeShardSegment(b []byte) (idStart uint32, recs []*Record, err error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("fastq: shard segment header truncated (%d bytes)", len(b))
	}
	idStart = binary.BigEndian.Uint32(b)
	count := binary.BigEndian.Uint32(b[4:])
	b = b[8:]
	// A record is at least its two length fields; a larger count than the
	// bytes can hold is a truncation, caught before it sizes an allocation.
	if uint64(count) > uint64(len(b))/6 {
		return 0, nil, fmt.Errorf("fastq: shard segment truncated (%d records declared, %d bytes follow)", count, len(b))
	}
	recs = make([]*Record, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 2 {
			return 0, nil, fmt.Errorf("fastq: shard segment truncated at record %d name length", i)
		}
		nameLen := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < nameLen+4 {
			return 0, nil, fmt.Errorf("fastq: shard segment truncated at record %d name", i)
		}
		name := string(b[:nameLen])
		b = b[nameLen:]
		seqLen := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if len(b) < seqLen {
			return 0, nil, fmt.Errorf("fastq: shard segment truncated at record %d sequence (%d of %d bytes)",
				i, len(b), seqLen)
		}
		seq := append([]byte(nil), b[:seqLen]...)
		b = b[seqLen:]
		recs = append(recs, &Record{Name: name, Seq: seq})
	}
	if len(b) != 0 {
		return 0, nil, fmt.Errorf("fastq: shard segment has %d trailing bytes", len(b))
	}
	return idStart, recs, nil
}
