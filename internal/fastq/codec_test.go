package fastq

import (
	"bytes"
	"strings"
	"testing"
)

func TestShardSegmentRoundtrip(t *testing.T) {
	recs := []*Record{
		{Name: "read/1", Seq: []byte("ACGTACGT")},
		{Name: "read/2", Seq: []byte("GG")},
		{Name: "empty", Seq: nil},
	}
	blob := EncodeShardSegment(42, recs)
	idStart, back, err := DecodeShardSegment(blob)
	if err != nil {
		t.Fatal(err)
	}
	if idStart != 42 || len(back) != len(recs) {
		t.Fatalf("idStart=%d n=%d", idStart, len(back))
	}
	for i := range recs {
		if back[i].Name != recs[i].Name || !bytes.Equal(back[i].Seq, recs[i].Seq) {
			t.Errorf("record %d: %q/%q vs %q/%q", i, back[i].Name, back[i].Seq, recs[i].Name, recs[i].Seq)
		}
	}
	// Determinism: two encodes of the same run are byte-identical.
	if !bytes.Equal(blob, EncodeShardSegment(42, recs)) {
		t.Error("encoding is not deterministic")
	}
}

func TestShardSegmentRejectsCorruption(t *testing.T) {
	blob := EncodeShardSegment(0, []*Record{{Name: "a", Seq: []byte("ACGTACGTACGT")}})
	for _, cut := range []int{1, 7, 9, len(blob) - 1} {
		if _, _, err := DecodeShardSegment(blob[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	if _, _, err := DecodeShardSegment(append(append([]byte(nil), blob...), 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, _, err := DecodeShardSegment(nil); err == nil {
		t.Error("empty blob accepted")
	}
	// A header alone declaring 2^32-1 records is a truncation, rejected
	// before the count sizes an allocation (it used to demand 32 GiB).
	for _, blob := range [][]byte{
		{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},
		{0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0}, // 2 declared, room for 1
	} {
		if _, _, err := DecodeShardSegment(blob); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("count beyond the bytes that follow: err = %v", err)
		}
	}
}

// FuzzDecodeShardSegment: arbitrary bytes never panic the decoder, never
// yield more records than bytes, and whatever decodes re-encodes to the
// same bytes.
func FuzzDecodeShardSegment(f *testing.F) {
	f.Add(EncodeShardSegment(7, nil))
	f.Add(EncodeShardSegment(42, []*Record{
		{Name: "read/1", Seq: []byte("ACGTACGT")}, {Name: "", Seq: []byte("GG")}, {Name: "empty"},
	}))
	f.Add([]byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		idStart, recs, err := DecodeShardSegment(b)
		if err != nil {
			return
		}
		if len(recs) > len(b) {
			t.Fatalf("%d records from %d bytes", len(recs), len(b))
		}
		if back := EncodeShardSegment(idStart, recs); !bytes.Equal(back, b) {
			t.Fatalf("re-encoding differs: %x -> %x", b, back)
		}
	})
}

func TestShardSegmentEmpty(t *testing.T) {
	idStart, recs, err := DecodeShardSegment(EncodeShardSegment(7, nil))
	if err != nil || idStart != 7 || len(recs) != 0 {
		t.Errorf("idStart=%d recs=%v err=%v", idStart, recs, err)
	}
}
