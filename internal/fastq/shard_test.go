package fastq

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func mustCreate(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// genRecords builds a deterministic synthetic read set and a random quality
// line for each read ('@' among the characters), for writeRaw.
func genRecords(t *testing.T, n, meanLen int, seed int64) ([]*Record, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs, quals := make([]*Record, n), make([][]byte, n)
	for i := range recs {
		ln := meanLen/2 + rng.Intn(meanLen)
		seq := make([]byte, ln)
		qual := make([]byte, ln)
		for j := range seq {
			seq[j] = "ACGT"[rng.Intn(4)]
			qual[j] = byte('!' + rng.Intn(60))
		}
		recs[i] = &Record{Name: "read" + string(rune('A'+i%26)) + "-" + string(rune('0'+i%10)), Seq: seq}
		quals[i] = qual
	}
	return recs, quals
}

// TestLoadShardConcatenation: the rank-order concatenation of every
// shard must be exactly the whole file's record sequence, and the
// per-shard parsed-byte counters must tile the file.
func TestLoadShardConcatenation(t *testing.T) {
	recs, quals := genRecords(t, 57, 300, 7)
	dir := t.TempDir()
	path := filepath.Join(dir, "reads.fastq")
	writeRaw(t, path, recs, quals)
	whole, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 9, 64} {
		var got []*Record
		var parsedTotal int64
		for r := 0; r < p; r++ {
			shard, parsed, err := LoadShard(path, r, p)
			if err != nil {
				t.Fatalf("p=%d rank %d: %v", p, r, err)
			}
			if parsed < 0 {
				t.Fatalf("p=%d rank %d: negative parsed bytes %d", p, r, parsed)
			}
			parsedTotal += parsed
			got = append(got, shard...)
		}
		if len(got) != len(whole) {
			t.Fatalf("p=%d: shards reassemble to %d records, want %d", p, len(got), len(whole))
		}
		for i := range got {
			if got[i].Name != whole[i].Name || !bytes.Equal(got[i].Seq, whole[i].Seq) {
				t.Fatalf("p=%d: record %d differs after sharded load", p, i)
			}
		}
		if fi := fileSize(t, path); parsedTotal != fi {
			t.Errorf("p=%d: shards parsed %d bytes, file is %d", p, parsedTotal, fi)
		}
	}
}

// TestShardOffsetsMatchSplitOffsets: every rank's independently computed
// boundary pair must be exactly the slice SplitOffsets would hand it —
// the property that lets P ranks scan O(P) boundaries in aggregate and
// still tile the file.
func TestShardOffsetsMatchSplitOffsets(t *testing.T) {
	recs, quals := genRecords(t, 43, 350, 17)
	dir := t.TempDir()
	path := filepath.Join(dir, "reads.fastq")
	writeRaw(t, path, recs, quals)
	for _, p := range []int{1, 2, 5, 16, 128} {
		offs, err := SplitOffsets(path, p)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < p; r++ {
			start, end, err := ShardOffsets(path, r, p)
			if err != nil {
				t.Fatalf("p=%d rank %d: %v", p, r, err)
			}
			if start != offs[r] || end != offs[r+1] {
				t.Errorf("p=%d rank %d: ShardOffsets [%d,%d), SplitOffsets [%d,%d)",
					p, r, start, end, offs[r], offs[r+1])
			}
		}
	}
}

// TestLoadShardUltraLongRead drives the cooperative loader over a file
// whose middle read is 1.5x the boundary-scan window, so shard-boundary
// guesses land inside it and the grown-window scan (the PR 2 fix) decides
// the split. The shards must still tile the file exactly.
func TestLoadShardUltraLongRead(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var quals [][]byte
	mk := func(name string, n int) *Record {
		seq := make([]byte, n)
		qual := make([]byte, n)
		for j := range seq {
			seq[j] = "ACGT"[rng.Intn(4)]
			qual[j] = byte('!' + rng.Intn(60))
		}
		qual[0] = '@' // keep the header/quality ambiguity in play
		quals = append(quals, qual)
		return &Record{Name: name, Seq: seq}
	}
	recs := []*Record{
		mk("head", 1500),
		mk("ultra", scanWindow*3/2),
		mk("tail", 1500),
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ultra.fastq")
	writeRaw(t, path, recs, quals)
	for _, p := range []int{2, 3, 4} {
		var got []*Record
		var parsedTotal int64
		for r := 0; r < p; r++ {
			shard, parsed, err := LoadShard(path, r, p)
			if err != nil {
				t.Fatalf("p=%d rank %d: %v", p, r, err)
			}
			parsedTotal += parsed
			got = append(got, shard...)
		}
		if len(got) != len(recs) {
			t.Fatalf("p=%d: reassembled %d records, want %d", p, len(got), len(recs))
		}
		for i := range got {
			if got[i].Name != recs[i].Name || !bytes.Equal(got[i].Seq, recs[i].Seq) {
				t.Fatalf("p=%d: record %d mismatch", p, i)
			}
		}
		if fi := fileSize(t, path); parsedTotal != fi {
			t.Errorf("p=%d: shards parsed %d bytes, file is %d", p, parsedTotal, fi)
		}
	}
}

// TestLoadShardFallbacks: gzip and FASTA inputs cannot be byte-range
// split, so rank 0 parses the whole file, holds every record and counts
// the file size; every other rank holds none and counts 0. The world
// parses the file once, not once per rank.
func TestLoadShardFallbacks(t *testing.T) {
	recs, _ := genRecords(t, 11, 200, 3)
	dir := t.TempDir()

	gz := filepath.Join(dir, "reads.fastq.gz")
	if err := WriteFile(gz, recs); err != nil {
		t.Fatal(err)
	}
	fasta := filepath.Join(dir, "reads.fasta")
	f := mustCreate(t, fasta)
	if err := WriteFasta(f, recs); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, path := range []string{gz, fasta} {
		const p = 3
		for r := 0; r < p; r++ {
			shard, parsed, err := LoadShard(path, r, p)
			if err != nil {
				t.Fatalf("%s rank %d: %v", path, r, err)
			}
			if r != 0 {
				if len(shard) != 0 || parsed != 0 {
					t.Errorf("%s rank %d: holds %d records and counts %d bytes, want none", path, r, len(shard), parsed)
				}
				continue
			}
			if parsed != fileSize(t, path) {
				t.Errorf("%s rank 0: parsed %d bytes, want whole file %d", path, parsed, fileSize(t, path))
			}
			if len(shard) != len(recs) {
				t.Fatalf("%s rank 0: holds %d records, want %d", path, len(shard), len(recs))
			}
			for i := range shard {
				if shard[i].Name != recs[i].Name || !bytes.Equal(shard[i].Seq, recs[i].Seq) {
					t.Fatalf("%s: record %d mismatch", path, i)
				}
			}
		}
	}

	if _, _, err := LoadShard(filepath.Join(dir, "reads.fastq"), 3, 3); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, _, err := LoadShard(filepath.Join(dir, "nonexistent.fastq"), 0, 2); err == nil {
		t.Error("missing file accepted")
	}
}

// TestShardedReadStore checks an owned-range store end to end: global
// metadata answers for every ID, sequences only inside the owned range.
func TestShardedReadStore(t *testing.T) {
	recs, _ := genRecords(t, 29, 250, 13)
	const p = 4
	whole := NewReadStore(recs, p)

	lens := make([]int32, len(recs))
	names := make([]string, len(recs))
	for i, r := range recs {
		lens[i] = int32(r.Len())
		names[i] = r.Name
	}
	ranges := PartitionLens(lens, p)
	for i := range ranges {
		if ranges[i] != whole.Ranges[i] {
			t.Fatalf("PartitionLens diverges from NewReadStore at rank %d: %v vs %v",
				i, ranges[i], whole.Ranges[i])
		}
	}

	const rank = 2
	start, end := ranges[rank][0], ranges[rank][1]
	s, err := NewShardedReadStore(rank, ranges, names, lens, recs[start:end], 1234)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumReads() != len(recs) || s.ParsedBytes != 1234 {
		t.Errorf("reads=%d parsed=%d", s.NumReads(), s.ParsedBytes)
	}
	for id := 0; id < len(recs); id++ {
		if s.Name(uint32(id)) != recs[id].Name || s.Len(uint32(id)) != recs[id].Len() {
			t.Fatalf("global metadata wrong for id %d", id)
		}
		if s.Owner(uint32(id)) != whole.Owner(uint32(id)) {
			t.Fatalf("owner of %d differs from the whole store's", id)
		}
	}
	if !bytes.Equal(s.Seq(uint32(start)), recs[start].Seq) {
		t.Error("owned sequence differs")
	}
	if s.Stats() != Summarize(recs) {
		t.Errorf("owned-range stats %v, whole %v", s.Stats(), Summarize(recs))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-resident Seq access did not panic")
			}
		}()
		s.Seq(0) // rank 2 never owns ID 0 with 29 reads over 4 ranks
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("foreign view on an owned-range store did not panic")
			}
		}()
		s.View(0)
	}()

	// Constructor validation.
	if _, err := NewShardedReadStore(9, ranges, names, lens, nil, 0); err == nil {
		t.Error("bad rank accepted")
	}
	if _, err := NewShardedReadStore(rank, ranges, names[:3], lens, recs[start:end], 0); err == nil {
		t.Error("short names accepted")
	}
	if _, err := NewShardedReadStore(rank, ranges, names, lens, recs[start:end-1], 0); err == nil {
		t.Error("short owned slice accepted")
	}
	bad := append([]*Record(nil), recs[start:end]...)
	bad[0] = &Record{Name: bad[0].Name, Seq: []byte("AC")}
	if _, err := NewShardedReadStore(rank, ranges, names, lens, bad, 0); err == nil {
		t.Error("length-mismatched record accepted")
	}
}
