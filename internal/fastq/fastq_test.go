package fastq

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

const sampleFastq = "@r0 desc\nACGT\n+\n!!!!\n@r1\nGGTTAA\n+\n@@@@@@\n"

// rawFastq lays records out as FASTQ with the quality lines given, one per
// record. Write gives every base the constant 'I'; the boundary tests need
// quality lines that open with '@', the header/quality ambiguity the
// splitter has to resolve.
func rawFastq(recs []*Record, quals [][]byte) []byte {
	var b bytes.Buffer
	for i, rec := range recs {
		fmt.Fprintf(&b, "@%s\n%s\n+\n%s\n", rec.Name, rec.Seq, quals[i])
	}
	return b.Bytes()
}

// writeRaw writes rawFastq(recs, quals) to path.
func writeRaw(t *testing.T, path string, recs []*Record, quals [][]byte) {
	t.Helper()
	if err := os.WriteFile(path, rawFastq(recs, quals), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReadFastq(t *testing.T) {
	recs, err := ReadAll(strings.NewReader(sampleFastq))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Name != "r0" || string(recs[0].Seq) != "ACGT" {
		t.Errorf("record 0 mismatch: %+v", recs[0])
	}
	if recs[1].Name != "r1" || string(recs[1].Seq) != "GGTTAA" {
		t.Errorf("record 1 mismatch: %+v", recs[1])
	}
}

func TestReadFasta(t *testing.T) {
	in := ">r0 some description\nACGT\nACGT\n>r1\nTTTT\n"
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if string(recs[0].Seq) != "ACGTACGT" {
		t.Errorf("multi-line FASTA seq = %q", recs[0].Seq)
	}
	if recs[0].Name != "r0" {
		t.Errorf("name = %q", recs[0].Name)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"@r0\nACGT\nX\n!!!!\n",   // bad separator
		"@r0\nACGT\n+\n!!!\n",    // quality length mismatch
		"garbage\nACGT\n+\n!!\n", // bad marker
	}
	for _, in := range cases {
		if _, err := ReadAll(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	recs, err := ReadAll(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("got %d records from empty input", len(recs))
	}
}

func TestCRLFHandling(t *testing.T) {
	in := "@r0\r\nACGT\r\n+\r\n!!!!\r\n"
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if string(recs[0].Seq) != "ACGT" {
		t.Errorf("CRLF seq = %q", recs[0].Seq)
	}
}

// Blank lines before the first record, between records and after the last
// are not part of any record: the reader skips them, LF or CRLF, on the
// whole-file path and on a byte range alike. One inside a record still
// breaks it.
func TestBlankLinesBetweenRecords(t *testing.T) {
	want := []*Record{
		{Name: "r0", Seq: []byte("ACGT")},
		{Name: "r1", Seq: []byte("GG")},
	}
	for _, tc := range []struct{ name, in string }{
		{"none", "@r0\nACGT\n+\nIIII\n@r1\nGG\n+\n@!\n"},
		{"trailing", "@r0\nACGT\n+\nIIII\n@r1\nGG\n+\n@!\n\n"},
		{"several trailing", "@r0\nACGT\n+\nIIII\n@r1\nGG\n+\n@!\n\n\n\n"},
		{"leading", "\n\n@r0\nACGT\n+\nIIII\n@r1\nGG\n+\n@!\n"},
		{"inner", "@r0\nACGT\n+\nIIII\n\n@r1\nGG\n+\n@!\n"},
		{"everywhere", "\n@r0\nACGT\n+\nIIII\n\n\n@r1\nGG\n+\n@!\n\n"},
		{"CRLF", "\r\n@r0\r\nACGT\r\n+\r\nIIII\r\n\r\n@r1\r\nGG\r\n+\r\n@!\r\n\r\n"},
		{"no final newline", "@r0\nACGT\n+\nIIII\n\n@r1\nGG\n+\n@!"},
	} {
		check := func(path string, got []*Record, err error) {
			t.Helper()
			if err != nil {
				t.Errorf("%s, %s: %v", tc.name, path, err)
				return
			}
			if len(got) != len(want) {
				t.Errorf("%s, %s: %d records, want %d", tc.name, path, len(got), len(want))
				return
			}
			for i := range want {
				if got[i].Name != want[i].Name || !bytes.Equal(got[i].Seq, want[i].Seq) {
					t.Errorf("%s, %s: record %d = %+v, want %+v", tc.name, path, i, got[i], want[i])
				}
			}
		}
		got, err := ReadAll(strings.NewReader(tc.in))
		check("ReadAll", got, err)
		path := filepath.Join(t.TempDir(), "reads.fastq")
		if err := os.WriteFile(path, []byte(tc.in), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err = ReadRange(path, 0, int64(len(tc.in)))
		check("ReadRange", got, err)
		for _, p := range []int{1, 2, 3} {
			got = nil
			for rank := 0; rank < p && err == nil; rank++ {
				var shard []*Record
				shard, _, err = LoadShard(path, rank, p)
				got = append(got, shard...)
			}
			check(fmt.Sprintf("LoadShard over %d ranks", p), got, err)
		}
	}
	for _, in := range []string{
		"@r0\n\nACGT\n+\nIIII\n", // the blank line is the sequence, ACGT no separator
		"@r0\nACGT\n\n+\nIIII\n",
		"@r0\nACGT\n+\n\nIIII\n",
	} {
		if recs, err := ReadAll(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: parsed to %d records, want an error", in, len(recs))
		}
	}
}

// Write gives every base the constant quality 'I', and what it writes
// parses back to the same names and bases.
func TestWriteRoundTrip(t *testing.T) {
	recs := []*Record{
		{Name: "a", Seq: []byte("ACGT")},
		{Name: "b", Seq: []byte("TT")},
		{Name: "c", Seq: []byte("GATTACA")},
	}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if want := "@a\nACGT\n+\nIIII\n@b\nTT\n+\nII\n@c\nGATTACA\n+\nIIIIIII\n"; buf.String() != want {
		t.Errorf("Write laid out %q, want %q", buf.String(), want)
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("roundtrip: %d records, want %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i].Name != recs[i].Name || !bytes.Equal(back[i].Seq, recs[i].Seq) {
			t.Errorf("roundtrip record %d: %+v, want %+v", i, back[i], recs[i])
		}
	}
}

func TestWriteFasta(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFasta(&buf, []*Record{{Name: "x", Seq: []byte("ACGT")}}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != ">x\nACGT\n" {
		t.Errorf("fasta output = %q", got)
	}
}

// Property: a store's byte-balanced ranges cover all records exactly once,
// in order.
func TestPartitionByBytesCoverage(t *testing.T) {
	f := func(seed int64, nRaw, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 64
		p := int(pRaw)%8 + 1
		recs := make([]*Record, n)
		for i := range recs {
			recs[i] = &Record{Seq: make([]byte, rng.Intn(500)+1)}
		}
		ranges := NewReadStore(recs, p).Ranges
		if len(ranges) != p {
			return false
		}
		prev := 0
		for _, r := range ranges {
			if r[0] != prev || r[1] < r[0] {
				return false
			}
			prev = r[1]
		}
		return prev == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPartitionByBytesBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := make([]*Record, 1000)
	total := 0
	for i := range recs {
		n := rng.Intn(9000) + 1000
		recs[i] = &Record{Seq: make([]byte, n)}
		total += n
	}
	const p = 8
	ranges := NewReadStore(recs, p).Ranges
	for r, rg := range ranges {
		sz := 0
		for i := rg[0]; i < rg[1]; i++ {
			sz += recs[i].Len()
		}
		frac := float64(sz) / float64(total)
		if frac < 0.10 || frac > 0.15 { // ideal 0.125
			t.Errorf("rank %d holds %.3f of bytes", r, frac)
		}
	}
}

func TestSplitOffsetsAndReadRange(t *testing.T) {
	// Build a file whose quality lines contain '@' to stress boundary
	// detection.
	rng := rand.New(rand.NewSource(11))
	var recs []*Record
	var quals [][]byte
	for i := 0; i < 200; i++ {
		n := rng.Intn(200) + 50
		seq := make([]byte, n)
		qual := make([]byte, n)
		for j := range seq {
			seq[j] = "ACGT"[rng.Intn(4)]
			qual[j] = byte('!' + rng.Intn(60)) // includes '@'
		}
		qual[0] = '@' // adversarial: quality line starts with '@'
		recs = append(recs, &Record{Name: "r" + strings.Repeat("x", i%5), Seq: seq})
		quals = append(quals, qual)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "reads.fastq")
	writeRaw(t, path, recs, quals)

	for _, p := range []int{1, 2, 3, 7} {
		offsets, err := SplitOffsets(path, p)
		if err != nil {
			t.Fatal(err)
		}
		var got []*Record
		for i := 0; i < p; i++ {
			part, err := ReadRange(path, offsets[i], offsets[i+1])
			if err != nil {
				t.Fatalf("p=%d shard %d: %v", p, i, err)
			}
			got = append(got, part...)
		}
		if len(got) != len(recs) {
			t.Fatalf("p=%d: reassembled %d records, want %d", p, len(got), len(recs))
		}
		for i := range got {
			if !bytes.Equal(got[i].Seq, recs[i].Seq) {
				t.Fatalf("p=%d: record %d sequence mismatch", p, i)
			}
		}
	}
}

// TestSplitOffsetsUltraLongReads is the regression test for split offsets
// landing inside reads longer than the boundary scan window: the old
// fixed 1 MiB window returned size when it ended mid-record (or when the
// two-line lookahead ran off the buffer), silently collapsing the shard to
// empty and dumping its bytes on the previous rank. Quality lines start
// with '@' to keep the header/quality ambiguity in play.
func TestSplitOffsetsUltraLongReads(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var quals [][]byte
	mk := func(name string, n int) *Record {
		seq := make([]byte, n)
		qual := make([]byte, n)
		for j := range seq {
			seq[j] = "ACGT"[rng.Intn(4)]
			qual[j] = byte('!' + rng.Intn(60))
		}
		qual[0] = '@' // adversarial: quality line starts with '@'
		quals = append(quals, qual)
		return &Record{Name: name, Seq: seq}
	}
	// The middle read's lines are ~1.5x the scan window, so any offset
	// guess near the file's midpoint lands inside it and the scan must
	// grow its window to reach the next record's header.
	recs := []*Record{
		mk("short-head", 2000),
		mk("ultra-long", scanWindow*3/2),
		mk("short-tail", 2000),
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "long.fastq")
	writeRaw(t, path, recs, quals)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range []int{2, 3, 5} {
		offsets, err := SplitOffsets(path, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		// Real record boundaries exist after every interior guess (the
		// guesses land in or before the ultra-long read, and two records
		// follow its start), so no interior offset may collapse to size.
		if offsets[1] >= fi.Size() {
			t.Errorf("p=%d: first split offset collapsed to file size", p)
		}
		var got []*Record
		for i := 0; i < p; i++ {
			part, err := ReadRange(path, offsets[i], offsets[i+1])
			if err != nil {
				t.Fatalf("p=%d shard %d: %v", p, i, err)
			}
			got = append(got, part...)
		}
		if len(got) != len(recs) {
			t.Fatalf("p=%d: reassembled %d records, want %d", p, len(got), len(recs))
		}
		for i := range got {
			if got[i].Name != recs[i].Name || !bytes.Equal(got[i].Seq, recs[i].Seq) {
				t.Fatalf("p=%d: record %d mismatch", p, i)
			}
		}
	}

	// The p=2 midpoint guess lands inside the ultra-long read; the grown
	// window must find the *next* record, not swallow the tail.
	offsets, err := SplitOffsets(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := ReadRange(path, offsets[1], fi.Size())
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0].Name != "short-tail" {
		t.Errorf("p=2 second shard holds %d records, want exactly the tail read", len(tail))
	}
}

func TestGzipRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reads.fastq.gz")
	recs := []*Record{
		{Name: "a", Seq: []byte("ACGTACGT")},
		{Name: "b", Seq: []byte("TTTT")},
	}
	if err := WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	// The file really is gzip (magic bytes).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatal("output is not gzip")
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || string(back[0].Seq) != "ACGTACGT" || back[1].Name != "b" {
		t.Errorf("gzip roundtrip: %+v", back)
	}
}

func TestGzipCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.fastq.gz")
	if err := os.WriteFile(path, []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("corrupt gzip accepted")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile("/nonexistent/file.fastq"); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestWriteFileAndReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fastq")
	recs := []*Record{{Name: "a", Seq: []byte("ACGTACGT")}}
	if err := WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || string(back[0].Seq) != "ACGTACGT" {
		t.Errorf("roundtrip via file failed: %+v", back)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("file is empty")
	}
}

func TestStats(t *testing.T) {
	recs := []*Record{
		{Seq: make([]byte, 100)},
		{Seq: make([]byte, 300)},
	}
	s := Summarize(recs)
	if s.Reads != 2 || s.TotalBases != 400 || s.MeanLen() != 200 ||
		s.MinLen != 100 || s.MaxLen != 300 {
		t.Errorf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "2 reads") {
		t.Errorf("String() = %q", s.String())
	}
	zero := Summarize(nil)
	if zero.MeanLen() != 0 {
		t.Errorf("empty MeanLen = %v", zero.MeanLen())
	}
}

func TestReaderLargeRecordStreaming(t *testing.T) {
	// A record bigger than the bufio buffer must still parse.
	seq := bytes.Repeat([]byte("ACGT"), 40000) // 160 kB line
	var buf bytes.Buffer
	if err := Write(&buf, []*Record{{Name: "big", Seq: seq}}); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Seq) != len(seq) {
		t.Fatalf("large record parse failed: %d records", len(recs))
	}
}

// The header, the sequence, the '+' line and the quality line each longer
// than the reader's 64 KiB buffer, with CRLF line endings: the header, '+'
// and quality lines, read in the buffer when they fit, are read whole when
// they do not, a quality one base short is still refused there, and the
// record after them parses too.
func TestLinesLongerThanTheBuffer(t *testing.T) {
	long := func(unit string) string { return strings.Repeat(unit, 70000/len(unit)+1) }
	name, seq := "n"+long("ame"), long("ACGTTGCA")
	record := func(qual string) string {
		return "@" + name + " " + long("comment ") + "\r\n" + seq + "\r\n+" + name + "\r\n" + qual + "\r\n" +
			"@next\r\nACGT\r\n+next\r\n!!!!\r\n"
	}
	recs, err := ReadAll(strings.NewReader(record(strings.Repeat("I", len(seq)))))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if r := recs[0]; r.Name != name || string(r.Seq) != seq {
		t.Errorf("long record: name %d bytes, seq %d; want %d, %d", len(r.Name), len(r.Seq), len(name), len(seq))
	}
	if r := recs[1]; r.Name != "next" || string(r.Seq) != "ACGT" {
		t.Errorf("record after it: %q %q", r.Name, r.Seq)
	}
	if _, err := ReadAll(strings.NewReader(record(strings.Repeat("I", len(seq)-1)))); err == nil {
		t.Error("a long quality line one base short was accepted")
	}
}

// A FASTQ record costs three allocations: its name, its sequence and the
// Record. The header, '+' and quality lines are read in the reader's buffer.
func TestParseAllocsPerRecord(t *testing.T) {
	const n = 200
	var buf bytes.Buffer
	recs := make([]*Record, n)
	for i := range recs {
		recs[i] = &Record{Name: fmt.Sprintf("read%d", i), Seq: bytes.Repeat([]byte("ACGT"), 50+i)}
	}
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	parse := func(in []byte) func() {
		return func() {
			r := NewReader(bytes.NewReader(in))
			for {
				if _, err := r.Next(); err != nil {
					return
				}
			}
		}
	}
	setup := testing.AllocsPerRun(10, parse(nil))
	perRecord := (testing.AllocsPerRun(10, parse(buf.Bytes())) - setup) / n
	if perRecord > 3 {
		t.Errorf("%.2f allocations a record, want at most 3", perRecord)
	}
}

func TestNextAfterEOF(t *testing.T) {
	r := NewReader(strings.NewReader(sampleFastq))
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("second EOF read returned %v", err)
	}
}
