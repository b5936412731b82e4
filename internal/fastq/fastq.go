// Package fastq reads and writes FASTQ and FASTA files and provides the
// record-boundary-aligned byte-range partitioning that diBELLA's parallel
// I/O uses to hand each rank a near-equal share of the input reads.
//
// The paper's input files are PacBio FASTQ (266 MB and 929 MB); reads carry
// no locality with respect to genome position, so a plain byte-range split
// already yields a near-uniform distribution of bases per rank.
package fastq

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// Record is a single sequencing read. Qual is empty for FASTA input.
type Record struct {
	Name string
	Seq  []byte
	Qual []byte
}

// Len returns the number of bases in the read.
func (r *Record) Len() int { return len(r.Seq) }

// Reader parses FASTQ or FASTA records from an input stream, detecting the
// format from the first record marker ('@' vs '>').
type Reader struct {
	br     *bufio.Reader
	fasta  bool
	peeked bool
	nRec   int
}

// NewReader wraps r in a Record parser.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next record or io.EOF.
func (r *Reader) Next() (*Record, error) {
	if !r.peeked {
		if err := r.detect(); err != nil {
			return nil, err
		}
	}
	if r.fasta {
		return r.nextFasta()
	}
	return r.nextFastq()
}

func (r *Reader) detect() error {
	for {
		b, err := r.br.Peek(1)
		if err != nil {
			return err
		}
		switch b[0] {
		case '@':
			r.fasta = false
			r.peeked = true
			return nil
		case '>':
			r.fasta = true
			r.peeked = true
			return nil
		case '\n', '\r':
			if _, err := r.br.ReadByte(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fastq: unrecognized record marker %q", b[0])
		}
	}
}

func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadBytes('\n')
	if len(line) == 0 && err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

func (r *Reader) nextFastq() (*Record, error) {
	// Blank lines between records and after the last one are skipped, as
	// detect skips them before the first: a trailing newline is the
	// commonest thing an editor or cat adds to a read file.
	var header []byte
	for len(header) == 0 {
		var err error
		if header, err = r.readLine(); err != nil {
			return nil, err
		}
	}
	if header[0] != '@' {
		return nil, fmt.Errorf("fastq: record %d: malformed header %q", r.nRec, header)
	}
	seq, err := r.readLine()
	if err != nil {
		return nil, fmt.Errorf("fastq: record %d: truncated sequence: %w", r.nRec, err)
	}
	plus, err := r.readLine()
	if err != nil || len(plus) == 0 || plus[0] != '+' {
		return nil, fmt.Errorf("fastq: record %d: missing '+' separator", r.nRec)
	}
	qual, err := r.readLine()
	if err != nil {
		return nil, fmt.Errorf("fastq: record %d: truncated quality: %w", r.nRec, err)
	}
	if len(qual) != len(seq) {
		return nil, fmt.Errorf("fastq: record %d: quality length %d != sequence length %d",
			r.nRec, len(qual), len(seq))
	}
	r.nRec++
	return &Record{Name: nameOf(header[1:]), Seq: seq, Qual: qual}, nil
}

func (r *Reader) nextFasta() (*Record, error) {
	header, err := r.readLine()
	if err != nil {
		return nil, err
	}
	if len(header) == 0 || header[0] != '>' {
		return nil, fmt.Errorf("fastq: record %d: malformed FASTA header %q", r.nRec, header)
	}
	var seq []byte
	for {
		b, err := r.br.Peek(1)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if b[0] == '>' {
			break
		}
		line, err := r.readLine()
		if err != nil {
			return nil, err
		}
		seq = append(seq, line...)
	}
	r.nRec++
	return &Record{Name: nameOf(header[1:]), Seq: seq}, nil
}

// nameOf trims a header to the first whitespace-delimited token.
func nameOf(h []byte) string {
	if i := bytes.IndexAny(h, " \t"); i >= 0 {
		h = h[:i]
	}
	return string(h)
}

// ReadAll parses every record from r.
func ReadAll(r io.Reader) ([]*Record, error) {
	fr := NewReader(r)
	var recs []*Record
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// ReadFile parses every record from a FASTQ or FASTA file; files ending
// in .gz are decompressed transparently (public read sets ship gzipped).
func ReadFile(path string) ([]*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("fastq: %s: %w", path, err)
		}
		defer zr.Close()
		return ReadAll(zr)
	}
	return ReadAll(f)
}

// Write emits records in FASTQ format (records lacking qualities get a
// constant placeholder quality, as real PacBio FASTQ always carries one).
func Write(w io.Writer, recs []*Record) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, rec := range recs {
		qual := rec.Qual
		if len(qual) != len(rec.Seq) {
			qual = bytes.Repeat([]byte{'!'}, len(rec.Seq))
		}
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n+\n%s\n", rec.Name, rec.Seq, qual); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes records to path in FASTQ format, gzip-compressed when
// the path ends in .gz.
func WriteFile(path string, recs []*Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".gz") {
		zw := gzip.NewWriter(f)
		if err := Write(zw, recs); err != nil {
			zw.Close()
			f.Close()
			return err
		}
		if err := zw.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := Write(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteFasta emits records in FASTA format.
func WriteFasta(w io.Writer, recs []*Record) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, rec := range recs {
		if _, err := fmt.Fprintf(bw, ">%s\n%s\n", rec.Name, rec.Seq); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Partition splits n records into p contiguous shards whose sizes differ by
// at most one, returning half-open index ranges. It mirrors the paper's
// block distribution of reads across ranks.
func Partition(n, p int) [][2]int {
	if p <= 0 {
		panic("fastq: non-positive partition count")
	}
	ranges := make([][2]int, p)
	base, rem := n/p, n%p
	start := 0
	for i := 0; i < p; i++ {
		sz := base
		if i < rem {
			sz++
		}
		ranges[i] = [2]int{start, start + sz}
		start += sz
	}
	return ranges
}

// PartitionByBytes splits records into p shards balanced by total sequence
// bytes rather than record count (greedy prefix split). The paper
// partitions reads "as uniformly as possible ... by the read size in
// memory"; with long-read length variance this differs measurably from a
// count split.
func PartitionByBytes(recs []*Record, p int) [][2]int {
	lens := make([]int32, len(recs))
	for i, r := range recs {
		lens[i] = int32(r.Len())
	}
	return PartitionLens(lens, p)
}

// PartitionLens is PartitionByBytes over a length vector alone — the form
// a cooperative sharded load can evaluate after allgathering per-read
// lengths, without any rank holding the full record set. The two always
// produce identical ranges, which is what keeps a sharded run's block
// distribution (and therefore its output) byte-identical to a whole-file
// load's.
func PartitionLens(lens []int32, p int) [][2]int {
	if p <= 0 {
		panic("fastq: non-positive partition count")
	}
	total := 0
	for _, n := range lens {
		total += int(n)
	}
	ranges := make([][2]int, p)
	start := 0
	acc := 0
	for i := 0; i < p; i++ {
		target := (total*(i+1) + p - 1) / p
		end := start
		for end < len(lens) && (acc < target || i == p-1) {
			acc += int(lens[end])
			end++
		}
		ranges[i] = [2]int{start, end}
		start = end
	}
	ranges[p-1][1] = len(lens)
	return ranges
}

// SplitOffsets computes p byte offsets into a FASTQ file such that each
// offset lands on a record boundary ('@' header line that is truly a record
// start), emulating MPI-IO style cooperative reading where each rank seeks
// to its share and scans forward to the first full record.
func SplitOffsets(path string, p int) ([]int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	offsets := make([]int64, p+1)
	offsets[p] = size
	for i := 1; i < p; i++ {
		adj, err := splitBoundary(f, i, p, size)
		if err != nil {
			return nil, err
		}
		offsets[i] = adj
	}
	// Offsets must be monotone even for tiny files.
	for i := 1; i <= p; i++ {
		if offsets[i] < offsets[i-1] {
			offsets[i] = offsets[i-1]
		}
	}
	return offsets, nil
}

// ShardOffsets returns the [start,end) byte range of the rank'th of size
// shards: exactly the two boundaries SplitOffsets would assign, without
// scanning the other size-2 boundaries. A P-rank cooperative load where
// every rank computes only its own range therefore costs O(P) boundary
// scans in aggregate instead of the O(P²) of P full SplitOffsets calls —
// and because splitBoundary is monotone in the split index, adjacent
// ranks' independently computed boundaries agree, so the shards tile the
// file exactly.
func ShardOffsets(path string, rank, size int) (start, end int64, err error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	if start, err = splitBoundary(f, rank, size, fi.Size()); err != nil {
		return 0, 0, err
	}
	if end, err = splitBoundary(f, rank+1, size, fi.Size()); err != nil {
		return 0, 0, err
	}
	if end < start {
		end = start // mirror SplitOffsets' defensive monotonicity clamp
	}
	return start, end, nil
}

// splitBoundary computes the i'th of p record-aligned split offsets.
func splitBoundary(f *os.File, i, p int, size int64) (int64, error) {
	if i <= 0 {
		return 0, nil
	}
	if i >= p {
		return size, nil
	}
	return nextRecordStart(f, size*int64(i)/int64(p), size)
}

const (
	// scanWindow is the initial record-boundary scan window.
	scanWindow = 1 << 20
	// maxScanWindow bounds the window's growth; a FASTQ file that cannot
	// produce one confirmed record boundary within it is corrupt (or not
	// FASTQ) and is reported rather than guessed at.
	maxScanWindow = 1 << 30
)

// nextRecordStart scans forward from off to the start of the next FASTQ
// record. A line beginning with '@' could be a header or a quality line;
// disambiguating uses the 4-line record invariant: a candidate '@' line is
// accepted iff the line after next begins with '+'. The window grows
// (doubling from scanWindow) whenever a verdict would need bytes beyond it
// — ultra-long reads can push a line or the two-line lookahead past any
// fixed window, and silently returning size there would collapse the shard
// to empty and dump its bytes on the previous rank. Only reaching
// end-of-file without a confirmed start returns size: the offset landed
// inside the file's final record, whose bytes belong to the prior shard.
func nextRecordStart(f *os.File, off, size int64) (int64, error) {
	if off <= 0 {
		return 0, nil
	}
	if off >= size {
		return size, nil
	}
	for window := int64(scanWindow); ; window *= 2 {
		n := min64(window, size-off)
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
			return 0, err
		}
		atEOF := off+n == size
		pos, found, needMore := scanRecordStart(buf, atEOF)
		if found {
			return off + int64(pos), nil
		}
		if atEOF || !needMore {
			return size, nil
		}
		if window >= maxScanWindow {
			return 0, fmt.Errorf("fastq: no record boundary within %d bytes after offset %d (corrupt or non-FASTQ input)", n, off)
		}
	}
}

// scanRecordStart looks for the first confirmed record start in buf.
// needMore reports that the verdict requires bytes beyond the buffer (a
// window-final partial line, or a candidate whose two-line lookahead runs
// off the end); it is never set when the buffer already reaches EOF.
func scanRecordStart(buf []byte, atEOF bool) (pos int, found, needMore bool) {
	// Align to the next line start.
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		return 0, false, !atEOF
	}
	i++
	for i < len(buf) {
		lineEnd := bytes.IndexByte(buf[i:], '\n')
		if lineEnd < 0 {
			// Partial final line: a candidate here cannot be confirmed.
			return 0, false, !atEOF
		}
		if buf[i] == '@' {
			// Confirm that the line after next starts with '+'.
			j := i + lineEnd + 1
			k := bytes.IndexByte(buf[j:], '\n')
			if k < 0 {
				return 0, false, !atEOF
			}
			l := j + k + 1
			if l >= len(buf) {
				return 0, false, !atEOF
			}
			if buf[l] == '+' {
				return i, true, false
			}
		}
		i += lineEnd + 1
	}
	return 0, false, !atEOF
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// LoadShard parses only this rank's shard of a read file: the records
// fully contained in the rank'th of size record-boundary-aligned byte
// ranges (SplitOffsets). The concatenation of all ranks' shards, in rank
// order, is exactly the whole file's record sequence — so global read IDs
// assigned by rank-order concatenation match a whole-file load.
//
// parsed is the number of input bytes this process actually read and
// parsed: the shard's byte extent on the cooperative path. Inputs the
// byte-range splitter cannot handle (gzip streams, FASTA's variable
// record shape) fall back to every rank parsing the whole file and
// keeping its record-count share, reported honestly as the full file
// size.
func LoadShard(path string, rank, size int) (recs []*Record, parsed int64, err error) {
	if size <= 0 {
		return nil, 0, fmt.Errorf("fastq: non-positive shard count %d", size)
	}
	if rank < 0 || rank >= size {
		return nil, 0, fmt.Errorf("fastq: shard %d out of range [0,%d)", rank, size)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	if size == 1 {
		recs, err := ReadFile(path)
		return recs, fi.Size(), err
	}
	if strings.HasSuffix(path, ".gz") {
		return loadShardWhole(path, rank, size, fi.Size())
	}
	fasta, err := isFastaFile(path)
	if err != nil {
		return nil, 0, err
	}
	if fasta {
		return loadShardWhole(path, rank, size, fi.Size())
	}
	start, end, err := ShardOffsets(path, rank, size)
	if err != nil {
		return nil, 0, err
	}
	recs, err = ReadRange(path, start, end)
	if err != nil {
		return nil, 0, err
	}
	return recs, end - start, nil
}

// loadShardWhole is LoadShard's fallback for unsplittable inputs: parse
// everything, keep the rank's record-count share.
func loadShardWhole(path string, rank, size int, fileSize int64) ([]*Record, int64, error) {
	recs, err := ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	r := Partition(len(recs), size)[rank]
	return recs[r[0]:r[1]], fileSize, nil
}

// isFastaFile peeks the first record marker of a file.
func isFastaFile(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for {
		b, err := br.ReadByte()
		if err == io.EOF {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		if b != '\n' && b != '\r' {
			return b == '>', nil
		}
	}
}

// ReadRange parses the records fully contained in the byte range
// [start,end) of a FASTQ file whose offsets came from SplitOffsets.
func ReadRange(path string, start, end int64) ([]*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return nil, err
	}
	lr := io.LimitReader(f, end-start)
	return ReadAll(lr)
}

// Stats summarizes a read set the way the paper characterizes its inputs
// (read count, total bases, mean length).
type Stats struct {
	Reads      int
	TotalBases int64
	MinLen     int
	MaxLen     int
}

// MeanLen returns the average read length.
func (s Stats) MeanLen() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.TotalBases) / float64(s.Reads)
}

// String formats the stats like the paper's data-set descriptions.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d reads, %d bases, mean length %.0f bp (min %d, max %d)",
		s.Reads, s.TotalBases, s.MeanLen(), s.MinLen, s.MaxLen)
	return b.String()
}

// Summarize computes Stats over a record set.
func Summarize(recs []*Record) Stats {
	s := Stats{}
	for i, r := range recs {
		n := r.Len()
		s.Reads++
		s.TotalBases += int64(n)
		if i == 0 || n < s.MinLen {
			s.MinLen = n
		}
		if n > s.MaxLen {
			s.MaxLen = n
		}
	}
	return s
}
