// Package paf reads and writes alignment records in a PAF-like
// tab-separated format (the de-facto interchange format of the long-read
// overlap ecosystem, used by minimap2/miniasm). diBELLA's "optional output
// of the overlaps" (§8) and alignments (§9) are emitted in this shape.
//
// Columns: qname qlen qstart qend strand tname tlen tstart tend score
// nseeds. Coordinates are 0-based half-open on the forward strand of each
// read; strand '-' means the target read aligns reverse-complemented.
package paf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Record is one pairwise alignment (or overlap candidate).
type Record struct {
	QName  string
	QLen   int
	QStart int
	QEnd   int
	Strand byte // '+' or '-'
	TName  string
	TLen   int
	TStart int
	TEnd   int
	Score  int
	NSeeds int
}

// Validate checks internal consistency.
func (r *Record) Validate() error {
	if r.Strand != '+' && r.Strand != '-' {
		return fmt.Errorf("paf: invalid strand %q", r.Strand)
	}
	if r.QStart < 0 || r.QEnd > r.QLen || r.QStart > r.QEnd {
		return fmt.Errorf("paf: query span [%d,%d) out of [0,%d]", r.QStart, r.QEnd, r.QLen)
	}
	if r.TStart < 0 || r.TEnd > r.TLen || r.TStart > r.TEnd {
		return fmt.Errorf("paf: target span [%d,%d) out of [0,%d]", r.TStart, r.TEnd, r.TLen)
	}
	return nil
}

// String renders the record as one PAF line (without newline).
func (r *Record) String() string {
	return string(r.appendTo(nil))
}

// appendTo appends the record's line (without newline) to dst: what
// fmt.Sprintf("%s\t%d\t%d\t%d\t%c\t%s\t%d\t%d\t%d\t%d\t%d", ...) would
// make, byte for byte, without its reflection or its allocation.
func (r *Record) appendTo(dst []byte) []byte {
	dst = append(dst, r.QName...)
	for _, v := range [...]int{r.QLen, r.QStart, r.QEnd} {
		dst = strconv.AppendInt(append(dst, '\t'), int64(v), 10)
	}
	dst = utf8.AppendRune(append(dst, '\t'), rune(r.Strand))
	dst = append(append(dst, '\t'), r.TName...)
	for _, v := range [...]int{r.TLen, r.TStart, r.TEnd, r.Score, r.NSeeds} {
		dst = strconv.AppendInt(append(dst, '\t'), int64(v), 10)
	}
	return dst
}

// Write emits records, one line each.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i := range recs {
		line = append(recs[i].appendTo(line[:0]), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parse reads records back from the tab-separated form.
func Parse(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var recs []Record
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 11 {
			return nil, fmt.Errorf("paf: line %d: %d fields, want 11", lineNo, len(fields))
		}
		var rec Record
		rec.QName = fields[0]
		rec.TName = fields[5]
		if len(fields[4]) != 1 {
			return nil, fmt.Errorf("paf: line %d: bad strand %q", lineNo, fields[4])
		}
		rec.Strand = fields[4][0]
		ints := []struct {
			dst *int
			idx int
		}{
			{&rec.QLen, 1}, {&rec.QStart, 2}, {&rec.QEnd, 3},
			{&rec.TLen, 6}, {&rec.TStart, 7}, {&rec.TEnd, 8},
			{&rec.Score, 9}, {&rec.NSeeds, 10},
		}
		for _, f := range ints {
			v, err := strconv.Atoi(fields[f.idx])
			if err != nil {
				return nil, fmt.Errorf("paf: line %d field %d: %v", lineNo, f.idx, err)
			}
			*f.dst = v
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("paf: line %d: %w", lineNo, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}
