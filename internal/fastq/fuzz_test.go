package fastq

import (
	"bytes"
	"strings"
	"testing"
)

// fuzzSeeds are read files as Write lays them out (one read and three), one
// whose quality lines start with '@', and the blank-line layouts the reader
// accepts.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	written := func(recs ...*Record) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	one := written(&Record{Name: "r0", Seq: []byte("ACGTACGT"), Qual: []byte("IIIIIIII")})
	three := written(
		&Record{Name: "a", Seq: []byte("ACGT"), Qual: []byte("IIII")},
		&Record{Name: "b", Seq: []byte("TT")},
		&Record{Name: "c", Seq: []byte("GATTACA"), Qual: []byte("@+@+@+@")},
	)
	return [][]byte{
		one, three,
		[]byte("@r0\nACGT\n+\n@III\n@r1\nGG\n+\n@@\n"),
		[]byte("@r\nACGT\n+\nIIII\n\n"),
		[]byte("\n\n@r0\nACGT\n+\nIIII\n\r\n@r1\r\nGG\r\n+\r\n@!\r\n\r\n"),
		[]byte(">f0 desc\nACGT\nAC\n\n>f1\nGG\n"),
	}
}

// FuzzReader: arbitrary bytes never panic the parser; what it accepts as
// FASTQ has a quality per base, and written back out it parses to the same
// records (names, bases, and for FASTQ qualities). The one thing Write cannot
// put back is a carriage return ending a name ("@r\r desc"): the reader takes
// CR LF for the line end, so such inputs stop at the quality check.
func FuzzReader(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, err := ReadAll(bytes.NewReader(b))
		if err != nil {
			return
		}
		isFastq := bytes.HasPrefix(bytes.TrimLeft(b, "\r\n"), []byte("@"))
		for i, rec := range recs {
			if isFastq && len(rec.Qual) != len(rec.Seq) {
				t.Fatalf("record %d: %d qualities for %d bases", i, len(rec.Qual), len(rec.Seq))
			}
			if strings.HasSuffix(rec.Name, "\r") {
				return
			}
		}
		var out bytes.Buffer
		if err := Write(&out, recs); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAll(&out)
		if err != nil {
			t.Fatalf("accepted input, written back, no longer parses: %v\n in %q\nout %q", err, b, out.Bytes())
		}
		if len(back) != len(recs) {
			t.Fatalf("%d records written back parse to %d\n in %q", len(recs), len(back), b)
		}
		for i := range recs {
			if back[i].Name != recs[i].Name || !bytes.Equal(back[i].Seq, recs[i].Seq) ||
				(isFastq && !bytes.Equal(back[i].Qual, recs[i].Qual)) {
				t.Fatalf("record %d: %+v written back parses to %+v", i, recs[i], back[i])
			}
		}
	})
}

// FuzzScanRecordStart: the shard-boundary scan never panics; a position it
// confirms is an '@' at a line start with a '+' opening the line after next;
// it never asks for more bytes than the file has; and a verdict reached on a
// prefix of the buffer stands when the rest arrives.
func FuzzScanRecordStart(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed, uint16(len(seed)/2), true)
		f.Add(seed[len(seed)/3:], uint16(len(seed)), false)
	}
	f.Fuzz(func(t *testing.T, buf []byte, cut uint16, atEOF bool) {
		pos, found, needMore := scanRecordStart(buf, atEOF)
		if atEOF && needMore {
			t.Fatalf("needMore at end of file: %q", buf)
		}
		if found {
			if needMore {
				t.Fatalf("found and needMore together: %q", buf)
			}
			if pos <= 0 || pos >= len(buf) || buf[pos] != '@' || buf[pos-1] != '\n' {
				t.Fatalf("found at %d, which is no '@' at a line start: %q", pos, buf)
			}
			rest := buf[pos:]
			for line := 0; line < 2; line++ {
				nl := bytes.IndexByte(rest, '\n')
				if nl < 0 {
					t.Fatalf("found at %d with fewer than two complete lines after it: %q", pos, buf)
				}
				rest = rest[nl+1:]
			}
			if len(rest) == 0 || rest[0] != '+' {
				t.Fatalf("found at %d, but the line after next does not open with '+': %q", pos, buf)
			}
		}
		// The same scan over a prefix, as nextRecordStart's smaller window saw
		// it: a start found there is the start found here.
		prefix := buf[:int(cut)%(len(buf)+1)]
		if ppos, pfound, _ := scanRecordStart(prefix, false); pfound && (!found || pos != ppos) {
			t.Fatalf("found at %d in the first %d bytes, then (%d, %v) in all %d: %q",
				ppos, len(prefix), pos, found, len(buf), buf)
		}
	})
}
