package kmer

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"dibella/internal/dna"
)

// referenceScanner is the per-k-mer scanner Scanner's block loop replaced,
// kept as its oracle: one canonical k-mer per call, a run restarted after
// any non-ACGT byte.
type referenceScanner struct {
	seq    []byte
	k      int
	readID uint32
	pos    int  // index of the *next* byte to consume
	run    int  // number of consecutive valid bases ending just before pos
	cur    Kmer // rolling forward k-mer over the current run
	rc     Kmer // its reverse complement, once run >= k
}

func newReferenceScanner(seq []byte, k int, readID uint32) *referenceScanner {
	checkK(k)
	return &referenceScanner{seq: seq, k: k, readID: readID}
}

// appendBase shifts the k-mer left by one base and appends code, keeping
// length k: the oracle's rolling step.
func (km Kmer) appendBase(code byte, k int) Kmer {
	return Kmer((uint64(km)<<2 | uint64(code&3)) & mask(k))
}

// next returns the next canonical k-mer and its occurrence metadata.
// ok=false signals the end of the read.
func (s *referenceScanner) next() (ex Extracted, ok bool) {
	for s.pos < len(s.seq) {
		code, valid := dna.Code(s.seq[s.pos])
		s.pos++
		if !valid {
			s.run = 0
			continue
		}
		s.cur = s.cur.appendBase(code, s.k)
		s.rc = s.rc>>2 | Kmer(3-code)<<(2*uint(s.k-1))
		s.run++
		if s.run >= s.k {
			canon, fwd := s.cur, true
			if s.rc < s.cur {
				canon, fwd = s.rc, false
			}
			return Extracted{
				Kmer: canon,
				Occ: Occurrence{
					ReadID:  s.readID,
					Pos:     uint32(s.pos - s.k),
					Forward: fwd,
				},
			}, true
		}
	}
	return Extracted{}, false
}

// referenceExtract is ExtractAll on the oracle.
func referenceExtract(seq []byte, k int, readID uint32) []Extracted {
	var out []Extracted
	sc := newReferenceScanner(seq, k, readID)
	for ex, ok := sc.next(); ok; ex, ok = sc.next() {
		out = append(out, ex)
	}
	return out
}

// checkScan holds the block scanner to the oracle on one read: Fill, cut
// into blocks whose lengths blockLens cycles through, writes the oracle's
// keys, positions and strand bits in order, and a full count at every block
// boundary but the last; Next and ExtractAll stream the same k-mers;
// Minimizers and a MinimizerScanner cut the same way match brute-force
// minimizers over the oracle's k-mers.
func checkScan(t *testing.T, seq []byte, k, w int, blockLens []int) {
	t.Helper()
	const id = 0xBEEF
	want := referenceExtract(seq, k, id)
	var got []Extracted
	sc := NewScanner(seq, k, id)
	for call := 0; ; call++ {
		n := blockLens[call%len(blockLens)]
		keys, locs := make([]Kmer, n), make([]Loc, n+call%3) // locs may be longer
		m := sc.Fill(keys, locs)
		if m != min(n, len(want)-len(got)) {
			t.Fatalf("k=%d call %d: Fill(%d) wrote %d with %d of %d k-mers out (seq %q)",
				k, call, n, m, len(got), len(want), seq)
		}
		for i := range m {
			got = append(got, Extracted{Kmer: keys[i], Occ: locs[i].Occurrence()})
		}
		if m < n {
			break
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("k=%d: Fill emitted %v, oracle %v (seq %q)", k, got, want, seq)
	}
	if all := ExtractAll(seq, k, id); !slices.Equal(all, want) {
		t.Fatalf("k=%d: Next emitted %v, oracle %v (seq %q)", k, all, want, seq)
	}

	wantMz := naiveMinimizers(seq, k, w, id)
	if gotMz := Minimizers(seq, k, w, id); !slices.Equal(gotMz, wantMz) {
		t.Fatalf("k=%d w=%d: Minimizers %v, brute force %v (seq %q)", k, w, gotMz, wantMz, seq)
	}
	var mz MinimizerScanner
	mz.Reset(seq, k, w, id)
	var gotMz []Extracted
	for call := 0; ; call++ {
		n := blockLens[call%len(blockLens)]
		keys, locs := make([]Kmer, n), make([]Loc, n)
		m := mz.Fill(keys, locs)
		for i := range m {
			gotMz = append(gotMz, Extracted{Kmer: keys[i], Occ: locs[i].Occurrence()})
		}
		if m < n {
			break
		}
	}
	if !slices.Equal(gotMz, wantMz) {
		t.Fatalf("k=%d w=%d blocks %v: MinimizerScanner.Fill %v, brute force %v (seq %q)",
			k, w, blockLens, gotMz, wantMz, seq)
	}
}

// scanInput turns fuzz bytes into a read that is mostly ACGT in either
// case, with an N, an IUPAC code or an arbitrary byte where the input says.
func scanInput(data []byte) []byte {
	seq := make([]byte, len(data))
	for i, b := range data {
		switch {
		case b < 224:
			seq[i] = "ACGTacgt"[b%8]
		case b < 240:
			seq[i] = 'N'
		default:
			seq[i] = "nRYxX-*\x00"[b%8]
		}
	}
	return seq
}

// FuzzScanMatchesReference holds the block scanner, its Next view and the
// minimizer sweep to the per-k-mer scanner they replaced, on any bytes, at
// any k and any block lengths from 1 to 1024.
func FuzzScanMatchesReference(f *testing.F) {
	f.Add([]byte("ACGTACGTTGCA"), uint8(3), uint16(1), uint16(5), uint8(4))
	f.Add([]byte{0, 1, 2, 3, 230, 4, 5, 6, 7, 250, 8, 9}, uint8(16), uint16(7), uint16(1023), uint8(1))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7}, 200), uint8(31), uint16(511), uint16(512), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8, b0, b1 uint16, wRaw uint8) {
		k := int(kRaw)%MaxK + 1
		w := int(wRaw) % 17
		checkScan(t, scanInput(data), k, w, []int{int(b0)%1024 + 1, int(b1)%1024 + 1})
	})
}

// TestScanMatchesReference is the fuzz target's deterministic twin: random
// reads of every length class (shorter than k, one block, many blocks),
// every k, block lengths from 1 to 1024.
func TestScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, []int{rng.Intn(40), rng.Intn(600), rng.Intn(3000)}[trial%3])
		for i := range data {
			data[i] = byte(rng.Intn(256))
			if rng.Intn(4) > 0 {
				data[i] %= 224 // mostly ACGT
			}
		}
		k := trial%MaxK + 1
		blocks := []int{1 + rng.Intn(1024), 1 + rng.Intn(8), 512}
		checkScan(t, scanInput(data), k, rng.Intn(17), blocks)
	}
}
