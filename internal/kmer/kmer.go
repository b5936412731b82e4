package kmer

import (
	"fmt"
	"math/bits"

	"dibella/internal/dna"
)

// MaxK is the largest supported k-mer length (32 bases in one uint64).
const MaxK = 32

// Kmer is a DNA string of fixed length k packed two bits per base.
// The base at offset 0 (the 5' end) occupies the highest-order bit pair in
// use, so that integer comparison of two Kmers with equal k matches
// lexicographic comparison of their ASCII forms.
type Kmer uint64

// ValidK reports whether k is a supported k-mer length.
func ValidK(k int) bool { return k >= 1 && k <= MaxK }

// checkK panics on out-of-range k. k is a program-level parameter (the paper
// fixes it per run), so an invalid value is a programming error.
func checkK(k int) {
	if !ValidK(k) {
		panic(fmt.Sprintf("kmer: k=%d out of range [1,%d]", k, MaxK))
	}
}

// mask returns the bit mask covering 2k low-order bits.
func mask(k int) uint64 {
	if k == 32 {
		return ^uint64(0)
	}
	return (uint64(1) << (2 * uint(k))) - 1
}

// Pack converts the first k bytes of an ASCII sequence into a Kmer.
// It reports ok=false if any of the k bytes is not A/C/G/T.
func Pack(s []byte, k int) (km Kmer, ok bool) {
	checkK(k)
	if len(s) < k {
		return 0, false
	}
	var v uint64
	for i := 0; i < k; i++ {
		c, valid := dna.Code(s[i])
		if !valid {
			return 0, false
		}
		v = v<<2 | uint64(c)
	}
	return Kmer(v), true
}

// MustPack is Pack for pre-validated input; it panics on invalid bytes.
func MustPack(s []byte, k int) Kmer {
	km, ok := Pack(s, k)
	if !ok {
		panic(fmt.Sprintf("kmer: invalid sequence %q for k=%d", s, k))
	}
	return km
}

// Bytes unpacks the k-mer into upper-case ASCII.
func (km Kmer) Bytes(k int) []byte {
	checkK(k)
	out := make([]byte, k)
	v := uint64(km)
	for i := k - 1; i >= 0; i-- {
		out[i] = dna.Base(byte(v & 3))
		v >>= 2
	}
	return out
}

// String unpacks the k-mer assuming the receiver knows k via the caller; it
// exists only for debugging with a fixed display width of MaxK and is not
// used on hot paths. Prefer Bytes(k).
func (km Kmer) String() string { return fmt.Sprintf("Kmer(%#016x)", uint64(km)) }

// AppendBase shifts the k-mer left by one base and appends code, keeping
// length k. This is the rolling-extraction step.
func (km Kmer) AppendBase(code byte, k int) Kmer {
	return Kmer((uint64(km)<<2 | uint64(code&3)) & mask(k))
}

// ReverseComplement returns the reverse complement of the k-mer.
//
// The 2-bit code was chosen so complementation is XOR with all-ones; the
// reversal uses the standard O(log k) bit-swap network over base pairs.
func (km Kmer) ReverseComplement(k int) Kmer {
	checkK(k)
	v := ^uint64(km) // complement every base (c -> 3-c)
	// Reverse the 32 2-bit groups within the word.
	v = (v&0x3333333333333333)<<2 | (v>>2)&0x3333333333333333
	v = (v&0x0F0F0F0F0F0F0F0F)<<4 | (v>>4)&0x0F0F0F0F0F0F0F0F
	v = bits.ReverseBytes64(v)
	// The reversed k-mer now occupies the top 2k bits; shift down.
	v >>= 64 - 2*uint(k)
	return Kmer(v)
}

// Canonical returns the lexicographically smaller of the k-mer and its
// reverse complement, plus whether the original was already canonical
// (fwd=true) or the reverse complement was taken (fwd=false).
//
// Using canonical k-mers as hash keys makes overlaps between reads sequenced
// from opposite strands discoverable, mirroring BELLA's treatment.
func (km Kmer) Canonical(k int) (canon Kmer, fwd bool) {
	rc := km.ReverseComplement(k)
	if rc < km {
		return rc, false
	}
	return km, true
}

// Hash returns a well-mixed 64-bit hash of the k-mer. It is the
// finalization function of MurmurHash3 (fmix64), which passes avalanche
// tests; ownership mapping and Bloom indexing both derive from it.
func (km Kmer) Hash() uint64 {
	h := uint64(km)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Owner maps the k-mer to one of p ranks uniformly via its hash, as in
// HipMer and diBELLA: each rank owns roughly the same number of distinct
// k-mers regardless of sequence composition.
func (km Kmer) Owner(p int) int {
	if p <= 0 {
		panic("kmer: non-positive rank count")
	}
	// Multiply-shift on the high bits avoids modulo bias and is cheaper
	// than %.
	return int((km.Hash() >> 32 * uint64(p)) >> 32)
}

// Occurrence is one sighting of a k-mer within the read set: the read it
// came from, the offset of its first base within that read, and whether the
// canonical form matched the read's forward orientation.
type Occurrence struct {
	ReadID  uint32
	Pos     uint32
	Forward bool
}

// Extracted is one k-mer pulled from a read together with its location
// metadata, the unit shipped through the all-to-all exchanges.
type Extracted struct {
	Kmer Kmer
	Occ  Occurrence
}

// Scanner iterates over the canonical k-mers of a read using rolling
// extraction: each step shifts one base into the forward k-mer and its
// complement into the reverse-complement k-mer from the other end; runs
// are restarted after any non-ACGT byte, so no emitted k-mer spans an
// ambiguous base.
type Scanner struct {
	seq    []byte
	k      int
	readID uint32
	pos    int  // index of the *next* byte to consume
	run    int  // number of consecutive valid bases ending just before pos
	cur    Kmer // rolling forward k-mer over the current run
	rc     Kmer // its reverse complement, once run >= k
}

// NewScanner returns a Scanner over seq for the given k and read identifier.
func NewScanner(seq []byte, k int, readID uint32) *Scanner {
	checkK(k)
	return &Scanner{seq: seq, k: k, readID: readID}
}

// Next returns the next canonical k-mer and its occurrence metadata.
// ok=false signals the end of the read.
func (s *Scanner) Next() (ex Extracted, ok bool) {
	for s.pos < len(s.seq) {
		code, valid := dna.Code(s.seq[s.pos])
		s.pos++
		if !valid {
			s.run = 0
			continue
		}
		s.cur = s.cur.AppendBase(code, s.k)
		// Bases older than k positions shift out of rc's low end, so stale
		// bits from before a run restart are gone by the time run reaches k.
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

// Count returns the number of k-mers a read of length n yields when every
// base is valid: max(0, n-k+1). The paper approximates this as ≈ n for long
// reads (Eq. 2).
func Count(n, k int) int {
	if n < k {
		return 0
	}
	return n - k + 1
}

// ExtractAll returns all canonical k-mers of seq with their occurrence
// metadata. It is a convenience wrapper over Scanner for tests; the
// pipeline streams instead.
func ExtractAll(seq []byte, k int, readID uint32) []Extracted {
	sc := NewScanner(seq, k, readID)
	var out []Extracted
	if n := Count(len(seq), k); n > 0 {
		out = make([]Extracted, 0, n)
	}
	for {
		ex, ok := sc.Next()
		if !ok {
			return out
		}
		out = append(out, ex)
	}
}
