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

// Loc is where a scanned k-mer was read, packed in one word: the read's ID
// in the high 32 bits and, in the low 32, the offset of the k-mer's first
// base shifted left once with the strand bit (1 = the canonical form is the
// read's forward strand) in bit 0.
type Loc uint64

// Occurrence unpacks l.
func (l Loc) Occurrence() Occurrence {
	return Occurrence{ReadID: uint32(l >> 32), Pos: uint32(l) >> 1, Forward: l&1 == 1}
}

// blockLen is how many k-mers Next buffers per Fill.
const blockLen = 512

// Scanner extracts the canonical k-mers of a read by rolling extraction:
// each step shifts one base into the forward k-mer and its complement into
// the reverse-complement k-mer from the other end; a run restarts after any
// non-ACGT byte, so no k-mer spans an ambiguous base. Fill scans a block of
// k-mers per call and resumes where the last call stopped; Next hands out
// one k-mer at a time from a block Fill buffered in the Scanner. A read is
// consumed through one or the other, not both.
type Scanner struct {
	seq  []byte
	id   Loc // readID<<32, the high half of every Loc
	enc  roller
	pos  int    // index of the next byte to consume
	run  int    // consecutive valid bases ending just before pos
	cur  uint64 // rolling forward k-mer over the current run
	rc   uint64 // its reverse complement, once run >= k
	at   int    // Next's view: the next unread slot of keys and locs
	n    int    // and how many of them Fill wrote
	keys [blockLen]Kmer
	locs [blockLen]Loc
}

// roller is what rolling one base in takes at a given k: the forward
// k-mer's mask, and per base code its complement at the reverse
// complement's 5' end; and whether the assembly routine takes k (AVX2,
// 8 <= k <= 31).
type roller struct {
	mask uint64
	rcIn [4]uint64
	k    int
	wide bool
}

// NewScanner returns a Scanner over seq for the given k and read identifier.
func NewScanner(seq []byte, k int, readID uint32) *Scanner {
	s := new(Scanner)
	s.Reset(seq, k, readID)
	return s
}

// Reset points s at a new read, keeping its block buffer.
func (s *Scanner) Reset(seq []byte, k int, readID uint32) {
	checkK(k)
	s.seq, s.id = seq, Loc(readID)<<32
	s.enc.mask, s.enc.k, s.enc.wide = mask(k), k, useAVX2 && k >= 8 && k <= 31
	for c := range s.enc.rcIn {
		s.enc.rcIn[c] = uint64(3^c) << (2 * uint(k-1))
	}
	s.pos, s.run, s.cur, s.rc, s.at, s.n = 0, 0, 0, 0, 0, 0
}

// Fill writes the read's next canonical k-mers into keys and their
// locations into locs (which must be at least as long), and returns how many
// it wrote. It writes len(keys) unless the read runs out first, so a short
// count means the read is done, and 0 that it already was.
//
// The first k-1 bases of a run complete no k-mer and are rolled in one at a
// time; from there on every valid base completes one, and roll takes them a
// block at a time, up to the next non-ACGT byte, which restarts the run.
func (s *Scanner) Fill(keys []Kmer, locs []Loc) int {
	locs = locs[:len(keys)]
	enc := &s.enc
	k := enc.k
	cur, rc, run := s.cur, s.rc, s.run
	seq, i, j := s.seq, s.pos, 0
	for j < len(keys) && i < len(seq) {
		if run < k-1 {
			c, _ := dna.Code(seq[i])
			i++
			if c > 3 { // not ACGT: dna.Code's 0xFF
				run = 0
				continue
			}
			cur = (cur<<2 | uint64(c)) & enc.mask
			// Bases older than k positions shift out of rc's low end, so
			// stale bits from before a run restart are gone by the time
			// run reaches k.
			rc = rc>>2 | enc.rcIn[c]
			run++
			continue
		}
		chunk := seq[i : i+min(len(seq)-i, len(keys)-j)]
		var t int
		t, cur, rc = enc.roll(chunk, keys[j:], locs[j:], cur, rc, s.id+Loc(2*(i+1-k)))
		i, j, run = i+t, j+t, run+t
		if t < len(chunk) {
			i, run = i+1, 0
		}
	}
	s.pos, s.cur, s.rc, s.run = i, cur, rc, run
	return j
}

// roll rolls the bases of chunk into cur and rc for as long as they are
// ACGT, writing the canonical k-mer each completes and its location to keys
// and locs, and returns how many bases that was with the rolled cur and rc.
// The run must already hold k-1 bases; l is the location of the k-mer
// chunk[0] completes. Where the assembly routine takes k, it rolls the
// leading whole 32-byte windows of ACGT and rollGo the rest.
func (r *roller) roll(chunk []byte, keys []Kmer, locs []Loc, cur, rc uint64, l Loc) (int, uint64, uint64) {
	n := 0
	if r.wide && len(chunk) >= 32 {
		n, cur, rc = rollAVX2(chunk, keys[:len(chunk)], locs[:len(chunk)], r.k, cur, rc, l)
	}
	t, cur, rc := r.rollGo(chunk[n:], keys[n:], locs[n:], cur, rc, l+Loc(2*n))
	return n + t, cur, rc
}

// rollGo is roll in Go, the assembly routine's fallback and oracle. The key
// is min(forward, reverse complement) and the strand bit forward <= reverse
// complement, so a palindrome reads forward; neither takes a branch. It is
// a function of its own so that cur and rc stay in registers.
func (r *roller) rollGo(chunk []byte, keys []Kmer, locs []Loc, cur, rc uint64, l Loc) (int, uint64, uint64) {
	keys, locs = keys[:len(chunk)], locs[:len(chunk)]
	for t, b := range chunk {
		c, _ := dna.Code(b)
		if c > 3 {
			return t, cur, rc
		}
		cur = (cur<<2 | uint64(c)) & r.mask
		rc = rc>>2 | r.rcIn[c]
		var fwd Loc
		if cur <= rc {
			fwd = 1
		}
		keys[t] = Kmer(min(cur, rc))
		locs[t] = l + Loc(2*t) | fwd
	}
	return len(chunk), cur, rc
}

// Next returns the next canonical k-mer and its occurrence metadata from
// the block Fill last buffered, refilling it when it is spent. ok=false
// signals the end of the read.
func (s *Scanner) Next() (ex Extracted, ok bool) {
	i := s.at
	if i >= s.n {
		if !s.refill() {
			return Extracted{}, false
		}
		i = 0
	}
	s.at = i + 1
	i &= blockLen - 1 // in range already; the mask spares a bounds check
	return Extracted{Kmer: s.keys[i], Occ: s.locs[i].Occurrence()}, true
}

// refill scans the next block into s.keys and s.locs for Next; false means
// the read is done.
func (s *Scanner) refill() bool {
	s.at, s.n = 0, s.Fill(s.keys[:], s.locs[:])
	return s.n > 0
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
	for ex, ok := sc.Next(); ok; ex, ok = sc.Next() {
		out = append(out, ex)
	}
	return out
}
