// Package dna provides primitive operations on DNA sequences over the
// four-letter alphabet {A, C, G, T}: 2-bit base codes, complementation,
// reverse complements, validation, and a packed 2-bit sequence
// representation.
//
// The 2-bit code assigns A=0, C=1, G=2, T=3. This ordering makes the
// complement of a code c equal to 3-c (equivalently c^3), which the rest of
// the repository relies on for branch-free reverse complementation of packed
// k-mers.
package dna

import (
	"fmt"
	"slices"
)

// Base codes for the 2-bit representation.
const (
	A byte = 0
	C byte = 1
	G byte = 2
	T byte = 3
)

// codeTable maps an ASCII byte to its 2-bit code, or 0xFF for bytes that are
// not an upper- or lower-case A/C/G/T (including N and other IUPAC ambiguity
// codes, which long-read pipelines treat as breakpoints in k-mer extraction).
var codeTable = func() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = 0xFF
	}
	t['A'], t['a'] = A, A
	t['C'], t['c'] = C, C
	t['G'], t['g'] = G, G
	t['T'], t['t'] = T, T
	return t
}()

// baseTable maps a 2-bit code back to its upper-case ASCII byte.
var baseTable = [4]byte{'A', 'C', 'G', 'T'}

// complementTable maps an ASCII base to its complement, preserving case, and
// maps every other byte to 'N'.
var complementTable = func() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = 'N'
	}
	t['A'], t['a'] = 'T', 't'
	t['C'], t['c'] = 'G', 'g'
	t['G'], t['g'] = 'C', 'c'
	t['T'], t['t'] = 'A', 'a'
	return t
}()

// Code returns the 2-bit code for an ASCII base and whether the byte was a
// valid A/C/G/T (either case).
func Code(b byte) (code byte, ok bool) {
	c := codeTable[b]
	return c, c != 0xFF
}

// MustCode returns the 2-bit code for an ASCII base, panicking on invalid
// input. It is intended for callers that have already validated the sequence.
func MustCode(b byte) byte {
	c := codeTable[b]
	if c == 0xFF {
		panic(fmt.Sprintf("dna: invalid base %q", b))
	}
	return c
}

// Base returns the upper-case ASCII base for a 2-bit code in [0,3].
func Base(code byte) byte { return baseTable[code&3] }

// ComplementCode returns the 2-bit code of the complementary base.
func ComplementCode(code byte) byte { return code ^ 3 }

// ComplementByte returns the complement of an ASCII base, preserving case;
// non-ACGT bytes complement to 'N'.
func ComplementByte(b byte) byte { return complementTable[b] }

// IsValid reports whether every byte of s is an A/C/G/T in either case.
func IsValid(s []byte) bool {
	for _, b := range s {
		if codeTable[b] == 0xFF {
			return false
		}
	}
	return true
}

// CountValid returns the number of A/C/G/T bytes in s.
func CountValid(s []byte) int {
	n := 0
	for _, b := range s {
		if codeTable[b] != 0xFF {
			n++
		}
	}
	return n
}

// ReverseComplement returns the reverse complement of s as a new slice.
// Non-ACGT bytes become 'N'.
func ReverseComplement(s []byte) []byte {
	return AppendReverseComplement(make([]byte, 0, len(s)), s)
}

// AppendReverseComplement appends the reverse complement of s to dst and
// returns the extended slice, so a caller that keeps its buffers pays for a
// new one only when a read outgrows them. s must not overlap dst's spare
// capacity.
func AppendReverseComplement(dst, s []byte) []byte {
	dst = slices.Grow(dst, len(s))
	out := dst[len(dst) : len(dst)+len(s)]
	for i, b := range s {
		out[len(s)-1-i] = complementTable[b]
	}
	return dst[:len(dst)+len(s)]
}

// ReverseComplementInPlace reverse-complements s in place.
func ReverseComplementInPlace(s []byte) {
	i, j := 0, len(s)-1
	for i < j {
		s[i], s[j] = complementTable[s[j]], complementTable[s[i]]
		i, j = i+1, j-1
	}
	if i == j {
		s[i] = complementTable[s[i]]
	}
}

// Packed is a DNA sequence stored at 2 bits per base. It supports random
// access and append; it is the memory-frugal representation used for read
// storage when replicating reads across ranks in the alignment stage.
type Packed struct {
	words []uint64
	n     int // number of bases
}

// basesPerWord is the number of 2-bit bases stored per uint64 word.
const basesPerWord = 32

// NewPacked packs an ASCII sequence. Invalid bytes are recorded as 'A'
// (callers that care must validate first; k-mer extraction never crosses
// invalid bytes, so the substitution is harmless downstream).
func NewPacked(s []byte) *Packed {
	p := &Packed{words: make([]uint64, 0, (len(s)+basesPerWord-1)/basesPerWord)}
	for _, b := range s {
		c := codeTable[b]
		if c == 0xFF {
			c = A
		}
		p.AppendCode(c)
	}
	return p
}

// Len returns the number of bases in the sequence.
func (p *Packed) Len() int { return p.n }

// AppendCode appends a single 2-bit base code.
func (p *Packed) AppendCode(code byte) {
	slot := p.n % basesPerWord
	if slot == 0 {
		p.words = append(p.words, 0)
	}
	p.words[len(p.words)-1] |= uint64(code&3) << (2 * uint(slot))
	p.n++
}

// CodeAt returns the 2-bit code of the base at index i.
func (p *Packed) CodeAt(i int) byte {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("dna: index %d out of range [0,%d)", i, p.n))
	}
	w := p.words[i/basesPerWord]
	return byte(w>>(2*uint(i%basesPerWord))) & 3
}

// ByteAt returns the upper-case ASCII base at index i.
func (p *Packed) ByteAt(i int) byte { return baseTable[p.CodeAt(i)] }

// Bytes unpacks the sequence into a fresh ASCII byte slice.
func (p *Packed) Bytes() []byte {
	out := make([]byte, p.n)
	for i := 0; i < p.n; i++ {
		out[i] = baseTable[p.CodeAt(i)]
	}
	return out
}

// SizeBytes returns the heap footprint of the packed payload in bytes.
func (p *Packed) SizeBytes() int { return 8 * len(p.words) }

// GC returns the fraction of G or C bases in s, counting only valid bases;
// it returns 0 for sequences with no valid bases.
func GC(s []byte) float64 {
	gc, valid := 0, 0
	for _, b := range s {
		c := codeTable[b]
		if c == 0xFF {
			continue
		}
		valid++
		if c == C || c == G {
			gc++
		}
	}
	if valid == 0 {
		return 0
	}
	return float64(gc) / float64(valid)
}
