// Package dna provides primitive operations on DNA sequences over the
// four-letter alphabet {A, C, G, T}: 2-bit base codes, reverse complements
// and validation.
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

// IsValid reports whether every byte of s is an A/C/G/T in either case.
func IsValid(s []byte) bool {
	for _, b := range s {
		if codeTable[b] == 0xFF {
			return false
		}
	}
	return true
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
