package kmer

import "dibella/internal/cpuid"

// useAVX2 selects the assembly routine under roll. It is decided once, from
// CPUID, and only tests ever write it again.
var useAVX2 = cpuid.AVX2()

// rollAVX2 is roll over chunk's leading whole 32-byte windows of ACGT, for
// 8 <= k <= 31 (kmer_amd64.s): it returns how many bases it rolled, a
// multiple of 32, and the rolled cur and rc. keys and locs must be as long
// as chunk.
//
//go:noescape
func rollAVX2(chunk []byte, keys []Kmer, locs []Loc, k int, cur, rc uint64, l Loc) (n int, curOut, rcOut uint64)
