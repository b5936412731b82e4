package bloom

import (
	"dibella/internal/cpuid"
	"dibella/internal/kmer"
)

// useAVX2 selects the assembly routines under InsertAndTestKmers and Route.
// It is decided once, from CPUID, and only tests ever write it again.
var useAVX2 = cpuid.AVX2()

// insertAVX2 is InsertAndTest over keys in order, each hashed by kmer.Hash
// (bloom_amd64.s): it writes the index of every key that was present before
// its insertion to seen and its hash to hashes, in order, and returns how
// many it wrote. seen and hashes must be as long as keys.
//
//go:noescape
func insertAVX2(words []uint64, blocks uint64, keys []kmer.Kmer, seen []uint32, hashes []uint64) int

// routeAVX2 is Route over segs, blocks blocks each (bloom_amd64.s). owner
// must be as long as keys.
//
//go:noescape
func routeAVX2(segs [][]uint64, blocks uint64, keys []kmer.Kmer, owner []int32)
