//go:build !amd64

package bloom

import "dibella/internal/kmer"

// useAVX2 is false off amd64: InsertAndTest and Contains are the kernel.
const useAVX2 = false

func insertAVX2(words []uint64, blocks uint64, keys []kmer.Kmer, seen []uint32) int {
	panic("bloom: no assembly kernel on this architecture")
}

func routeAVX2(segs [][]uint64, blocks uint64, keys []kmer.Kmer, owner []int32) {
	panic("bloom: no assembly kernel on this architecture")
}
