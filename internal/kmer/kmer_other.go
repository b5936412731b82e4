//go:build !amd64

package kmer

// useAVX2 is false off amd64: the Go loop is the kernel.
const useAVX2 = false

func rollAVX2(chunk []byte, keys []Kmer, locs []Loc, k int, cur, rc uint64, l Loc) (int, uint64, uint64) {
	panic("kmer: no assembly kernel on this architecture")
}
