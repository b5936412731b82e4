package bloom

import (
	"math/rand"
	"testing"

	"dibella/internal/kmer"
)

// The fallback loops under InsertAndTestKmers and Route, which only run off
// amd64 or without AVX2, held to the per-key methods here too.
func TestFallbackMatchesGo(t *testing.T) {
	was := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = was }()
	rng := rand.New(rand.NewSource(6))
	keys := make([]kmer.Kmer, 5000)
	for i := range keys {
		keys[i] = kmer.Kmer(rng.Uint64())
	}
	checkKernels(t, keys[:4000], keys[4000:], 40, 3)
}
