package kmer

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRollKernelMatchesGo holds the assembly routine to rollGo, its
// oracle, on every k it takes: chunks of ACGT in either case with an
// ambiguous byte anywhere or nowhere, from any run state, at any location.
func TestRollKernelMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2")
	}
	rng := rand.New(rand.NewSource(34))
	rolled := 0
	for trial := 0; trial < 3000; trial++ {
		k := 8 + trial%24
		chunk := make([]byte, rng.Intn(300))
		for i := range chunk {
			chunk[i] = "ACGTacgt"[rng.Intn(8)]
		}
		if len(chunk) > 0 && trial%3 == 0 {
			chunk[rng.Intn(len(chunk))] = "NnX\x00"[rng.Intn(4)]
		}
		var s Scanner
		s.Reset(nil, k, 0)
		r := &s.enc
		cur, rc := rng.Uint64()&r.mask, rng.Uint64()&r.mask
		l := Loc(rng.Uint32())<<32 | Loc(rng.Intn(1<<20))<<1
		keys, locs := make([]Kmer, len(chunk)), make([]Loc, len(chunk))
		n, c1, r1 := rollAVX2(chunk, keys, locs, k, cur, rc, l)
		rolled += n
		wantKeys, wantLocs := make([]Kmer, len(chunk)), make([]Loc, len(chunk))
		m, c2, r2 := r.rollGo(chunk[:n], wantKeys, wantLocs, cur, rc, l)
		if n%32 != 0 || m != n || c1 != c2 || r1 != r2 ||
			!slices.Equal(keys[:n], wantKeys[:n]) || !slices.Equal(locs[:n], wantLocs[:n]) {
			t.Fatalf("k=%d chunk %q: kernel rolled %d bases to (%x, %x), Go %d to (%x, %x); keys equal %v, locations %v",
				k, chunk, n, c1, r1, m, c2, r2, slices.Equal(keys[:n], wantKeys[:n]), slices.Equal(locs[:n], wantLocs[:n]))
		}
		if tail, _, _ := r.rollGo(chunk[n:], wantKeys, wantLocs, c1, r1, l); n+tail < len(chunk) && n+32 <= len(chunk) && tail >= 32 {
			t.Fatalf("k=%d: kernel stopped at %d with a whole window of ACGT after it", k, n)
		}
	}
	if rolled < 100000 {
		t.Fatalf("the kernel rolled %d bases of the trials' ~450000", rolled)
	}
}

// TestScanMatchesReferenceGoLoop is TestScanMatchesReference with the
// assembly routine off, so that the Go loop meets the oracle on this
// architecture too.
func TestScanMatchesReferenceGoLoop(t *testing.T) {
	was := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = was }()
	TestScanMatchesReference(t)
}
