package kmer

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dibella/internal/dna"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 5, 16, 17, 31, 32} {
		for trial := 0; trial < 20; trial++ {
			s := randomSeq(rng, k)
			km, ok := Pack(s, k)
			if !ok {
				t.Fatalf("Pack(%q, %d) failed", s, k)
			}
			if got := km.Bytes(k); !bytes.Equal(got, s) {
				t.Fatalf("k=%d roundtrip: got %q want %q", k, got, s)
			}
		}
	}
}

func TestPackInvalid(t *testing.T) {
	if _, ok := Pack([]byte("ACGN"), 4); ok {
		t.Error("Pack with N should fail")
	}
	if _, ok := Pack([]byte("ACG"), 4); ok {
		t.Error("Pack with short input should fail")
	}
}

func TestMustPackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPack did not panic on invalid input")
		}
	}()
	MustPack([]byte("ANNA"), 4)
}

func TestCheckKPanics(t *testing.T) {
	for _, k := range []int{0, -1, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d did not panic", k)
				}
			}()
			Pack([]byte("ACGT"), k)
		}()
	}
}

func TestLexicographicOrder(t *testing.T) {
	// Integer order of packed k-mers must match string order.
	a := MustPack([]byte("AACGT"), 5)
	b := MustPack([]byte("AACTT"), 5)
	c := MustPack([]byte("TTTTT"), 5)
	if !(a < b && b < c) {
		t.Errorf("order violated: %v %v %v", a, b, c)
	}
}

func TestReverseComplementKnown(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"A", "T"},
		{"ACGT", "ACGT"},
		{"AAAA", "TTTT"},
		{"GATTACA", "TGTAATC"},
		{"ACGTACGTACGTACGTACGTACGTACGTACGT", "ACGTACGTACGTACGTACGTACGTACGTACGT"},
	}
	for _, c := range cases {
		k := len(c.in)
		km := MustPack([]byte(c.in), k)
		got := km.ReverseComplement(k).Bytes(k)
		if string(got) != c.want {
			t.Errorf("RC(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: packed RC equals packing the byte-level RC, for all k.
func TestReverseComplementMatchesBytes(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)%MaxK + 1
		rng := rand.New(rand.NewSource(seed))
		s := randomSeq(rng, k)
		km := MustPack(s, k)
		want := MustPack(dna.ReverseComplement(s), k)
		return km.ReverseComplement(k) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: RC is an involution.
func TestReverseComplementInvolution(t *testing.T) {
	f := func(v uint64, kRaw uint8) bool {
		k := int(kRaw)%MaxK + 1
		km := Kmer(v & mask(k))
		return km.ReverseComplement(k).ReverseComplement(k) == km
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: a k-mer and its RC share one canonical form.
func TestCanonicalInvariance(t *testing.T) {
	f := func(v uint64, kRaw uint8) bool {
		k := int(kRaw)%MaxK + 1
		km := Kmer(v & mask(k))
		rc := km.ReverseComplement(k)
		c1, _ := km.Canonical(k)
		c2, _ := rc.Canonical(k)
		return c1 == c2 && c1 <= km && c1 <= rc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalForwardFlag(t *testing.T) {
	// AAAA < TTTT, so AAAA is canonical (fwd) and TTTT maps back (not fwd).
	fw := MustPack([]byte("AAAA"), 4)
	if c, fwd := fw.Canonical(4); c != fw || !fwd {
		t.Errorf("AAAA canonical = %v fwd=%v", c, fwd)
	}
	rc := MustPack([]byte("TTTT"), 4)
	if c, fwd := rc.Canonical(4); c != fw || fwd {
		t.Errorf("TTTT canonical = %v fwd=%v", c, fwd)
	}
}

func TestAppendBaseRolls(t *testing.T) {
	k := 5
	s := []byte("ACGTACGTA")
	km := MustPack(s[:k], k)
	for i := k; i < len(s); i++ {
		km = km.appendBase(dna.MustCode(s[i]), k)
		want := MustPack(s[i-k+1:i+1], k)
		if km != want {
			t.Fatalf("rolled k-mer at %d = %q, want %q", i, km.Bytes(k), want.Bytes(k))
		}
	}
}

func TestHashDistribution(t *testing.T) {
	// Sequentially numbered k-mers must spread across owners near-uniformly.
	const p = 16
	const n = 1 << 14
	counts := make([]int, p)
	for i := 0; i < n; i++ {
		counts[Kmer(i).Owner(p)]++
	}
	want := n / p
	for r, c := range counts {
		if c < want*7/10 || c > want*13/10 {
			t.Errorf("rank %d owns %d k-mers, want about %d", r, c, want)
		}
	}
}

func TestOwnerInRange(t *testing.T) {
	f := func(v uint64, pRaw uint8) bool {
		p := int(pRaw)%64 + 1
		o := Kmer(v).Owner(p)
		return o >= 0 && o < p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestHashAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Kmer(0x123456789abcdef).Hash()
	for bit := 0; bit < 64; bit += 7 {
		h := Kmer(uint64(0x123456789abcdef) ^ uint64(1)<<uint(bit)).Hash()
		diff := popcount(h ^ base)
		if diff < 10 || diff > 54 {
			t.Errorf("bit %d: only %d output bits changed", bit, diff)
		}
	}
}

func TestScannerSimple(t *testing.T) {
	seq := []byte("ACGTAC")
	k := 3
	got := ExtractAll(seq, k, 9)
	if len(got) != 4 {
		t.Fatalf("got %d k-mers, want 4", len(got))
	}
	for i, ex := range got {
		if ex.Occ.ReadID != 9 {
			t.Errorf("k-mer %d has ReadID %d", i, ex.Occ.ReadID)
		}
		if int(ex.Occ.Pos) != i {
			t.Errorf("k-mer %d has Pos %d", i, ex.Occ.Pos)
		}
		fwd := MustPack(seq[i:i+k], k)
		canon, _ := fwd.Canonical(k)
		if ex.Kmer != canon {
			t.Errorf("k-mer %d = %q, want canonical %q", i, ex.Kmer.Bytes(k), canon.Bytes(k))
		}
	}
}

func TestScannerSkipsAmbiguous(t *testing.T) {
	// N breaks the run: only k-mers fully inside valid runs are emitted.
	seq := []byte("ACGTNACGT")
	got := ExtractAll(seq, 3, 0)
	if len(got) != 4 { // 2 from each side of the N
		t.Fatalf("got %d k-mers, want 4", len(got))
	}
	wantPos := []uint32{0, 1, 5, 6}
	for i, ex := range got {
		if ex.Occ.Pos != wantPos[i] {
			t.Errorf("k-mer %d Pos = %d, want %d", i, ex.Occ.Pos, wantPos[i])
		}
	}
}

func TestScannerShortAndEmpty(t *testing.T) {
	if got := ExtractAll([]byte("AC"), 3, 0); len(got) != 0 {
		t.Errorf("short read yielded %d k-mers", len(got))
	}
	if got := ExtractAll(nil, 3, 0); len(got) != 0 {
		t.Errorf("empty read yielded %d k-mers", len(got))
	}
	if got := ExtractAll([]byte("NNNNNN"), 3, 0); len(got) != 0 {
		t.Errorf("all-N read yielded %d k-mers", len(got))
	}
}

// Property: scanner emits exactly Count(n,k) k-mers on fully valid reads,
// and every emitted k-mer matches direct packing of the window.
func TestScannerMatchesNaive(t *testing.T) {
	f := func(seed int64, nRaw uint8, kRaw uint8) bool {
		k := int(kRaw)%MaxK + 1
		n := int(nRaw)
		rng := rand.New(rand.NewSource(seed))
		s := randomSeq(rng, n)
		got := ExtractAll(s, k, 1)
		if len(got) != Count(n, k) {
			return false
		}
		for i, ex := range got {
			w, ok := Pack(s[i:i+k], k)
			if !ok {
				return false
			}
			canon, fwd := w.Canonical(k)
			if ex.Kmer != canon || ex.Occ.Forward != fwd || int(ex.Occ.Pos) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// The rolling reverse complement is never reset: an N at every offset
	// (and two in a row) checks that whatever it held before a run restart
	// has shifted out by the time the run is k long again.
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 17, 31, 32} {
		clean := randomSeq(rng, 2*k+9)
		for off := 0; off < len(clean); off++ {
			s := append([]byte(nil), clean...)
			s[off] = 'N'
			if off%2 == 1 && off+1 < len(s) {
				s[off+1] = 'N'
			}
			var want []Extracted
			for i := 0; i+k <= len(s); i++ {
				if w, ok := Pack(s[i:i+k], k); ok {
					canon, fwd := w.Canonical(k)
					want = append(want, Extracted{canon, Occurrence{ReadID: 1, Pos: uint32(i), Forward: fwd}})
				}
			}
			if got := ExtractAll(s, k, 1); !slices.Equal(got, want) {
				t.Fatalf("k=%d N at %d: scanner emitted %v, naive %v", k, off, got, want)
			}
		}
	}
}

func TestCount(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{0, 3, 0}, {2, 3, 0}, {3, 3, 1}, {10, 3, 8}, {17, 17, 1},
	}
	for _, c := range cases {
		if got := Count(c.n, c.k); got != c.want {
			t.Errorf("Count(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func popcount(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

func randomSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return s
}

func BenchmarkScanner(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	seq := randomSeq(rng, 10000)
	b.SetBytes(int64(len(seq)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewScanner(seq, 17, 0)
		for {
			if _, ok := sc.Next(); !ok {
				break
			}
		}
	}
}

func BenchmarkHash(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= Kmer(i).Hash()
	}
	_ = acc
}

func BenchmarkScannerFill(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	seq := randomSeq(rng, 10000)
	b.SetBytes(int64(len(seq)))
	var (
		sc   Scanner
		keys [512]Kmer
		locs [512]Loc
	)
	for i := 0; i < b.N; i++ {
		sc.Reset(seq, 17, 0)
		for sc.Fill(keys[:], locs[:]) == len(keys) {
		}
	}
}
