package dna

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCodeRoundTrip(t *testing.T) {
	for _, b := range []byte("ACGT") {
		c, ok := Code(b)
		if !ok {
			t.Fatalf("Code(%q) not ok", b)
		}
		if Base(c) != b {
			t.Errorf("Base(Code(%q)) = %q", b, Base(c))
		}
	}
	for _, b := range []byte("acgt") {
		c, ok := Code(b)
		if !ok {
			t.Fatalf("Code(%q) not ok", b)
		}
		if Base(c) != bytes.ToUpper([]byte{b})[0] {
			t.Errorf("Base(Code(%q)) = %q", b, Base(c))
		}
	}
}

func TestCodeInvalid(t *testing.T) {
	for _, b := range []byte("NnXU-*. \t1") {
		if _, ok := Code(b); ok {
			t.Errorf("Code(%q) unexpectedly ok", b)
		}
	}
}

func TestMustCodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCode('N') did not panic")
		}
	}()
	MustCode('N')
}

func TestReverseComplement(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"A", "T"},
		{"ACGT", "ACGT"}, // palindrome
		{"AACC", "GGTT"},
		{"GATTACA", "TGTAATC"},
		{"acgt", "acgt"},
		{"ANA", "TNT"},
	}
	for _, c := range cases {
		if got := string(ReverseComplement([]byte(c.in))); got != c.want {
			t.Errorf("ReverseComplement(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: reverse complement is an involution on valid DNA.
func TestReverseComplementInvolution(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSeq(rng, int(n))
		return bytes.Equal(ReverseComplement(ReverseComplement(s)), s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsValid(t *testing.T) {
	if !IsValid([]byte("ACGTacgt")) {
		t.Error("ACGTacgt should be valid")
	}
	if IsValid([]byte("ACGTN")) {
		t.Error("ACGTN should be invalid")
	}
	if !IsValid(nil) {
		t.Error("empty sequence should be valid")
	}
}

func randomSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return s
}
