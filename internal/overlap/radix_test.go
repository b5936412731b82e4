package overlap

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// sortedStable is RadixSort's oracle: the standard library's stable sort
// by key.
func sortedStable(recs []KeyVal) []KeyVal {
	want := slices.Clone(recs)
	slices.SortStableFunc(want, func(a, b KeyVal) int {
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		}
		return 0
	})
	return want
}

// checkRadix sorts recs with scratch and holds the result to the oracle;
// it returns the sorted slice and the spare RadixSort hands back.
func checkRadix(t *testing.T, recs, scratch []KeyVal) (sorted, spare []KeyVal) {
	t.Helper()
	want := sortedStable(recs)
	sorted, spare = RadixSort(recs, scratch)
	if !slices.Equal(sorted, want) {
		t.Fatalf("n=%d: radix order differs from the stable sort's", len(recs))
	}
	if len(spare) != len(recs) {
		t.Fatalf("n=%d: spare of length %d", len(recs), len(spare))
	}
	return sorted, spare
}

// Each record's value is its input index, so the oracle's stable order
// is the only right answer.
func indexed(keys []uint64) []KeyVal {
	recs := make([]KeyVal, len(keys))
	for i, k := range keys {
		recs[i] = KeyVal{Key: k, Val: uint64(i)}
	}
	return recs
}

func TestRadixSortMatchesStdSort(t *testing.T) {
	f := func(seed int64, nRaw uint16, spread uint8) bool {
		n := int(nRaw) % 2000
		rng := rand.New(rand.NewSource(seed))
		keys := make([]uint64, n)
		for i := range keys {
			// Few distinct keys at a small spread, so ties are common.
			keys[i] = rng.Uint64() >> (spread % 64)
		}
		recs := indexed(keys)
		want := sortedStable(recs)
		sorted, _ := RadixSort(recs, nil)
		return slices.Equal(sorted, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRadixSortEveryByte: keys that differ in one byte only, for each of
// the eight, with every other pass constant (and so skipped). A pass that
// skipped or misread that byte would leave the keys in input order.
func TestRadixSortEveryByte(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for b := 0; b < 8; b++ {
		base := rng.Uint64() &^ (0xff << (8 * b))
		keys := make([]uint64, 300)
		for i := range keys {
			keys[i] = base | uint64(rng.Intn(256))<<(8*b)
		}
		checkRadix(t, indexed(keys), nil)
		// Two bytes at once: b and its neighbour, low pass then high.
		if b < 7 {
			for i := range keys {
				keys[i] ^= uint64(rng.Intn(4)) << (8 * (b + 1))
			}
			checkRadix(t, indexed(keys), nil)
		}
	}
}

func TestRadixSortStability(t *testing.T) {
	// Equal keys keep input order, across a byte of 0 and 0xff.
	recs := []KeyVal{
		{Key: 0x5ff, Val: 0}, {Key: 0x300, Val: 1}, {Key: 0x5ff, Val: 2},
		{Key: 0x300, Val: 3}, {Key: 0x5ff, Val: 4}, {Key: 0x300, Val: 5},
	}
	recs, _ = RadixSort(recs, nil)
	want := []KeyVal{
		{Key: 0x300, Val: 1}, {Key: 0x300, Val: 3}, {Key: 0x300, Val: 5},
		{Key: 0x5ff, Val: 0}, {Key: 0x5ff, Val: 2}, {Key: 0x5ff, Val: 4},
	}
	if !slices.Equal(recs, want) {
		t.Errorf("unstable sort: %v", recs)
	}
}

func TestRadixSortSmall(t *testing.T) {
	if sorted, spare := RadixSort(nil, nil); len(sorted)+len(spare) != 0 {
		t.Errorf("n=0: %d sorted, %d spare", len(sorted), len(spare))
	}
	one := []KeyVal{{Key: 42, Val: 7}}
	if sorted, _ := RadixSort(one, nil); !slices.Equal(sorted, []KeyVal{{Key: 42, Val: 7}}) {
		t.Errorf("single-element sort gave %v", sorted)
	}
}

// TestRadixSortReusesScratch: two buffers serve sorts of every length, as
// a World's serve its batches, trading places as RadixSort hands them
// back and growing only when a sort needs more.
func TestRadixSortReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var recs, scratch []KeyVal
	for _, n := range []int{5, 1000, 3, 0, 1, 999, 2000, 17} {
		recs = recs[:0]
		for i := 0; i < n; i++ {
			recs = append(recs, KeyVal{Key: rng.Uint64() >> rng.Intn(60), Val: uint64(i)})
		}
		caps := []int{cap(recs), cap(scratch)}
		recs, scratch = checkRadix(t, recs, scratch)
		if got := []int{cap(recs), cap(scratch)}; n <= caps[1] && !slices.Equal(got, caps) && !slices.Equal(got, []int{caps[1], caps[0]}) {
			t.Fatalf("n=%d: buffers of capacity %v came back as %v", n, caps, got)
		}
	}
}
