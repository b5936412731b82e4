package bloom

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"dibella/internal/kmer"
)

func TestNewRoundsUp(t *testing.T) {
	for _, c := range []struct{ m, want uint64 }{
		{1, 512}, {100, 512}, {512, 512}, {513, 1024}, {64 * 10, 1024},
	} {
		if got := New(c.m, 3).NumBits(); got != c.want {
			t.Errorf("New(%d).NumBits() = %d, want %d: sizes round up to whole 512-bit blocks", c.m, got, c.want)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	if got := New(64*10, 2).SizeBytes(); got != 128 {
		t.Errorf("SizeBytes = %d, want 128 (two 64-byte blocks)", got)
	}
}

func TestNewPanics(t *testing.T) {
	for _, c := range []struct {
		m uint64
		h int
	}{{0, 1}, {64, 0}, {64, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c.m, c.h)
				}
			}()
			New(c.m, c.h)
		}()
	}
}

func TestNewWithEstimatePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWithEstimate(_, %v) did not panic", p)
				}
			}()
			NewWithEstimate(100, p)
		}()
	}
}

// FuzzBloomNoFalseNegatives is the filter's one hard contract: whatever the
// keys and however the filter was sized (one key, one block, one key over a
// block boundary, more keys than it was sized for), everything inserted is
// contained and every re-insert reports present.
func FuzzBloomNoFalseNegatives(f *testing.F) {
	key := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	f.Add(key(42), uint32(1), uint8(1))
	f.Add(key(0, ^uint64(0), 1<<63, 1), uint32(53), uint8(1)) // 9.59 bits/key: 53 keys fill one block,
	f.Add(key(7, 7, 7), uint32(54), uint8(1))                 // 54 spill into a second
	f.Add(key(1, 2, 3, 4, 5, 6, 7, 8, 9), uint32(2), uint8(0))
	f.Add([]byte{1, 2, 3}, uint32(100000), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, n uint32, pIdx uint8) {
		var keys []uint64
		for ; len(data) >= 8; data = data[8:] {
			keys = append(keys, binary.LittleEndian.Uint64(data))
		}
		checkNoFalseNegatives(t, keys, uint64(n%(1<<20)), []float64{0.0001, 0.01, 0.1, 0.5}[pIdx%4])
	})
}

func checkNoFalseNegatives(t *testing.T, keys []uint64, n uint64, p float64) {
	t.Helper()
	bf := NewWithEstimate(n, p)
	for _, k := range keys {
		bf.InsertAndTest(k)
	}
	for _, k := range keys {
		if !bf.Contains(k) {
			t.Fatalf("key %#x inserted but not contained (n=%d p=%v)", k, n, p)
		}
		if !bf.InsertAndTest(k) {
			t.Fatalf("re-insert of %#x reported absent (n=%d p=%v)", k, n, p)
		}
	}
}

// The same contract on random key sets at design load, and on whatever
// slices testing/quick makes up.
func TestNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 53, 54, 2000} {
		checkNoFalseNegatives(t, randomKeys(rng, n), uint64(n), 0.05)
	}
}

func TestInsertAndTestNeverForgets(t *testing.T) {
	f := func(keys []uint64) bool {
		checkNoFalseNegatives(t, keys, uint64(len(keys)), 0.05)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// measureFP fills a filter sized for len(keys) at rate p with keys and
// returns the fraction of probes (none of them inserted) it claims to
// contain.
func measureFP(keys, probes []uint64, p float64) (*Filter, float64) {
	bf := NewWithEstimate(uint64(len(keys)), p)
	for _, k := range keys {
		bf.InsertAndTest(k)
	}
	fp := 0
	for _, k := range probes {
		if bf.Contains(k) {
			fp++
		}
	}
	return bf, float64(fp) / float64(len(probes))
}

func randomKeys(rng *rand.Rand, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	return keys
}

// At design load the measured false-positive rate stays within 1.5x of the
// configured one — the blocked layout's penalty included.
func TestFalsePositiveRateBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := randomKeys(rng, 100000)
	probes := randomKeys(rng, 1000000)
	for _, p := range []float64{0.001, 0.01, 0.1} {
		if _, rate := measureFP(keys, probes, p); rate > 1.5*p {
			t.Errorf("p=%v: measured FP %.5f exceeds 1.5x the target", p, rate)
		} else {
			t.Logf("p=%v: measured FP %.5f (%.2fx)", p, rate, rate/p)
		}
	}
}

// One rank's filter only ever sees keys whose kmer.Owner is that rank —
// keys that share the top bits of their hash. The block index has to
// ignore that: restricted to one owner, the filter must fill its blocks as
// evenly and keep the same false-positive rate as on unrestricted keys. (A
// block index taken straight from the hash's top bits passes every other
// test in the repo and fails this one: it uses 1/P of the blocks.)
func TestOwnerRestrictedKeysSpreadOverAllBlocks(t *testing.T) {
	const n, trials, target = 60000, 300000, 0.01
	rng := rand.New(rand.NewSource(2))
	_, base := measureFP(randomKeys(rng, n), randomKeys(rng, trials), target)
	for _, p := range []int{2, 3, 8} {
		for _, r := range []int{0, p - 1} {
			owned := func(count int) []uint64 {
				out := make([]uint64, 0, count)
				for len(out) < count {
					if km := kmer.Kmer(rng.Uint64()); km.Owner(p) == r {
						out = append(out, km.Hash())
					}
				}
				return out
			}
			bf, rate := measureFP(owned(n), owned(trials), target)
			if rate > 1.2*base+0.001 || rate > 1.5*target {
				t.Errorf("P=%d rank %d: FP %.4f on owner-restricted keys, %.4f unrestricted", p, r, rate, base)
			}
			maxSet, total := 0, 0
			for b := 0; b < len(bf.bits); b += blockWords {
				set := 0
				for _, w := range bf.bits[b : b+blockWords] {
					set += bits.OnesCount64(w)
				}
				maxSet, total = max(maxSet, set), total+set
			}
			// Half the bits set on average at design load; an even spread
			// keeps the fullest of ~1100 blocks under 1.5x that.
			mean := float64(total) / float64(bf.blocks)
			if mean < 0.4*blockBits || float64(maxSet) > 1.5*mean {
				t.Errorf("P=%d rank %d: block occupancy max %d, mean %.1f of %d bits", p, r, maxSet, mean, blockBits)
			}
		}
	}
}

func TestInsertAndTestSemantics(t *testing.T) {
	bf := NewWithEstimate(1000, 0.01)
	if bf.InsertAndTest(42) {
		t.Error("first insertion reported present")
	}
	if !bf.InsertAndTest(42) {
		t.Error("second insertion reported absent (false negative)")
	}
	if !bf.Contains(42) {
		t.Error("Contains after insert failed")
	}
}

func TestReset(t *testing.T) {
	bf := New(1024, 3)
	bf.InsertAndTest(7)
	if !bf.Contains(7) {
		t.Fatal("insert failed")
	}
	bf.Reset()
	if bf.Contains(7) {
		t.Error("Reset did not clear bits")
	}
	if bf.InsertAndTest(7) {
		t.Error("first insertion after Reset reported present")
	}
}

func TestSingletonDetectionScenario(t *testing.T) {
	// The pipeline use case: feed a k-mer stream where some k-mers repeat;
	// InsertAndTest must flag every repeated k-mer at least once, and the
	// set of flagged k-mers may include a few singleton false positives but
	// must contain all true repeats.
	rng := rand.New(rand.NewSource(4))
	const distinct = 20000
	keys := randomKeys(rng, distinct)
	// First 10% of keys appear 3x, the rest once (long-read-like skew).
	var stream []uint64
	repeated := make(map[uint64]bool)
	for i, k := range keys {
		stream = append(stream, k)
		if i < distinct/10 {
			stream = append(stream, k, k)
			repeated[k] = true
		}
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })

	bf := NewWithEstimate(distinct, 0.01)
	flagged := make(map[uint64]bool)
	for _, k := range stream {
		if bf.InsertAndTest(k) {
			flagged[k] = true
		}
	}
	for k := range repeated {
		if !flagged[k] {
			t.Fatal("a repeated k-mer was not flagged (false negative)")
		}
	}
	// False-positive singletons should be rare.
	extras := len(flagged) - len(repeated)
	if extras > distinct/100 {
		t.Errorf("%d singleton false positives flagged (>1%%)", extras)
	}
}

// The filter is the size dht.Build gives one rank on the bench workloads
// (~1.2 MB, cache-resident), refilled to design load over and over.
func BenchmarkInsertAndTest(b *testing.B) {
	const n = 1 << 20
	bf := NewWithEstimate(n, 0.01)
	seen := 0
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			bf.Reset()
		}
		if bf.InsertAndTest(uint64(i) * 0x9e3779b97f4a7c15) {
			seen++
		}
	}
	b.ReportMetric(float64(seen)/float64(b.N), "fp/op")
}
