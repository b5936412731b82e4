package bloom

import (
	"fmt"
	"math"
	"math/bits"
)

const (
	blockWords = 8               // one 64-byte cache line
	blockBits  = blockWords * 64 // 512: a probe is 9 bits of hash
	probeBits  = 9
	probesPer  = 64 / probeBits // probes one 64-bit remix pays for

	// Odd multipliers (the 64-bit golden ratio and MurmurHash3's second
	// fmix64 constant) for the two remixes in locate.
	mixBlock = 0x9e3779b97f4a7c15
	mixProbe = 0xc4ceb9fe1a85ec53

	// fpSlack is how much of the blocked layout's false-positive penalty
	// NewWithEstimate pays in FP before it starts paying in bits.
	fpSlack = 1.25
)

// Filter is a cache-line-blocked Bloom filter over 64-bit keys (pre-hashed
// k-mers). The zero value is unusable; construct with New or
// NewWithEstimate.
type Filter struct {
	bits   []uint64
	blocks uint64 // len(bits) / blockWords
	h      int    // probes per key, all inside one block
}

// New creates a filter with m bits (rounded up to whole 512-bit blocks)
// and h probes per key.
func New(m uint64, h int) *Filter {
	if m == 0 || h <= 0 {
		panic(fmt.Sprintf("bloom: invalid parameters m=%d h=%d", m, h))
	}
	blocks := (m + blockBits - 1) / blockBits
	return &Filter{bits: make([]uint64, blocks*blockWords), blocks: blocks, h: h}
}

// NewWithEstimate sizes a filter for n expected distinct elements at target
// false-positive rate p, using the classic optimum m = -n·ln p / (ln 2)²
// and h = (m/n)·ln 2. Blocking costs false positives (keys spread unevenly
// over blocks); up to fpSlack·p that cost is paid in FP, beyond it — below
// p ≈ 0.003 — in extra blocks.
func NewWithEstimate(n uint64, p float64) *Filter {
	if n == 0 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("bloom: false-positive rate %v out of (0,1)", p))
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	h := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if h < 1 {
		h = 1
	}
	blocks := (m + blockBits - 1) / blockBits
	for blockedFP(float64(n)/float64(blocks), h) > fpSlack*p {
		blocks += blocks/64 + 1
	}
	return New(blocks*blockBits, h)
}

// blockedFP is the false-positive rate of h probes into a 512-bit block
// whose key count is Poisson with mean load: Σ_j P(j)·(1-(1-1/512)^(hj))^h
// (Putze, Sanders & Singler 2007, Eq. 3).
func blockedFP(load float64, h int) float64 {
	fp, pj := 0.0, math.Exp(-load)
	for j := 1.0; j < 6*load+64; j++ {
		pj *= load / j
		fp += pj * math.Pow(1-math.Pow(1-1.0/blockBits, float64(h)*j), float64(h))
	}
	return fp
}

// NumBits returns the filter size in bits.
func (f *Filter) NumBits() uint64 { return f.blocks * blockBits }

// SizeBytes returns the heap footprint of the bit array.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// locate returns the key's block and the remix its probes are cut from.
// The block index must not be a function of the hash's top bits alone:
// kmer.Owner routes on exactly those, so every key one rank's filter sees
// shares them and a plain multiply-shift of the hash would fill 1/P of the
// blocks. One odd multiply folds every hash bit into the product's top
// bits; the probes come from a second remix so that keys sharing a block
// (hence those top bits) still scatter inside it.
func (f *Filter) locate(hash uint64) (block *[blockWords]uint64, probes uint64) {
	x := hash * mixBlock
	i, _ := bits.Mul64(x, f.blocks)
	return (*[blockWords]uint64)(f.bits[i*blockWords:]), remix(x)
}

func remix(x uint64) uint64 { return (x ^ x>>32) * mixProbe }

// Contains reports whether the key may be present (false positives
// possible; false negatives impossible).
func (f *Filter) Contains(hash uint64) bool {
	block, y := f.locate(hash)
	present := uint64(1)
	for n := f.h; n > 0; n, y = n-probesPer, remix(y) {
		for i, v := 0, y; i < min(n, probesPer); i, v = i+1, v>>probeBits {
			present &= block[v>>6&(blockWords-1)] >> (v & 63)
		}
	}
	return present == 1
}

// InsertAndTest inserts the key and reports whether it may have been
// present before this insertion. This single-pass operation is what the
// Bloom stage uses: a "true" return means the k-mer has (probably) been
// seen before and should seed the hash table.
func (f *Filter) InsertAndTest(hash uint64) bool {
	block, y := f.locate(hash)
	present := uint64(1)
	for n := f.h; n > 0; n, y = n-probesPer, remix(y) {
		for i, v := 0, y; i < min(n, probesPer); i, v = i+1, v>>probeBits {
			w := &block[v>>6&(blockWords-1)]
			present &= *w >> (v & 63)
			*w |= 1 << (v & 63)
		}
	}
	return present == 1
}

// Reset clears the filter for reuse.
func (f *Filter) Reset() { clear(f.bits) }
