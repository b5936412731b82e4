package bloom

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dibella/internal/kmer"
)

const (
	blockWords = 8               // one 64-byte cache line
	blockBits  = blockWords * 64 // 512
	bitShift   = 6               // bits of y that pick a key's bit in one word

	// Odd multipliers (the 64-bit golden ratio and MurmurHash3's second
	// fmix64 constant) for the two remixes in locate.
	mixBlock = 0x9e3779b97f4a7c15
	mixProbe = 0xc4ceb9fe1a85ec53

	// fpSlack is how much of the split-block layout's false-positive
	// penalty the sizing pays in FP before it starts paying in bits.
	fpSlack = 1.25

	// maxKernelKeys caps the keys one assembly call takes: assembly has no
	// preemption point, and 4096 keys are some 20-40 µs.
	maxKernelKeys = 4096
)

// Filter is a split-block Bloom filter over 64-bit keys (pre-hashed
// k-mers): a key sets one bit in each word of one 512-bit block. The zero
// value is unusable; construct with New, NewWithEstimate or NewCapped.
type Filter struct {
	bits   []uint64
	blocks uint64 // len(bits) / blockWords
}

// New creates a filter with m bits, rounded up to whole 512-bit blocks.
func New(m uint64) *Filter {
	if m == 0 {
		panic("bloom: a filter needs at least one bit")
	}
	blocks := (m + blockBits - 1) / blockBits
	return &Filter{bits: make([]uint64, blocks*blockWords), blocks: blocks}
}

// NewWithEstimate sizes a filter for n expected distinct elements at target
// false-positive rate p (see blocksFor).
func NewWithEstimate(n uint64, p float64) *Filter {
	return New(blocksFor(n, p) * blockBits)
}

// NewCapped is NewWithEstimate within a budget of maxBits: past it the
// filter takes the whole blocks maxBits holds, and its false-positive rate
// rises instead. It returns nil when maxBits holds no block.
func NewCapped(n uint64, p float64, maxBits uint64) *Filter {
	blocks := min(blocksFor(n, p), maxBits/blockBits)
	if blocks == 0 {
		return nil
	}
	return New(blocks * blockBits)
}

// blocksFor sizes a filter for n keys at rate p: the classic optimum
// m = -n·ln p / (ln 2)², in whole blocks, and then more blocks — a few
// percent at a time — until the split-block rate at that load is within
// fpSlack·p.
func blocksFor(n uint64, p float64) uint64 {
	if n == 0 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("bloom: false-positive rate %v out of (0,1)", p))
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	blocks := (m + blockBits - 1) / blockBits
	for splitBlockFP(float64(n)/float64(blocks)) > fpSlack*p {
		blocks += blocks/64 + 1
	}
	return blocks
}

// splitBlockFP is the false-positive rate of a split-block filter whose
// per-block key count is Poisson with mean load: a probe finds its bit set
// in each of the eight words, Σ_j P(j)·(1-(63/64)^j)^8.
func splitBlockFP(load float64) float64 {
	fp, pj := 0.0, math.Exp(-load)
	for j := 1.0; j < 6*load+64; j++ {
		pj *= load / j
		fp += pj * math.Pow(1-math.Pow(1-1.0/64, j), blockWords)
	}
	return fp
}

// NumBits returns the filter size in bits.
func (f *Filter) NumBits() uint64 { return f.blocks * blockBits }

// SizeBytes returns the heap footprint of the bit array.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// Words returns the bit array itself: what a rank ships as its owner-filter
// segment (NewOwners).
func (f *Filter) Words() []uint64 { return f.bits }

// locate returns the key's block in words (of blocks blocks) and the remix
// its eight bits are cut from, six bits a word. The block index must not
// be a function of the hash's top bits alone: kmer.Owner routes on exactly
// those, so every key one rank's filter sees shares them and a plain
// multiply-shift of the hash would fill 1/P of the blocks. One odd multiply
// folds every hash bit into the product's top bits; the bits come from a
// second remix so that keys sharing a block (hence those top bits) still
// scatter inside it.
func locate(words []uint64, blocks, hash uint64) (block *[blockWords]uint64, y uint64) {
	x := hash * mixBlock
	i, _ := bits.Mul64(x, blocks)
	return (*[blockWords]uint64)(words[i*blockWords:]), (x ^ x>>32) * mixProbe
}

// contains reports whether every bit of the key's block is set.
func contains(words []uint64, blocks, hash uint64) bool {
	block, y := locate(words, blocks, hash)
	present := uint64(1)
	for i := range block {
		present &= block[i] >> (y >> (bitShift * i) & 63)
	}
	return present == 1
}

// Contains reports whether the key may be present (false positives
// possible; false negatives impossible).
func (f *Filter) Contains(hash uint64) bool { return contains(f.bits, f.blocks, hash) }

// InsertAndTest inserts the key and reports whether it may have been
// present before this insertion. This single-pass operation is what the
// Bloom stage uses: a "true" return means the k-mer has (probably) been
// seen before and should seed the hash table.
func (f *Filter) InsertAndTest(hash uint64) bool {
	block, y := locate(f.bits, f.blocks, hash)
	present := uint64(1)
	for i := range block {
		bit := y >> (bitShift * i) & 63
		present &= block[i] >> bit
		block[i] |= 1 << bit
	}
	return present == 1
}

// InsertAndTestKmers inserts the k-mers of row in order, each by its
// kmer.Hash, and appends to seen the index in row of every one that
// InsertAndTest would have reported present, and to hashes that k-mer's
// hash: the caller need not hash it again. On amd64 with AVX2 it is one
// assembly routine (bloom_amd64.s); elsewhere, InsertAndTest key by key.
func (f *Filter) InsertAndTestKmers(row []kmer.Kmer, seen []uint32, hashes []uint64) ([]uint32, []uint64) {
	if !useAVX2 {
		for i, km := range row {
			if h := km.Hash(); f.InsertAndTest(h) {
				seen, hashes = append(seen, uint32(i)), append(hashes, h)
			}
		}
		return seen, hashes
	}
	seen, hashes = slices.Grow(seen, len(row)), slices.Grow(hashes, len(row))
	for start := 0; start < len(row); start += maxKernelKeys {
		keys := row[start:min(len(row), start+maxKernelKeys)]
		from := len(seen)
		n := insertAVX2(f.bits, f.blocks, keys, seen[from:from+len(keys)], hashes[len(hashes):len(hashes)+len(keys)])
		seen, hashes = seen[:from+n], hashes[:len(hashes)+n]
		for j := range seen[from:] {
			seen[from+j] += uint32(start)
		}
	}
	return seen, hashes
}

// Reset clears the filter for reuse.
func (f *Filter) Reset() { clear(f.bits) }

// Owners is a world's owner filters: one segment per rank, all the same
// size, segment r a split-block filter over rank r's hash-table keys. A
// sender asks it which keys their owner holds before shipping them.
type Owners struct {
	segs   [][]uint64
	blocks uint64 // per segment
}

// NewOwners returns the owner filters whose segments are segs, segs[r]
// being rank r's Filter.Words. Every segment must hold the same whole
// number of blocks — the caller checks what it received from its peers —
// and none may be written to afterwards.
func NewOwners(segs [][]uint64) *Owners {
	words := len(segs[0])
	for r, s := range segs {
		if len(s) != words || words == 0 || words%blockWords != 0 {
			panic(fmt.Sprintf("bloom: owner segment %d has %d words, segment 0 %d", r, len(s), words))
		}
	}
	return &Owners{segs: segs, blocks: uint64(words / blockWords)}
}

// SizeBytes returns the footprint of every segment together.
func (o *Owners) SizeBytes() int { return len(o.segs) * int(o.blocks) * blockWords * 8 }

// Route writes, for each k-mer of keys, its kmer.Owner among the segments'
// ranks if that rank's segment may hold it, and -1 if it does not: owner[i]
// is keys[i]'s. owner must be at least as long as keys. On amd64 with AVX2
// it is one assembly routine (bloom_amd64.s); elsewhere, Contains key by key.
func (o *Owners) Route(keys []kmer.Kmer, owner []int32) {
	owner = owner[:len(keys)]
	if !useAVX2 {
		p := len(o.segs)
		for i, km := range keys {
			r := km.Owner(p)
			owner[i] = -1
			if contains(o.segs[r], o.blocks, km.Hash()) {
				owner[i] = int32(r)
			}
		}
		return
	}
	for start := 0; start < len(keys); start += maxKernelKeys {
		end := min(len(keys), start+maxKernelKeys)
		routeAVX2(o.segs, o.blocks, keys[start:end], owner[start:end])
	}
}
