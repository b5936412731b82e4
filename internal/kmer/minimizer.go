package kmer

// Minimizer support: instead of shipping every k-mer, emit only each
// window's minimum-hash k-mer (Roberts et al. 2004), the compaction
// Minimap2 builds on (paper §11). Two reads sharing an exact run of at
// least w+k-1 bases are guaranteed to share a minimizer, so overlap
// detection still works while the k-mer volume exchanged through the
// pipeline drops by roughly a factor of (w+1)/2.
//
// Ordering is by the k-mer's 64-bit hash rather than lexicographic rank,
// which avoids the poly-A bias of literal ordering. Ties go to the
// leftmost occurrence. Windows are over the stream of valid k-mers (runs
// around non-ACGT bases are concatenated for windowing purposes).

// MinimizerScanner streams one read's (w,k)-minimizers: for every window
// of w consecutive canonical k-mers, the smallest-hash one, deduplicated
// across overlapping windows, in read order. w <= 1 streams every k-mer.
// A read yielding fewer than w k-mers streams its single global minimizer
// once the read is exhausted, so no read with at least one k-mer is left
// unrepresented. The sweep keeps a monotone deque of candidates with
// non-decreasing hash front to back, in a ring that Reset reuses: a
// scanner held across reads allocates nothing per read.
type MinimizerScanner struct {
	sc   Scanner
	w    int
	ring []minCand // the deque; len is a power of two > w
	head int       // ring index of the deque's front
	n    int       // candidates in the deque
	i    int       // k-mers scanned so far in this read
	last int       // index of the last emitted k-mer, -1 before the first
	done bool
}

// minCand is one deque entry: the i-th k-mer of the read and its hash.
type minCand struct {
	i  int
	h  uint64
	ex Extracted
}

// Reset points m at a new read.
func (m *MinimizerScanner) Reset(seq []byte, k, w int, readID uint32) {
	w = max(w, 1)
	ring := m.ring
	if len(ring) <= w {
		size := 2
		for size <= w {
			size <<= 1
		}
		ring = make([]minCand, size)
	}
	*m = MinimizerScanner{sc: *NewScanner(seq, k, readID), w: w, ring: ring, last: -1}
}

// at returns the deque's j-th candidate from the front.
func (m *MinimizerScanner) at(j int) *minCand {
	return &m.ring[(m.head+j)&(len(m.ring)-1)]
}

// Next returns the read's next minimizer; ok=false signals the end of the
// read.
func (m *MinimizerScanner) Next() (Extracted, bool) {
	for !m.done {
		ex, ok := m.sc.Next()
		if !ok {
			m.done = true
			if m.i > 0 && m.i < m.w {
				return m.at(0).ex, true // fewer than w k-mers: the global minimizer
			}
			break
		}
		h := ex.Kmer.Hash()
		for m.n > 0 && m.at(m.n-1).h > h {
			m.n--
		}
		*m.at(m.n) = minCand{i: m.i, h: h, ex: ex}
		m.n++
		if m.at(0).i <= m.i-m.w {
			m.head = (m.head + 1) & (len(m.ring) - 1)
			m.n--
		}
		m.i++
		if front := m.at(0); m.i >= m.w && front.i != m.last {
			m.last = front.i
			return front.ex, true
		}
	}
	return Extracted{}, false
}

// Minimizers returns the (w,k)-minimizer occurrences of seq, as a
// MinimizerScanner streams them (nil for a read without a k-mer).
func Minimizers(seq []byte, k, w int, readID uint32) []Extracted {
	var m MinimizerScanner
	m.Reset(seq, k, w, readID)
	var out []Extracted
	for ex, ok := m.Next(); ok; ex, ok = m.Next() {
		if out == nil {
			out = make([]Extracted, 0, int(float64(Count(len(seq), k))*MinimizerDensity(w))+1)
		}
		out = append(out, ex)
	}
	return out
}

// MinimizerCount returns how many (w,k)-minimizer occurrences a
// MinimizerScanner streams for seq. The distributed hash table uses it to
// agree on the exchange round count from what each rank will actually
// stream, instead of overestimating with the full k-mer count.
func MinimizerCount(seq []byte, k, w int) int {
	var m MinimizerScanner
	m.Reset(seq, k, w, 0)
	n := 0
	for _, ok := m.Next(); ok; _, ok = m.Next() {
		n++
	}
	return n
}

// MinimizerDensity returns the expected fraction of k-mers selected as
// (w,k)-minimizers of a random sequence: 2/(w+1).
func MinimizerDensity(w int) float64 {
	if w <= 1 {
		return 1
	}
	return 2 / float64(w+1)
}
