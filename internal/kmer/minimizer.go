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
// unrepresented. The sweep takes the read's k-mers a block at a time from
// its Scanner and keeps a monotone deque of candidates with non-decreasing
// hash front to back, in a ring that Reset reuses: a scanner held across
// reads allocates nothing per read.
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

// minCand is one deque entry: the i-th k-mer of the read, its location and
// its hash.
type minCand struct {
	i   int
	h   uint64
	km  Kmer
	loc Loc
}

// Reset points m at a new read.
func (m *MinimizerScanner) Reset(seq []byte, k, w int, readID uint32) {
	w = max(w, 1)
	if len(m.ring) <= w {
		size := 2
		for size <= w {
			size <<= 1
		}
		m.ring = make([]minCand, size)
	}
	m.sc.Reset(seq, k, readID)
	m.w, m.head, m.n, m.i, m.last, m.done = w, 0, 0, 0, -1, false
}

// Fill writes the read's next minimizers into keys and their locations
// into locs, with Scanner.Fill's contract: len(keys) of them unless the
// read runs out first, so a short count means the read is done. The deque
// lives in locals while a block is swept.
func (m *MinimizerScanner) Fill(keys []Kmer, locs []Loc) int {
	locs = locs[:len(keys)]
	sc, j := &m.sc, 0
	ring, wrap, w := m.ring, len(m.ring)-1, m.w
	for j < len(keys) && !m.done {
		if sc.at == sc.n && !sc.refill() {
			m.done = true
			if m.i > 0 && m.i < w { // fewer than w k-mers: the global minimizer
				front := &ring[m.head&wrap]
				keys[j], locs[j] = front.km, front.loc
				j++
			}
			break
		}
		head, n, i, last, at := m.head, m.n, m.i, m.last, sc.at
		for ; at < sc.n && j < len(keys); at++ {
			km := sc.keys[at&(blockLen-1)]
			h := km.Hash()
			for n > 0 && ring[(head+n-1)&wrap].h > h {
				n--
			}
			ring[(head+n)&wrap] = minCand{i: i, h: h, km: km, loc: sc.locs[at&(blockLen-1)]}
			n++
			if ring[head&wrap].i <= i-w {
				head, n = head+1, n-1
			}
			i++
			if front := &ring[head&wrap]; i >= w && front.i != last {
				last = front.i
				keys[j], locs[j] = front.km, front.loc
				j++
			}
		}
		m.head, m.n, m.i, m.last, sc.at = head&wrap, n, i, last, at
	}
	return j
}

// Minimizers returns the (w,k)-minimizer occurrences of seq, as a
// MinimizerScanner streams them (nil for a read without a k-mer).
func Minimizers(seq []byte, k, w int, readID uint32) []Extracted {
	var (
		m    MinimizerScanner
		keys [blockLen]Kmer
		locs [blockLen]Loc
		out  []Extracted
	)
	m.Reset(seq, k, w, readID)
	for n := m.Fill(keys[:], locs[:]); n > 0; n = m.Fill(keys[:], locs[:]) {
		if out == nil {
			out = make([]Extracted, 0, int(float64(Count(len(seq), k))*MinimizerDensity(w))+1)
		}
		for i, km := range keys[:n] {
			out = append(out, Extracted{Kmer: km, Occ: locs[i].Occurrence()})
		}
	}
	return out
}

// MinimizerCount returns how many (w,k)-minimizer occurrences a
// MinimizerScanner streams for seq. The distributed hash table uses it to
// agree on the exchange round count from what each rank will actually
// stream, instead of overestimating with the full k-mer count.
func MinimizerCount(seq []byte, k, w int) int {
	var (
		m    MinimizerScanner
		keys [blockLen]Kmer
		locs [blockLen]Loc
	)
	m.Reset(seq, k, w, 0)
	n := 0
	for c := m.Fill(keys[:], locs[:]); c > 0; c = m.Fill(keys[:], locs[:]) {
		n += c
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
