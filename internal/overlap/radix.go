package overlap

import "iter"

// KeyVal is one record of the tree's one grouping sort: a key and the value
// it carries. The overlap stage keys a pair's packed reads, the query probe
// and DALIGNER a k-mer.
type KeyVal struct {
	Key, Val uint64
}

// RadixSort orders recs by Key with a stable LSD radix sort, one byte a
// pass, through scratch (grown to len(recs) if short). The passes alternate
// between the two slices, so sorted is whichever the last pass wrote and
// spare is the other, for the caller's next sort. Equal keys keep their
// input order, so a run of one key is its records in arrival order. One
// sweep counts all eight bytes, and a byte that is the same in every key
// gets no pass: read IDs under 2¹⁶ leave four of a pair key's eight
// constant.
func RadixSort(recs, scratch []KeyVal) (sorted, spare []KeyVal) {
	if cap(scratch) < len(recs) {
		scratch = make([]KeyVal, len(recs))
	}
	scratch = scratch[:len(recs)]
	if len(recs) == 0 {
		return recs, scratch
	}
	var counts [8][256]int
	for i := range recs {
		// Unrolled: at a few thousand records a loop over the bytes costs
		// more than the counting.
		k := recs[i].Key
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	src, dst := recs, scratch
	for b := range counts {
		c, shift := &counts[b], uint(8*b)
		if c[byte(src[0].Key>>shift)] == len(src) {
			continue
		}
		off := 0 // exclusive prefix sums: each byte value's first slot
		for v, n := range c {
			c[v], off = off, off+n
		}
		for i := range src {
			v := byte(src[i].Key >> shift)
			dst[c[v]] = src[i]
			c[v]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// Runs yields the runs of one key of sorted recs, in order.
func Runs(recs []KeyVal) iter.Seq[[]KeyVal] {
	return func(yield func([]KeyVal) bool) {
		for len(recs) > 0 {
			end := 1
			for end < len(recs) && recs[end].Key == recs[0].Key {
				end++
			}
			if !yield(recs[:end]) {
				return
			}
			recs = recs[end:]
		}
	}
}
