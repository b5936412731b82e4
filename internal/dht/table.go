package dht

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dibella/internal/kmer"
)

// Occ is a compact k-mer occurrence: the read it was seen in and its
// position, with the orientation bit packed into the low position bit.
type Occ struct {
	Read    uint32
	PosFlag uint32
}

// MakeOcc packs an occurrence.
func MakeOcc(read, pos uint32, forward bool) Occ {
	pf := pos << 1
	if forward {
		pf |= 1
	}
	return Occ{Read: read, PosFlag: pf}
}

// LocOcc is the occurrence a scanner's location names: kmer.Loc keeps the
// read in its high half and Occ's PosFlag in its low.
func LocOcc(l kmer.Loc) Occ { return Occ{Read: uint32(l >> 32), PosFlag: uint32(l)} }

// Pos returns the k-mer's offset within the read.
func (o Occ) Pos() uint32 { return o.PosFlag >> 1 }

// Forward reports whether the canonical k-mer matched the read's forward
// orientation.
func (o Occ) Forward() bool { return o.PosFlag&1 == 1 }

// slot is one table entry, stored inline: the k-mer, its total sighting
// count and the span of the arena holding its occurrences. No field is a
// pointer, so the runtime allocates []slot as noscan memory the collector
// never walks (TestPartitionIsPointerFree).
type slot struct {
	key   kmer.Kmer
	count int32  // sightings; keeps counting past MaxFreq, where storing stops
	n     uint32 // occurrences stored (between the two build passes: reserved)
	off   uint32 // occs[off:off+n]
}

const (
	slotBytes = 24 // unsafe.Sizeof(slot{}), held by TestPartitionIsPointerFree
	minSlots  = 64
	// The table grows once more than loadNum/loadDen of its slots are used.
	// Most probes are misses (in the hash pass, singletons the Bloom pass
	// kept out; in a served query, k-mers carrying a read error), and a
	// linear-probe miss reads (1+1/(1-load)²)/2 control bytes.
	loadNum, loadDen = 5, 8
	// mixSlot is bloom.locate's remix: kmer.Owner routed on the hash's top
	// bits, so every key a rank holds shares them and a multiply-shift of
	// the bare hash would crowd 1/P of the slots.
	mixSlot = 0x9e3779b97f4a7c15
	// ctrlUsed marks a used slot's control byte; the low seven bits are the
	// k-mer hash's low bits, which neither Owner nor the probe start
	// consumed. A probe reads ctrlWindow control bytes at a time.
	ctrlUsed   = 0x80
	ctrlWindow = 8
)

// Partition is one rank's shard of the distributed hash table: an
// open-addressed, linearly probed array of inline slots plus one arena
// holding every entry's occurrences (see doc.go). ctrl holds one byte per
// slot and is what a probe reads: zero for an empty slot — emptiness is
// never a key value, k-mer 0 (poly-A) is a legal key and k = 32 fills all
// 64 bits — else ctrlUsed plus seven bits of the key's hash, so a miss ends
// in the byte array, a twenty-fourth the size of the slots, without
// comparing a key it does not hold. The first ctrlWindow-1 bytes are
// mirrored past the end, so a window never has to wrap.
type Partition struct {
	K       int
	MaxFreq int

	ctrl  []uint8
	slots []slot
	n     int   // used slots
	occs  []Occ // the arena: one contiguous span per entry
}

// Retained returns the number of retained (post-prune) k-mers in the
// partition.
func (p *Partition) Retained() int { return p.n }

// Lookup returns km's sighting count and stored occurrences, in arrival
// order. A high-frequency tombstone of a KeepSingletons index answers with
// its count and no occurrences. The slice aliases the arena: read-only.
func (p *Partition) Lookup(km kmer.Kmer) (count int, occs []Occ, ok bool) {
	s := p.find(km)
	if s == nil {
		return 0, nil, false
	}
	return int(s.count), p.span(s), true
}

// ForEach visits every retained k-mer in ascending k-mer order. The
// deterministic order costs one key sort per call but means consumers
// (the overlap stage packs exchange payloads straight out of this loop,
// Encode writes checkpoint bytes) cannot leak slot order — a function of
// the table's capacity and insertion history — into wire bytes or output.
func (p *Partition) ForEach(fn func(km kmer.Kmer, occs []Occ)) {
	p.forEachSlot(func(s *slot) { fn(s.key, p.span(s)) })
}

func (p *Partition) forEachSlot(fn func(s *slot)) {
	kms := make([]kmer.Kmer, 0, p.n)
	for i, c := range p.used() {
		if c != 0 {
			kms = append(kms, p.slots[i].key)
		}
	}
	slices.Sort(kms)
	for _, km := range kms {
		fn(p.find(km))
	}
}

// MemBytes is the partition's resident footprint: control bytes, slots and
// the occurrence arena — the partition's share of the resident-memory
// gauge.
func (p *Partition) MemBytes() int64 {
	return int64(cap(p.ctrl)) + int64(cap(p.slots))*slotBytes + int64(cap(p.occs))*occSize
}

// Merge moves other's entries into p, refusing a k-mer p already holds:
// the resume loader unions old-world segments whose key sets must be
// disjoint.
func (p *Partition) Merge(other *Partition) error {
	p.reserve(p.n + other.n)
	for i, c := range other.used() {
		if o := &other.slots[i]; c != 0 && !p.put(o.key, o.count, other.span(o)) {
			return fmt.Errorf("k-mer %#x is already present", uint64(o.key))
		}
	}
	return nil
}

// put adds one whole entry — count and occurrences — to a partition that
// is not mid-build, reporting false (and changing nothing) if km is there.
func (p *Partition) put(km kmer.Kmer, count int32, occs []Occ) bool {
	s, added := p.insert(km)
	if added {
		s.count = count
		s.off, s.n = uint32(len(p.occs)), uint32(len(occs))
		p.occs = append(p.occs, occs...)
		arenaIndex(len(p.occs)) // the span's end fits in 32 bits, so its start did
	}
	return added
}

// span returns s's occurrences, nil for none (as the map's entries held).
func (p *Partition) span(s *slot) []Occ {
	if s.n == 0 {
		return nil
	}
	return p.occs[s.off : s.off+s.n : s.off+s.n]
}

// arenaIndex narrows an arena position to the 32 bits a slot keeps.
func arenaIndex(i int) uint32 {
	if uint64(i) > math.MaxUint32 {
		panic(fmt.Sprintf("dht: partition arena position %d exceeds 32 bits", i))
	}
	return uint32(i)
}

// probe returns where the search for a key with this hash starts — a
// multiply-shift of the remixed hash, so the capacity need not be a power
// of two — and the control byte the key's slot would carry.
func (p *Partition) probe(hash uint64) (home int, ctrl uint8) {
	i, _ := bits.Mul64(hash*mixSlot, uint64(len(p.slots)))
	return int(i), ctrlUsed | uint8(hash)
}

// wrap brings a slot index that ran off the end of the array back around.
func (p *Partition) wrap(i int) int {
	if i >= len(p.slots) {
		i -= len(p.slots)
	}
	return i
}

// setCtrl writes slot i's control byte, and its mirror past the end of the
// array when a window starting near the end would read it.
func (p *Partition) setCtrl(i int, c uint8) {
	p.ctrl[i] = c
	if i < ctrlWindow-1 {
		p.ctrl[len(p.slots)+i] = c
	}
}

// seek walks km's probe run a window of control bytes at a time, with no
// branch per slot: it returns km's slot, or — the run ended, the table
// lacks km — the empty slot that ended it, where km would go. want is
// km's control byte. The load bound keeps at least one slot empty, which
// is what ends a miss; the table must not be the zero-capacity one.
func (p *Partition) seek(km kmer.Kmer) (i int, found bool, want uint8) {
	const lsb, msb = 0x0101010101010101, 0x8080808080808080
	i, want = p.probe(km.Hash())
	for {
		w := binary.LittleEndian.Uint64(p.ctrl[i:])
		empty := ^w & msb // a used byte carries ctrlUsed, an empty one is zero
		// Zero bytes of x are the control bytes equal to want; the borrow
		// trick may also flag a byte above a true hit, which the key
		// comparison below sorts out.
		x := w ^ lsb*uint64(want)
		hits := (x - lsb) &^ x & msb
		if empty != 0 {
			hits &= empty - 1 // only those before the run's end
		}
		for ; hits != 0; hits &= hits - 1 {
			if j := p.wrap(i + bits.TrailingZeros64(hits)/8); p.slots[j].key == km {
				return j, true, want
			}
		}
		if empty != 0 {
			return p.wrap(i + bits.TrailingZeros64(empty)/8), false, want
		}
		i = p.wrap(i + ctrlWindow)
	}
}

// find returns km's slot, nil if the table lacks it.
func (p *Partition) find(km kmer.Kmer) *slot {
	if len(p.slots) == 0 {
		return nil
	}
	if i, found, _ := p.seek(km); found {
		return &p.slots[i]
	}
	return nil
}

// insert returns km's slot, adding an entry with no sightings if the table
// lacks it. The pointer is good until the next insert.
func (p *Partition) insert(km kmer.Kmer) (s *slot, added bool) {
	if (p.n+1)*loadDen > len(p.slots)*loadNum {
		p.rehash(max(minSlots, 2*len(p.slots)))
	}
	i, found, want := p.seek(km)
	if !found {
		p.setCtrl(i, want)
		p.slots[i] = slot{key: km}
		p.n++
	}
	return &p.slots[i], !found
}

// reserve sizes the table once for n entries, where n is known up front.
func (p *Partition) reserve(n int) {
	if want := n*loadDen/loadNum + 1; want > len(p.slots) {
		p.rehash(max(minSlots, want))
	}
}

// rehash moves every entry into fresh arrays of the given capacity; the
// discarded ones are pointer-free garbage. The probe start is monotone in
// the remixed hash, so walking the old arrays in slot order fills the new
// ones front to back.
func (p *Partition) rehash(capacity int) {
	used, slots := p.used(), p.slots
	p.ctrl, p.slots = make([]uint8, capacity+ctrlWindow-1), make([]slot, capacity)
	for i, c := range used {
		if c != 0 {
			j, _, _ := p.seek(slots[i].key)
			p.setCtrl(j, c)
			p.slots[j] = slots[i]
		}
	}
}

// used returns the control bytes proper, one per slot, without the mirror.
func (p *Partition) used() []uint8 { return p.ctrl[:len(p.slots)] }

// remove empties slot i and shifts the entries probing past it back over
// the gap, so every later find still reaches them without tombstones. An
// entry at j may fill the hole at i unless its probe start lies cyclically
// in (i, j] — moving it before its start would hide it.
func (p *Partition) remove(i int) {
	p.n--
	for j := p.wrap(i + 1); p.ctrl[j] != 0; j = p.wrap(j + 1) {
		h, _ := p.probe(p.slots[j].key.Hash())
		if (i < j && (h <= i || h > j)) || (j < i && h <= i && h > j) {
			p.setCtrl(i, p.ctrl[j])
			p.slots[i] = p.slots[j]
			i = j
		}
	}
	p.setCtrl(i, 0)
	p.slots[i] = slot{}
}

// admit is the Bloom pass's step for a key that gets (or has) an entry:
// it counts, up to the cutoff, the sightings the pass sees from the
// entry's creation on — what layOut sizes the key's span from.
func (p *Partition) admit(km kmer.Kmer) {
	if s, _ := p.insert(km); int(s.n) < p.MaxFreq {
		s.n++
	}
}

// layOut allocates the arena between the two passes, once: every entry
// gets a span for the sightings admit counted plus the ones that preceded
// the entry. The Bloom filter has no false negatives, so a key is admitted
// by its second sighting at the latest and one went uncounted; a
// keepSingletons index admits at the first and none did. No span is longer
// than MaxFreq, where record stops storing.
func (p *Partition) layOut(keepSingletons bool) {
	unseen := uint32(1)
	if keepSingletons {
		unseen = 0
	}
	total := 0
	for i, c := range p.used() {
		if s := &p.slots[i]; c != 0 {
			s.n = min(s.n+unseen, uint32(p.MaxFreq))
			s.off = arenaIndex(total)
			total += int(s.n)
		}
	}
	p.occs = make([]Occ, arenaIndex(total))
}

// record is the hash pass's step: it counts one sighting of s's key and,
// up to the high-frequency cutoff, writes the occurrence into the key's
// span in arrival order. Past the cutoff the key cannot survive the
// prune, so storing stops while counting continues.
func (p *Partition) record(s *slot, o Occ) {
	s.count++
	if int(s.count) > p.MaxFreq {
		return
	}
	if uint32(s.count) > s.n {
		panic(fmt.Sprintf("dht: k-mer %#x reached the hash pass more often than the Bloom pass", uint64(s.key)))
	}
	p.occs[s.off+uint32(s.count)-1] = o
}

// prune removes false-positive singletons and high-frequency k-mers in
// place, returning how many of each were dropped, and closes every
// surviving span to the occurrences it received. A serve-mode index
// (keepSingletons) keeps its singletons, and keeps the high-frequency tail
// as tombstones — count retained, occurrences dropped — so a query can
// tell "frequent in the index" (the combined count exceeds m too; no
// pairs) apart from "absent" (the combined count is the query occurrences
// alone). Dropped spans stay in the arena as holes: at most MaxFreq
// occurrences per repeat k-mer, two per Bloom false positive.
func (p *Partition) prune(keepSingletons bool) (singletons, highFreq int) {
	// remove can move an entry from the array's wrapped-around head into
	// slot i or behind it, so an entry may be looked at twice: every case
	// below is a no-op the second time.
	for i := 0; i < len(p.slots); {
		s := &p.slots[i]
		switch {
		case p.ctrl[i] == 0:
		case s.count < 2 && !keepSingletons:
			singletons++
			p.remove(i)
			continue
		case int(s.count) > p.MaxFreq && !keepSingletons:
			highFreq++
			p.remove(i)
			continue
		case int(s.count) > p.MaxFreq:
			if s.n > 0 {
				highFreq++
				s.n = 0
			}
		default:
			s.n = uint32(s.count)
		}
		i++
	}
	return
}
