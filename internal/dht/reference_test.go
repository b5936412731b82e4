package dht

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dibella/internal/fastq"
	"dibella/internal/kmer"
	"dibella/internal/spmd"
	"dibella/internal/wire"
)

// refPartition is the map-backed partition this package shipped until the
// flat table replaced it — one heap entry and one occurrence slice per key
// — kept, as align's referenceXDrop is, only as the oracle the table is
// held equal to: same entries, same counts, same occurrence order, same
// Encode bytes.
type refPartition struct {
	K       int
	MaxFreq int
	Table   map[kmer.Kmer]*refEntry
}

type refEntry struct {
	Count int32
	Occs  []Occ
}

func newRefPartition(k, maxFreq int) *refPartition {
	return &refPartition{K: k, MaxFreq: maxFreq, Table: make(map[kmer.Kmer]*refEntry)}
}

// insert is the Bloom pass's admission.
func (p *refPartition) insert(km kmer.Kmer) {
	if _, ok := p.Table[km]; !ok {
		p.Table[km] = &refEntry{}
	}
}

// record is the hash pass's per-occurrence step.
func (p *refPartition) record(km kmer.Kmer, o Occ) {
	if e, ok := p.Table[km]; ok {
		e.Count++
		if int(e.Count) <= p.MaxFreq {
			e.Occs = append(e.Occs, o)
		}
	}
}

func (p *refPartition) prune(keepSingletons bool) (singletons, highFreq int) {
	for km, e := range p.Table {
		switch {
		case e.Count < 2 && !keepSingletons:
			delete(p.Table, km)
			singletons++
		case int(e.Count) > p.MaxFreq:
			highFreq++
			if keepSingletons {
				e.Occs = nil
				continue
			}
			delete(p.Table, km)
		}
	}
	return
}

func (p *refPartition) sortedKeys() []kmer.Kmer {
	kms := make([]kmer.Kmer, 0, len(p.Table))
	for km := range p.Table {
		kms = append(kms, km)
	}
	sort.Slice(kms, func(i, j int) bool { return kms[i] < kms[j] })
	return kms
}

func (p *refPartition) Encode() []byte {
	kms := p.sortedKeys()
	buf := wire.U32(nil, uint32(p.K))
	buf = wire.U32(buf, uint32(p.MaxFreq))
	buf = wire.U64(buf, uint64(len(kms)))
	for _, km := range kms {
		e := p.Table[km]
		buf = wire.U64(buf, uint64(km))
		buf = wire.U32(wire.U32(buf, uint32(e.Count)), uint32(len(e.Occs)))
		for _, o := range e.Occs {
			buf = wire.U32(wire.U32(buf, o.Read), o.PosFlag)
		}
	}
	return buf
}

// tableOf flattens a partition into the oracle's shape.
func tableOf(p *Partition) map[kmer.Kmer]refEntry {
	out := make(map[kmer.Kmer]refEntry, p.n)
	for i, c := range p.used() {
		if s := &p.slots[i]; c != 0 {
			out[s.key] = refEntry{Count: s.count, Occs: append([]Occ(nil), p.span(s)...)}
		}
	}
	return out
}

// checkAgainstReference holds a pruned table equal to the pruned oracle
// through every public reader: Retained, Lookup (hits and misses), ForEach
// order, Encode bytes, and a decode round trip.
func checkAgainstReference(t *testing.T, p *Partition, ref *refPartition, probes []kmer.Kmer) {
	t.Helper()
	if p.Retained() != len(ref.Table) {
		t.Fatalf("Retained %d, oracle %d", p.Retained(), len(ref.Table))
	}
	for _, km := range probes {
		count, occs, ok := p.Lookup(km)
		e, want := ref.Table[km]
		if ok != want {
			t.Fatalf("Lookup(%#x) ok=%v, oracle %v", uint64(km), ok, want)
		}
		if ok && (count != int(e.Count) || !reflect.DeepEqual(occs, e.Occs)) {
			t.Fatalf("Lookup(%#x) = %d %v, oracle %d %v", uint64(km), count, occs, e.Count, e.Occs)
		}
	}
	var visited []kmer.Kmer
	p.ForEach(func(km kmer.Kmer, occs []Occ) {
		visited = append(visited, km)
		if e := ref.Table[km]; e == nil || !reflect.DeepEqual(occs, e.Occs) {
			t.Fatalf("ForEach(%#x) occurrences %v differ from the oracle's", uint64(km), occs)
		}
	})
	if want := ref.sortedKeys(); !reflect.DeepEqual(visited, want) && len(visited)+len(want) > 0 {
		t.Fatalf("ForEach order %x, oracle's ascending keys %x", visited, want)
	}
	blob := p.Encode()
	if want := ref.Encode(); !bytes.Equal(blob, want) {
		t.Fatalf("Encode differs from the oracle:\n got %x\nwant %x", blob, want)
	}
	back, err := DecodePartition(blob)
	if err != nil {
		t.Fatalf("decoding the table's own encoding: %v", err)
	}
	if !bytes.Equal(back.Encode(), blob) {
		t.Fatal("decode → encode changed the bytes")
	}
	if len(p.slots) > 0 && !bytes.Equal(p.ctrl[len(p.slots):], p.ctrl[:ctrlWindow-1]) {
		t.Fatalf("control bytes past the end %x do not mirror the first %x", p.ctrl[len(p.slots):], p.ctrl[:ctrlWindow-1])
	}
	if want := int64(cap(p.ctrl)) + int64(cap(p.slots))*slotBytes + int64(cap(p.occs))*occSize; p.MemBytes() != want {
		t.Fatalf("MemBytes %d, control bytes+slots+arena hold %d", p.MemBytes(), want)
	}
}

// Keys the fuzzer draws from: the two a sentinel-keyed table would lose
// (poly-A is 0, poly-T at k = 32 is all ones) ahead of enough ordinary ones
// to grow the table past minSlots.
func fuzzKey(b byte) kmer.Kmer {
	switch b {
	case 0:
		return 0
	case 1:
		return ^kmer.Kmer(0)
	}
	return kmer.Kmer(uint64(b) * 0x9e3779b97f4a7c15)
}

// runBuild drives the table and the oracle through one build the way
// Build's two passes do — stream is the owner's arrival sequence of k-mer
// instances, falsePositive says which first sightings the Bloom filter
// wrongly admits — then prunes both and compares them.
func runBuild(t *testing.T, stream []kmer.Kmer, falsePositive func(i int) bool, maxFreq int, keepSingletons bool) {
	t.Helper()
	p := &Partition{K: 32, MaxFreq: maxFreq}
	ref := newRefPartition(32, maxFreq)
	seen := make(map[kmer.Kmer]bool)
	for i, km := range stream {
		if keepSingletons || seen[km] || falsePositive(i) {
			p.admit(km)
			ref.insert(km)
		}
		seen[km] = true
	}
	if p.n != len(ref.Table) {
		t.Fatalf("after the Bloom pass: %d entries, oracle %d", p.n, len(ref.Table))
	}
	p.layOut(keepSingletons)
	for i, km := range stream {
		o := MakeOcc(uint32(i), uint32(i%977), i%2 == 0)
		s := p.find(km)
		if s != nil {
			p.record(s, o)
		}
		ref.record(km, o)
		if e := ref.Table[km]; (s != nil) != (e != nil) || s != nil && s.count != e.Count {
			t.Fatalf("instance %d: mid-build state of %#x disagrees with the oracle", i, uint64(km))
		}
	}
	gotS, gotH := p.prune(keepSingletons)
	wantS, wantH := ref.prune(keepSingletons)
	if gotS != wantS || gotH != wantH {
		t.Fatalf("prune dropped %d singletons and %d frequent keys, oracle %d and %d", gotS, gotH, wantS, wantH)
	}
	probes := append([]kmer.Kmer{0, ^kmer.Kmer(0), 12345}, stream...)
	checkAgainstReference(t, p, ref, probes)
}

// FuzzTableMatchesMap: random admit / count / record / prune / lookup /
// encode sequences leave the flat table and the map it replaced
// indistinguishable. Each input byte is one k-mer instance — its low bit
// a Bloom false positive, the rest the key.
func FuzzTableMatchesMap(f *testing.F) {
	sightings := func(key byte, n int) []byte { return bytes.Repeat([]byte{key << 1}, n) }
	// maxFreq arrives as 2 + the byte mod 16: 2 means a cutoff of 4.
	f.Add([]byte{}, uint8(2), false)
	f.Add(sightings(0, 2), uint8(2), false)                             // k-mer 0 is a key
	f.Add(sightings(1, 3), uint8(2), false)                             // so is the all-ones k = 32 key
	f.Add(sightings(7, 5), uint8(2), false)                             // MaxFreq+1 sightings: dropped
	f.Add(sightings(7, 5), uint8(2), true)                              // ... or kept as a tombstone
	f.Add(append(sightings(0, 1), sightings(1, 9)...), uint8(2), true)  // a kept singleton beside one
	f.Add([]byte{7<<1 | 1, 9 << 1, 7 << 1, 11<<1 | 1}, uint8(2), false) // false positives: one repeats, one is pruned
	var crowd []byte
	for key := 0; key < 128; key++ {
		crowd = append(crowd, sightings(byte(key), 1+key%5)...)
	}
	f.Add(crowd, uint8(1), false) // growth, then a prune that removes from the middle of probe runs
	f.Fuzz(func(t *testing.T, instances []byte, maxFreq uint8, keepSingletons bool) {
		stream := make([]kmer.Kmer, len(instances))
		for i, b := range instances {
			stream[i] = fuzzKey(b >> 1)
		}
		runBuild(t, stream, func(i int) bool { return instances[i]&1 == 1 }, 2+int(maxFreq%16), keepSingletons)
	})
}

// TestTableMatchesMapAtScale is the fuzz target's comparison on tables big
// enough to grow a dozen times and to prune out of long probe runs, the
// wrapped-around one included.
func TestTableMatchesMapAtScale(t *testing.T) {
	for _, keep := range []bool{false, true} {
		rng := rand.New(rand.NewSource(19))
		keys := make([]kmer.Kmer, 60000)
		for i := range keys {
			keys[i] = kmer.Kmer(rng.Uint64())
		}
		stream := make([]kmer.Kmer, 150000)
		for i := range stream {
			stream[i] = keys[rng.Intn(len(keys))]
		}
		runBuild(t, stream, func(i int) bool { return i%16 == 0 }, 4, keep)
	}
}

// TestRemoveAcrossTheWrap empties a table whose probe runs are forced
// around the end of the array, one entry at a time, checking after every
// removal that each remaining key is still found.
func TestRemoveAcrossTheWrap(t *testing.T) {
	p := &Partition{K: 32, MaxFreq: 4}
	p.reserve(minSlots * loadNum / loadDen)
	// Keep only keys homed in the array's last slots, so most spill over
	// the end and wrap to slot 0.
	var keys []kmer.Kmer
	for x := uint64(1); len(keys) < 24; x++ {
		km := kmer.Kmer(x * 0x9e3779b97f4a7c15)
		if home, _ := p.probe(km.Hash()); home >= len(p.slots)-6 {
			p.insert(km)
			keys = append(keys, km)
		}
	}
	if p.ctrl[0] == 0 || p.ctrl[len(p.slots)-1] == 0 {
		t.Fatalf("set-up did not wrap around the array's %d slots", len(p.slots))
	}
	rng := rand.New(rand.NewSource(3))
	for len(keys) > 0 {
		i := rng.Intn(len(keys))
		gone := keys[i]
		keys = append(keys[:i], keys[i+1:]...)
		for j := range p.slots {
			if p.ctrl[j] != 0 && p.slots[j].key == gone {
				p.remove(j)
				break
			}
		}
		if p.find(gone) != nil || p.n != len(keys) {
			t.Fatalf("removed key %#x still found, or count %d != %d", uint64(gone), p.n, len(keys))
		}
		for _, km := range keys {
			if p.find(km) == nil {
				t.Fatalf("after removing %#x, key %#x is unreachable", uint64(gone), uint64(km))
			}
		}
	}
}

// TestPartitionIsPointerFree: every element type backing a partition must
// be pointer-free, or the runtime allocates the array as scannable and the
// collector walks the whole index on every cycle again — the cost this
// layout exists to remove. A field added later cannot bring it back
// quietly.
func TestPartitionIsPointerFree(t *testing.T) {
	var hasPointers func(reflect.Type) bool
	hasPointers = func(rt reflect.Type) bool {
		switch rt.Kind() {
		case reflect.Uint8, reflect.Int32, reflect.Uint32, reflect.Uint64:
			return false
		case reflect.Struct:
			for i := 0; i < rt.NumField(); i++ {
				if hasPointers(rt.Field(i).Type) {
					return true
				}
			}
			return false
		}
		return true
	}
	pt := reflect.TypeOf(Partition{})
	backing := 0
	for i := 0; i < pt.NumField(); i++ {
		f := pt.Field(i)
		switch f.Type.Kind() {
		case reflect.Int:
		case reflect.Slice:
			backing++
			if hasPointers(f.Type.Elem()) {
				t.Errorf("Partition.%s: element type %v holds a pointer", f.Name, f.Type.Elem())
			}
		default:
			t.Errorf("Partition.%s is a %v: neither a scalar nor a slice of pointer-free elements", f.Name, f.Type.Kind())
		}
	}
	if backing != 3 {
		t.Errorf("checked %d backing slices, want ctrl, slots and occs", backing)
	}
	if got := reflect.TypeOf(slot{}).Size(); got != slotBytes {
		t.Errorf("slot is %d bytes, slotBytes says %d", got, slotBytes)
	}
	if got := reflect.TypeOf(Occ{}).Size(); got != occSize {
		t.Errorf("Occ is %d bytes, occSize says %d", got, occSize)
	}
}

// referenceBuild replays, without a world, what rank's owner-side of
// Build receives — every rank's k-mer stream cut into rounds of perRound,
// round by round, source by source — into the map oracle. No Bloom filter:
// it has no false negatives, and a false positive admits only a key the
// prune removes (TestBuildIndependentOfBloomFP), so the oracle admits
// every key.
func referenceBuild(store *fastq.ReadStore, p, rank int, cfg Config, perRound int) *refPartition {
	ref := newRefPartition(cfg.K, cfg.MaxFreq)
	streams := make([][]kmer.Extracted, p)
	rounds := 0
	for src := range streams {
		reads := localReadsOf(store, src)
		for i, seq := range reads.Seqs {
			id := reads.IDStart + uint32(i)
			exs := kmer.ExtractAll(seq, cfg.K, id)
			if cfg.MinimizerWindow > 1 {
				exs = kmer.Minimizers(seq, cfg.K, cfg.MinimizerWindow, id)
			}
			for _, ex := range exs {
				streams[src] = append(streams[src], ex)
				if ex.Kmer.Owner(p) == rank {
					ref.insert(ex.Kmer)
				}
			}
		}
		rounds = max(rounds, (len(streams[src])+perRound-1)/perRound)
	}
	for r := 0; r < rounds; r++ {
		for src := range streams {
			lo, hi := min(r*perRound, len(streams[src])), min((r+1)*perRound, len(streams[src]))
			for _, ex := range streams[src][lo:hi] {
				if ex.Kmer.Owner(p) == rank {
					ref.record(ex.Kmer, MakeOcc(ex.Occ.ReadID, ex.Occ.Pos, ex.Occ.Forward))
				}
			}
		}
	}
	ref.prune(cfg.KeepSingletons)
	return ref
}

// TestEncodeMatchesReference: a real Build's partitions encode to exactly
// the bytes the map-backed build wrote — so checkpoint segments stay
// version 2 and a directory written before the flat table resumes after
// it — at every world size, in batch and serve (KeepSingletons) shape,
// over one round, several, and the default round (0: what setDefaults
// picks, which the oracle is told by asking it).
func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seqs := randReads(rng, 40, 300, 900)
	// A shared motif pushes some k-mers past MaxFreq.
	motif := randReads(rng, 1, 40, 40)[0]
	for i := 0; i < 12; i++ {
		seqs[i] = append(append([]byte(nil), seqs[i]...), motif...)
	}
	// Overlapping copies give the rest counts of 2 and up.
	for i := 0; i < 20; i++ {
		seqs = append(seqs, seqs[i][100:])
	}
	for _, keep := range []bool{false, true} {
		for _, perRound := range []int{1 << 19, 1500, 0} {
			for _, p := range []int{1, 2, 4} {
				cfg := Config{K: 17, MaxFreq: 8, KeepSingletons: keep, MaxKmersPerRound: perRound, Async: true}
				if perRound == 0 {
					resolved := cfg
					if err := resolved.setDefaults(); err != nil {
						t.Fatal(err)
					}
					perRound = resolved.MaxKmersPerRound
				}
				store := fastq.NewReadStore(recordsOf(seqs), p)
				got := make([][]byte, p)
				err := spmd.Run(p, func(c *spmd.Comm) error {
					part, _, err := Build(c, nil, localReadsOf(store, c.Rank()), cfg)
					if err == nil {
						got[c.Rank()] = part.Encode()
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				for rank := range got {
					ref := referenceBuild(store, p, rank, cfg, perRound)
					if len(ref.Table) == 0 {
						t.Fatalf("keep=%v p=%d rank %d: empty oracle partition", keep, p, rank)
					}
					if !bytes.Equal(got[rank], ref.Encode()) {
						t.Errorf("keep=%v perRound=%d p=%d rank %d: Encode differs from the map-backed build's",
							keep, perRound, p, rank)
					}
				}
			}
		}
	}
}
