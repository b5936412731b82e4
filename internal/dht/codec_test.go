package dht

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"dibella/internal/kmer"
	"dibella/internal/spmd"
)

// buildTestPartition fills a partition with synthetic entries.
func buildTestPartition(k, maxFreq, entries int, salt uint64) *Partition {
	p := &Partition{K: k, MaxFreq: maxFreq}
	for i := 0; i < entries; i++ {
		km := kmer.Kmer(uint64(i)*0x9e3779b97f4a7c15 + salt)
		var occs []Occ
		for j := 0; j <= i%4; j++ {
			occs = append(occs, MakeOcc(uint32(i+j), uint32(j*100), j%2 == 0))
		}
		p.put(km, int32(2+i%5), occs)
	}
	return p
}

func TestPartitionCodecRoundtrip(t *testing.T) {
	p := buildTestPartition(17, 8, 37, 3)
	blob := p.Encode()
	back, err := DecodePartition(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.K != p.K || back.MaxFreq != p.MaxFreq {
		t.Errorf("header K=%d MaxFreq=%d", back.K, back.MaxFreq)
	}
	if !reflect.DeepEqual(tableOf(p), tableOf(back)) {
		t.Error("entries did not round-trip")
	}
	if !bytes.Equal(blob, p.Encode()) {
		t.Error("encoding is not deterministic")
	}
}

func TestPartitionCodecRejectsCorruption(t *testing.T) {
	blob := buildTestPartition(17, 8, 5, 1).Encode()
	for _, cut := range []int{0, 8, 17, len(blob) - 3} {
		if _, err := DecodePartition(blob[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := DecodePartition(append(append([]byte(nil), blob...), 1, 2, 3)); err == nil {
		t.Error("trailing garbage accepted")
	}
	// A header alone declaring 2^32-1 entries is a truncation, rejected
	// before the count sizes a map.
	header := func(count uint64) []byte {
		return binary.BigEndian.AppendUint64([]byte{0, 0, 0, 17, 0, 0, 0, 8}, count)
	}
	for _, blob := range [][]byte{
		header(1<<32 - 1),
		append(header(2), make([]byte, 16)...), // 2 declared, room for 1
	} {
		if _, err := DecodePartition(blob); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("count beyond the bytes that follow: err = %v", err)
		}
	}
	// Entries Encode would have written in another order (or only once).
	two := append(header(2), make([]byte, 32)...)
	if _, err := DecodePartition(two); err == nil {
		t.Error("repeated k-mer accepted")
	}
	two[16+7] = 9 // first entry's k-mer now above the second's
	if _, err := DecodePartition(two); err == nil {
		t.Error("descending k-mers accepted")
	}
}

// FuzzDecodePartition: arbitrary bytes never panic the decoder, never
// yield more entries than bytes, and whatever decodes re-encodes to the
// same bytes.
func FuzzDecodePartition(f *testing.F) {
	f.Add((&Partition{K: 17, MaxFreq: 8}).Encode())
	f.Add(buildTestPartition(17, 8, 9, 3).Encode())
	f.Add(binary.BigEndian.AppendUint64([]byte{0, 0, 0, 17, 0, 0, 0, 8}, 1<<32-1))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePartition(b)
		if err != nil {
			return
		}
		if p.Retained() > len(b) {
			t.Fatalf("%d entries from %d bytes", p.Retained(), len(b))
		}
		if back := p.Encode(); !bytes.Equal(back, b) {
			t.Fatalf("re-encoding differs: %x -> %x", b, back)
		}
	})
}

// TestReshardMatchesOwnership re-homes a 3-rank partition set onto worlds
// of several sizes and checks every entry lands on its hash owner with
// its occurrence list intact, and that the global entry set is preserved.
func TestReshardMatchesOwnership(t *testing.T) {
	// The "old world": three partitions, keyed so each holds only k-mers
	// it would own at P=3 (as a real build produces).
	const oldP = 3
	oldParts := make([]*Partition, oldP)
	for r := range oldParts {
		oldParts[r] = &Partition{K: 17, MaxFreq: 8}
	}
	global := tableOf(buildTestPartition(17, 8, 200, 11))
	for km, e := range global {
		oldParts[km.Owner(oldP)].put(km, e.Count, e.Occs)
	}

	for _, newP := range []int{1, 2, 3, 5} {
		got := make([]*Partition, newP)
		err := spmd.Run(newP, func(c *spmd.Comm) error {
			// Contiguous assignment of old segments to new ranks, as the
			// resume loader uses.
			hold := &Partition{K: 17, MaxFreq: 8}
			lo, hi := c.Rank()*oldP/newP, (c.Rank()+1)*oldP/newP
			for s := lo; s < hi; s++ {
				if err := hold.Merge(oldParts[s]); err != nil {
					return err
				}
			}
			out, err := Reshard(c, hold)
			if err != nil {
				return err
			}
			got[c.Rank()] = out
			return nil
		})
		if err != nil {
			t.Fatalf("newP=%d: %v", newP, err)
		}
		merged := make(map[kmer.Kmer]refEntry)
		for r, p := range got {
			for km, e := range tableOf(p) {
				if km.Owner(newP) != r {
					t.Errorf("newP=%d: k-mer %#x on rank %d, owner %d", newP, uint64(km), r, km.Owner(newP))
				}
				merged[km] = e
			}
		}
		if !reflect.DeepEqual(global, merged) {
			t.Errorf("newP=%d: resharded entry set diverged (%d vs %d entries)", newP, len(merged), len(global))
		}
	}
}

// TestReshardRejectsDuplicates: overlapping segment assignments (the same
// old segment loaded by two new ranks) must fail loudly, not silently
// double entries.
func TestReshardRejectsDuplicates(t *testing.T) {
	part := buildTestPartition(17, 8, 10, 2)
	err := spmd.Run(2, func(c *spmd.Comm) error {
		// Both ranks contribute the same entries.
		_, err := Reshard(c, part)
		return err
	})
	if err == nil {
		t.Fatal("duplicate contributions accepted")
	}
}
