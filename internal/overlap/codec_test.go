package overlap

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dibella/internal/spmd"
)

func testTasks(n int) []Task {
	tasks := make([]Task, 0, n)
	for i := 0; i < n; i++ {
		t := Task{Pair: Pair{A: uint32(i), B: uint32(i + n)}}
		for j := 0; j <= i%3; j++ {
			t.Seeds = append(t.Seeds, Seed{
				PosA: uint32(j * 500), PosB: uint32(j*500 + 7),
				FwdA: j%2 == 0, FwdB: i%2 == 0,
			})
		}
		tasks = append(tasks, t)
	}
	return tasks
}

func TestTaskCodecRoundtrip(t *testing.T) {
	tasks := testTasks(17)
	blob := EncodeTasks(tasks)
	back, err := DecodeTasks(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tasks, back) {
		t.Error("tasks did not round-trip")
	}
	if !bytes.Equal(blob, EncodeTasks(tasks)) {
		t.Error("encoding is not deterministic")
	}
	empty, err := DecodeTasks(EncodeTasks(nil))
	if err != nil || len(empty) != 0 {
		t.Errorf("empty set: %v %v", empty, err)
	}
}

func TestTaskCodecRejectsCorruption(t *testing.T) {
	blob := EncodeTasks(testTasks(3))
	for _, cut := range []int{0, 3, 13, len(blob) - 1} {
		if _, err := DecodeTasks(blob[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := DecodeTasks(append(append([]byte(nil), blob...), 9)); err == nil {
		t.Error("trailing garbage accepted")
	}
	// A header alone declaring 2^32-1 tasks is a truncation, rejected
	// before the count sizes an allocation.
	for _, blob := range [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF},
		append([]byte{0, 0, 0, 2}, make([]byte, 12)...), // 2 declared, room for 1
	} {
		if _, err := DecodeTasks(blob); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("count beyond the bytes that follow: err = %v", err)
		}
	}
	// Flag bits EncodeTasks never sets are not silently dropped.
	one := EncodeTasks(testTasks(1))
	one[len(one)-1] |= 0x80
	if _, err := DecodeTasks(one); err == nil {
		t.Error("unknown seed flag bits accepted")
	}
}

// FuzzDecodeTasks: arbitrary bytes never panic the decoder, never yield
// more tasks than bytes, and whatever decodes re-encodes to the same bytes.
func FuzzDecodeTasks(f *testing.F) {
	f.Add(EncodeTasks(nil))
	f.Add(EncodeTasks(testTasks(5)))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		tasks, err := DecodeTasks(b)
		if err != nil {
			return
		}
		if len(tasks) > len(b) {
			t.Fatalf("%d tasks from %d bytes", len(tasks), len(b))
		}
		if back := EncodeTasks(tasks); !bytes.Equal(back, b) {
			t.Fatalf("re-encoding differs: %x -> %x", b, back)
		}
	})
}

// TestReshardTasksMatchesPolicy re-homes a task set across world sizes
// and checks each task lands exactly where odd/even places it, with the
// global set preserved and per-rank order sorted.
func TestReshardTasksMatchesPolicy(t *testing.T) {
	const reads = 40
	all := testTasks(reads / 2)
	for _, newP := range []int{1, 2, 4} {
		// Block distribution of `reads` reads over newP ranks.
		owner := func(id uint32) int { return int(id) * newP / reads }
		got := make([][]Task, newP)
		err := spmd.Run(newP, func(c *spmd.Comm) error {
			// Old world: tasks split contiguously across 2 "segments",
			// assigned to the first ranks of the new world.
			var hold []Task
			if c.Rank() == 0 {
				hold = all[:len(all)/2]
			} else if c.Rank() == 1%newP {
				hold = all[len(all)/2:]
			}
			if newP == 1 {
				hold = all
			}
			out, err := ReshardTasks(c, hold, owner)
			if err != nil {
				return err
			}
			got[c.Rank()] = out
			return nil
		})
		if err != nil {
			t.Fatalf("newP=%d: %v", newP, err)
		}
		var merged []Task
		for r, ts := range got {
			for i := range ts {
				if want := oddEvenOwner(ts[i].Pair.A, ts[i].Pair.B, owner); want != r {
					t.Errorf("newP=%d: task %v on rank %d, odd/even places it on %d", newP, ts[i].Pair, r, want)
				}
				if i > 0 && ts[i].Pair.A < ts[i-1].Pair.A {
					t.Errorf("newP=%d: rank %d tasks out of order", newP, r)
				}
			}
			merged = append(merged, ts...)
		}
		if len(merged) != len(all) {
			t.Fatalf("newP=%d: %d tasks after reshard, want %d", newP, len(merged), len(all))
		}
	}
}
