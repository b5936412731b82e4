package overlap

import (
	"fmt"
	"sort"

	"dibella/internal/spmd"
	"dibella/internal/wire"
)

// Task-segment codec and placement re-shard: the checkpoint
// representation of one rank's consolidated alignment tasks, plus the
// collective that re-routes loaded tasks when the world size changed
// between snapshot and resume.
//
// Task placement is the deterministic owner policy over the read-store
// block distribution, so tasks snapshotted at world size W re-home at any
// size P by re-evaluating the policy against the new distribution's
// owner function. Seed lists were already consolidated and filtered
// before the snapshot; they travel with the task untouched.

// EncodeTasks serializes tasks (already sorted by (A, B), the order Run
// emits) deterministically.
func EncodeTasks(tasks []Task) []byte {
	n := 4
	for i := range tasks {
		n += taskHeaderSize + seedSize*len(tasks[i].Seeds)
	}
	buf := wire.U32(make([]byte, 0, n), uint32(len(tasks)))
	for i := range tasks {
		buf = appendTask(buf, &tasks[i])
	}
	return buf
}

// Encoded sizes: a task is its pair and seed count, a seed its two
// positions and a flag byte.
const (
	taskHeaderSize = 12
	seedSize       = 9
)

// appendTask serializes one task.
func appendTask(buf []byte, t *Task) []byte {
	buf = wire.U32(wire.U32(buf, t.Pair.A), t.Pair.B)
	buf = wire.U32(buf, uint32(len(t.Seeds)))
	for _, s := range t.Seeds {
		var flags byte
		if s.FwdA {
			flags |= 1
		}
		if s.FwdB {
			flags |= 2
		}
		buf = wire.U8(wire.U32(wire.U32(buf, s.PosA), s.PosB), flags)
	}
	return buf
}

// readTask parses one appendTask record.
func readTask(r *wire.Reader) Task {
	t := Task{Pair: Pair{A: r.U32(), B: r.U32()}}
	t.Seeds = make([]Seed, r.Count(uint64(r.U32()), seedSize))
	for i := range t.Seeds {
		posA, posB, flags := r.U32(), r.U32(), r.U8()
		if flags > 3 {
			r.Fail(fmt.Errorf("task (%d,%d) seed %d has unknown flag bits %#x", t.Pair.A, t.Pair.B, i, flags))
		}
		t.Seeds[i] = Seed{PosA: posA, PosB: posB, FwdA: flags&1 != 0, FwdB: flags&2 != 0}
	}
	return t
}

// DecodeTasks parses an EncodeTasks blob.
func DecodeTasks(b []byte) ([]Task, error) {
	r := wire.NewReader(b)
	tasks := make([]Task, r.Count(uint64(r.U32()), taskHeaderSize))
	for i := range tasks {
		tasks[i] = readTask(r)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("overlap: task segment: %w", err)
	}
	return tasks, nil
}

// ReshardTasks re-routes tasks to the ranks Algorithm 1's odd/even rule
// picks under owner (the new world's read distribution). All ranks call it
// collectively; the union of their task lists must cover each pair
// exactly once (as a per-rank snapshot of one world does). Returns this
// rank's tasks, sorted by (A, B) — the order Run emits, so the
// continuation is indistinguishable from a fresh overlap stage at the
// new size.
func ReshardTasks(c *spmd.Comm, tasks []Task, owner OwnerFunc) ([]Task, error) {
	p := c.Size()
	send := make([]spmd.PackedBufs, p)
	for i := range tasks {
		t := &tasks[i]
		dst := oddEvenOwner(t.Pair.A, t.Pair.B, owner)
		send[dst].AppendItem(appendTask(nil, t))
	}
	recv := spmd.AlltoallvPacked(c, send)
	var out []Task
	for src := 0; src < p; src++ {
		for _, item := range recv[src].Items() {
			r := wire.NewReader(item)
			out = append(out, readTask(r))
			if err := r.Finish(); err != nil {
				return nil, fmt.Errorf("overlap: reshard from rank %d: %w", src, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pair.A != out[j].Pair.A {
			return out[i].Pair.A < out[j].Pair.A
		}
		return out[i].Pair.B < out[j].Pair.B
	})
	return out, nil
}
