package overlap

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dibella/internal/spmd"
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
		n += 12 + 9*len(tasks[i].Seeds)
	}
	buf := make([]byte, 0, n)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(tasks)))
	for i := range tasks {
		buf = appendTask(buf, &tasks[i])
	}
	return buf
}

// appendTask serializes one task.
func appendTask(buf []byte, t *Task) []byte {
	buf = binary.BigEndian.AppendUint32(buf, t.Pair.A)
	buf = binary.BigEndian.AppendUint32(buf, t.Pair.B)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.Seeds)))
	for _, s := range t.Seeds {
		buf = binary.BigEndian.AppendUint32(buf, s.PosA)
		buf = binary.BigEndian.AppendUint32(buf, s.PosB)
		var flags byte
		if s.FwdA {
			flags |= 1
		}
		if s.FwdB {
			flags |= 2
		}
		buf = append(buf, flags)
	}
	return buf
}

// decodeTask parses one appendTask blob prefix, returning the remainder.
func decodeTask(b []byte) (t Task, rest []byte, err error) {
	if len(b) < 12 {
		return Task{}, nil, fmt.Errorf("overlap: task header truncated (%d bytes)", len(b))
	}
	t.Pair = Pair{A: binary.BigEndian.Uint32(b), B: binary.BigEndian.Uint32(b[4:])}
	nSeeds := int(binary.BigEndian.Uint32(b[8:]))
	b = b[12:]
	if len(b) < 9*nSeeds {
		return Task{}, nil, fmt.Errorf("overlap: task (%d,%d) truncated (%d of %d seed bytes)",
			t.Pair.A, t.Pair.B, len(b), 9*nSeeds)
	}
	t.Seeds = make([]Seed, nSeeds)
	for i := range t.Seeds {
		o := b[9*i:]
		if o[8] > 3 {
			return Task{}, nil, fmt.Errorf("overlap: task (%d,%d) seed %d has unknown flag bits %#x", t.Pair.A, t.Pair.B, i, o[8])
		}
		t.Seeds[i] = Seed{
			PosA: binary.BigEndian.Uint32(o),
			PosB: binary.BigEndian.Uint32(o[4:]),
			FwdA: o[8]&1 != 0,
			FwdB: o[8]&2 != 0,
		}
	}
	return t, b[9*nSeeds:], nil
}

// DecodeTasks parses an EncodeTasks blob.
func DecodeTasks(b []byte) ([]Task, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("overlap: task segment header truncated (%d bytes)", len(b))
	}
	count := binary.BigEndian.Uint32(b)
	b = b[4:]
	// A task is at least its 12-byte header; a larger count than the bytes
	// can hold is a truncation, caught before it sizes an allocation.
	if uint64(count) > uint64(len(b))/12 {
		return nil, fmt.Errorf("overlap: task segment truncated (%d tasks declared, %d bytes follow)", count, len(b))
	}
	tasks := make([]Task, 0, count)
	for i := uint32(0); i < count; i++ {
		t, rest, err := decodeTask(b)
		if err != nil {
			return nil, fmt.Errorf("overlap: task segment entry %d: %w", i, err)
		}
		tasks = append(tasks, t)
		b = rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("overlap: task segment has %d trailing bytes", len(b))
	}
	return tasks, nil
}

// TaskOwner applies the configured placement policy to a canonical pair
// (ra < rb): the rank that aligns this pair under owner's distribution.
// Exported for the checkpoint loader, which re-evaluates placement
// against the resumed world's distribution.
func (cfg Config) TaskOwner(ra, rb uint32, owner OwnerFunc) int {
	return cfg.taskOwner(ra, rb, owner)
}

// ReshardTasks re-routes tasks to the ranks the placement policy picks
// under owner (the new world's read distribution). All ranks call it
// collectively; the union of their task lists must cover each pair
// exactly once (as a per-rank snapshot of one world does). Returns this
// rank's tasks, sorted by (A, B) — the order Run emits, so the
// continuation is indistinguishable from a fresh overlap stage at the
// new size.
func ReshardTasks(c *spmd.Comm, tasks []Task, owner OwnerFunc, cfg Config) ([]Task, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	p := c.Size()
	send := make([]spmd.PackedBufs, p)
	for i := range tasks {
		t := &tasks[i]
		dst := cfg.taskOwner(t.Pair.A, t.Pair.B, owner)
		send[dst].AppendItem(appendTask(nil, t))
	}
	recv := spmd.AlltoallvPacked(c, send)
	var out []Task
	for src := 0; src < p; src++ {
		for _, item := range recv[src].Items() {
			t, rest, err := decodeTask(item)
			if err != nil {
				return nil, fmt.Errorf("overlap: reshard from rank %d: %w", src, err)
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("overlap: reshard from rank %d: %d trailing bytes", src, len(rest))
			}
			out = append(out, t)
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
