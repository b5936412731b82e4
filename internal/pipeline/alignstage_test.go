package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dibella/internal/align"
	"dibella/internal/dna"
	"dibella/internal/fastq"
	"dibella/internal/overlap"
)

// The alignment stage builds a reverse complement per opposite-strand read
// B and evicts it with B's last task. The buffers are recycled: the stage
// allocates as many as were ever live at once, every cached entry is still
// its own read's reverse complement after a neighbour's buffer was reused,
// and nothing is left cached at the end.
func TestReverseComplementBuffersRecycled(t *testing.T) {
	const reads, readLen, k = 40, 300, 17
	rng := rand.New(rand.NewSource(12))
	recs := make([]*fastq.Record, reads)
	for i := range recs {
		seq := make([]byte, readLen)
		for j := range seq {
			seq[j] = "ACGT"[rng.Intn(4)]
		}
		recs[i] = &fastq.Record{Name: fmt.Sprintf("r%d", i), Seq: seq}
	}
	// Sorted by (A, B) as overlap.Run hands them over; B's claims on its
	// reverse complement are then spread over many A, so several are live
	// at once, but far fewer than there are opposite-strand reads.
	var tasks []overlap.Task
	for a := uint32(0); a < reads; a++ {
		for b := a + 1; b < min(a+9, reads); b++ {
			tasks = append(tasks, overlap.Task{
				Pair:  overlap.Pair{A: a, B: b},
				Seeds: []overlap.Seed{{PosA: 100, PosB: 120, FwdA: true, FwdB: (a+b)%5 == 0}},
			})
		}
	}
	view := fastq.NewReadStore(recs, 1).View(0)
	cfg := Config{K: k, XDrop: 7, Scoring: align.DefaultScoring}
	var st AlignStats
	al := newAligner(nil, nil, view, cfg, &st, tasks)

	// The stage's eviction rule replayed on the task list alone.
	remaining := make(map[uint32]int)
	for _, task := range tasks {
		if needsRC(task) {
			remaining[task.Pair.B]++
		}
	}
	opposite := len(remaining)
	live, peak := make(map[uint32]bool), 0
	buffers := make(map[*byte]bool)
	for _, task := range tasks {
		al.alignTask(task)
		if b := task.Pair.B; needsRC(task) {
			live[b] = true
			peak = max(peak, len(live))
			if remaining[b]--; remaining[b] == 0 {
				delete(live, b)
			}
		}
		if len(al.rc) != len(live) {
			t.Fatalf("after task %v: %d cached reverse complements, %d reads still need one", task.Pair, len(al.rc), len(live))
		}
		for id, rc := range al.rc {
			if !bytes.Equal(rc, dna.ReverseComplement(view.Seq(id))) {
				t.Fatalf("after task %v: read %d's cached reverse complement was overwritten", task.Pair, id)
			}
			buffers[&rc[0]] = true
		}
		for _, buf := range al.rcFree {
			buffers[&buf[:1][0]] = true
		}
	}
	if len(al.rc) != 0 || len(al.rcNeed) != 0 {
		t.Errorf("stage ended with %d cached reverse complements and %d open claims", len(al.rc), len(al.rcNeed))
	}
	if len(buffers) != peak {
		t.Errorf("stage allocated %d reverse-complement buffers; %d were live at the peak", len(buffers), peak)
	}
	if peak >= opposite {
		t.Fatalf("test is vacuous: peak %d live of %d opposite-strand reads", peak, opposite)
	}
	t.Logf("%d opposite-strand reads, %d live at the peak, %d buffers allocated", opposite, peak, len(buffers))
}
