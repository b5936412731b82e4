package pipeline

import (
	"reflect"
	"testing"

	"dibella/internal/fastq"
	"dibella/internal/overlap"
	"dibella/internal/seqgen"
	"dibella/internal/spmd"
)

// TestRunQuerySpreadsAlignment pins the query epoch's placement rule
// against the batch overlap stage's task list: an indexed×query task is
// consolidated and aligned by the rank that owns the indexed read, a
// query×query task by rank (lower query index) mod p, no sequence moves,
// and the answer depends on neither the world size nor the gather root.
func TestRunQuerySpreadsAlignment(t *testing.T) {
	ds, err := seqgen.Generate(seqgen.Config{
		GenomeLen: 20000, Seed: 7, Coverage: 12, MeanReadLen: 1800, MinReadLen: 500,
		ErrorRate: 0.08, BothStrands: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 24 reads of the 12x tail cover the genome about twice over: a batch
	// that overlaps itself.
	const p, queries = 4, 24
	nIndexed := len(ds.Reads) - queries
	base := uint32(nIndexed)
	var all []QueryRead
	for _, r := range ds.Reads[nIndexed:] {
		all = append(all, QueryRead{Name: r.Name, Seq: r.Seq})
	}
	batches := [][]QueryRead{all[:1], all}
	cfg := Config{
		K: 17, MaxFreq: 8, SeedMode: overlap.MinDistance, MinDist: 500,
		KeepAlignments: true, KeepSingletons: true,
	}

	// serve answers every batch on a world of size ranks, gathering on
	// root: per-rank task counts and root's records, per batch.
	serve := func(size, root int) (tasks [][]int64, records [][]Alignment) {
		tasks, records = make([][]int64, len(batches)), make([][]Alignment, len(batches))
		for b := range tasks {
			tasks[b] = make([]int64, size)
		}
		err := spmd.Run(size, func(c *spmd.Comm) error {
			w, err := FormWorld(c, nil, fastq.NewReadStore(ds.Reads[:nIndexed], size), cfg)
			if err != nil {
				return err
			}
			for b, batch := range batches {
				before := w.QueryStats().Tasks
				recs, err := w.RunQuery(root, batch)
				if err != nil {
					return err
				}
				tasks[b][c.Rank()] = w.QueryStats().Tasks - before
				if c.Rank() == root {
					records[b] = recs
				} else if recs != nil {
					t.Errorf("rank %d returned records gathered on root %d", c.Rank(), root)
				}
			}
			// batchQueryView.AddReplica panics, so getting here at all means
			// no task fetched a sequence; the world's own view took none either.
			if n := w.view.ReplicaBytes(); n != 0 {
				t.Errorf("rank %d holds %d replica bytes after serving: a query moved sequence", c.Rank(), n)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return tasks, records
	}
	tasks, records := serve(p, 0)
	_, oneRank := serve(1, 0)
	_, lastRoot := serve(p, p-1)

	owner := fastq.NewReadStore(ds.Reads[:nIndexed], p).Owner
	for b, batch := range batches {
		if len(records[b]) == 0 {
			t.Fatalf("batch %d: no records", b)
		}
		if !reflect.DeepEqual(records[b], oneRank[b]) {
			t.Errorf("batch %d: records on %d ranks differ from the 1-rank world's", b, p)
		}
		if !reflect.DeepEqual(records[b], lastRoot[b]) {
			t.Errorf("batch %d: records gathered on root %d differ from root 0's", b, p-1)
		}

		// The oracle: the batch overlap stage's tasks over indexed + batch
		// reads, restricted to pairs involving a query read (Pair.A < Pair.B
		// and query IDs follow the indexed ones).
		var indexed, queryByQuery [p]int64
		err := spmd.Run(1, func(c *spmd.Comm) error {
			batchCfg := cfg
			batchCfg.KeepSingletons = false
			w, err := FormWorld(c, nil, fastq.NewReadStore(ds.Reads[:nIndexed+len(batch)], 1), batchCfg)
			if err != nil {
				return err
			}
			ts, err := w.overlapStage(nil, nil, false)
			for _, task := range ts {
				switch a, b := task.Pair.A, task.Pair.B; {
				case b < base:
				case a < base:
					indexed[owner(a)]++
				default:
					queryByQuery[int(a-base)%p]++
				}
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		var want [p]int64
		holders, total := 0, int64(0)
		for r := range want {
			want[r] = indexed[r] + queryByQuery[r]
			total += queryByQuery[r]
			if queryByQuery[r] > 0 {
				holders++
			}
		}
		if !reflect.DeepEqual(tasks[b], want[:]) {
			t.Errorf("batch %d: tasks per rank %v, want %v (indexed×query with the indexed read's owner %v + query×query by lower index mod p %v)",
				b, tasks[b], want, indexed, queryByQuery)
		}
		if len(batch) == 1 {
			if total != 0 {
				t.Errorf("batch %d of one read: %d query×query tasks", b, total)
			}
		} else if holders < 2 {
			t.Errorf("batch %d: query×query tasks per rank %v — one rank holds them all", b, queryByQuery)
		}
	}
}
