package pipeline

import (
	"reflect"
	"testing"

	"dibella/internal/fastq"
	"dibella/internal/overlap"
	"dibella/internal/seqgen"
	"dibella/internal/spmd"
)

// TestRunQuerySpreadsAlignment pins the query epoch's placement: an
// indexed×query task is consolidated and aligned by the rank that owns
// the indexed read, whatever home the router picked; only query×query
// tasks follow home; and the answer does not depend on home at all.
func TestRunQuerySpreadsAlignment(t *testing.T) {
	ds, err := seqgen.Generate(seqgen.Config{
		GenomeLen: 20000, Seed: 7, Coverage: 12, MeanReadLen: 1800, MinReadLen: 500,
		ErrorRate: 0.08, BothStrands: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const p, queries = 4, 6
	nIndexed := len(ds.Reads) - queries
	var all []QueryRead
	for _, r := range ds.Reads[nIndexed:] {
		all = append(all, QueryRead{Name: r.Name, Seq: r.Seq})
	}
	batches := [][]QueryRead{all[:1], all}

	type outcome struct {
		tasks, alignments [p]int64 // per rank, this query alone
		records           []Alignment
	}
	var got [2][p]outcome // [batch][home]
	err = spmd.Run(p, func(c *spmd.Comm) error {
		w, err := FormWorld(c, nil, fastq.NewReadStore(ds.Reads[:nIndexed], p), Config{
			K: 17, MaxFreq: 8, SeedMode: overlap.MinDistance, MinDist: 500,
			KeepAlignments: true, KeepSingletons: true,
		})
		if err != nil {
			return err
		}
		for b, batch := range batches {
			for home := 0; home < p; home++ {
				before := w.QueryStats()
				recs, err := w.RunQuery(home, batch)
				if err != nil {
					return err
				}
				after := w.QueryStats()
				o := &got[b][home]
				o.tasks[c.Rank()] = after.Tasks - before.Tasks
				o.alignments[c.Rank()] = after.Alignments - before.Alignments
				if c.Rank() == 0 {
					o.records = recs
				}
			}
		}
		// batchQueryView.AddReplica panics, so getting here at all means no
		// task fetched a sequence; the world's own view took none either.
		if n := w.view.ReplicaBytes(); n != 0 {
			t.Errorf("rank %d holds %d replica bytes after serving: a query moved sequence", c.Rank(), n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for b := range got {
		ref := &got[b][0]
		if len(ref.records) == 0 {
			t.Fatalf("batch %d: no records", b)
		}
		aligning := 0
		for _, n := range ref.alignments {
			if n > 0 {
				aligning++
			}
		}
		if aligning < 2 {
			t.Errorf("batch %d: alignments per rank %v — one rank did all the work", b, ref.alignments)
		}
		// Indexed×query tasks sit with their indexed read, so away from
		// home a rank's share is the same under every home; what home adds
		// is the batch's query×query tasks, and only on home.
		var indexedShare [p]int64
		for r := range indexedShare {
			indexedShare[r] = got[b][(r+1)%p].tasks[r]
		}
		queryByQuery := got[b][0].tasks[0] - indexedShare[0]
		for home := range got[b] {
			o := &got[b][home]
			if !reflect.DeepEqual(o.records, ref.records) {
				t.Errorf("batch %d: records at home %d differ from home 0's", b, home)
			}
			want := indexedShare
			want[home] += queryByQuery
			if o.tasks != want {
				t.Errorf("batch %d home %d: tasks per rank %v, want %v (indexed×query share %v + %d query×query on home)",
					b, home, o.tasks, want, indexedShare, queryByQuery)
			}
		}
		if single := b == 0; single != (queryByQuery == 0) {
			t.Errorf("batch %d of %d read(s): %d query×query tasks", b, len(batches[b]), queryByQuery)
		}
	}
}
