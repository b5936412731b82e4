package pipeline

import (
	"bytes"
	"cmp"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"dibella/internal/fastq"
	"dibella/internal/kmer"
	"dibella/internal/machine"
	"dibella/internal/overlap"
	"dibella/internal/paf"
	"dibella/internal/seqgen"
	"dibella/internal/spmd"
	"dibella/internal/trace"
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
			// Every task aligned where it was placed: no rank installed a
			// replica of another rank's read.
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

// smallQueryInput is an 8 kb genome sampled at 8x whose last six reads
// are the query batch and the rest the indexed reads.
func smallQueryInput(t *testing.T) (indexed []*fastq.Record, batch []QueryRead) {
	t.Helper()
	ds, err := seqgen.Generate(seqgen.Config{
		GenomeLen: 8000, Seed: 3, Coverage: 8, MeanReadLen: 1500, MinReadLen: 500,
		ErrorRate: 0.08, BothStrands: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const queries = 6
	indexed = ds.Reads[:len(ds.Reads)-queries]
	for _, r := range ds.Reads[len(indexed):] {
		batch = append(batch, QueryRead{Name: r.Name, Seq: r.Seq})
	}
	return indexed, batch
}

// TestOneReadBatchRoutedByEveryRank: the route splits a batch's k-mer
// positions, not its reads, so at p=3 every rank scans and routes a share
// of a one-read batch, the shares sum to the read's k-mers, and the served
// PAF is still the combined batch run's restricted to the query read.
func TestOneReadBatchRoutedByEveryRank(t *testing.T) {
	const p = 3
	indexed, batch := smallQueryInput(t)
	batch = batch[:1]
	cfg := Config{
		K: 17, MaxFreq: 8, SeedMode: overlap.MinDistance, MinDist: 500,
		KeepAlignments: true, KeepSingletons: true,
	}
	routed := make([]int64, p)
	var served bytes.Buffer
	err := spmd.Run(p, func(c *spmd.Comm) error {
		w, err := FormWorld(c, nil, fastq.NewReadStore(indexed, p), cfg)
		if err != nil {
			return err
		}
		recs, err := w.RunQuery(0, batch)
		if err != nil {
			return err
		}
		routed[c.Rank()] = w.QueryStats().KmersRouted
		if c.Rank() == 0 {
			return paf.Write(&served, w.QueryPAF(batch, recs))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for r, n := range routed {
		if n == 0 {
			t.Errorf("rank %d routed none of a one-read batch's k-mers", r)
		}
		sum += n
	}
	if want := int64(kmer.Count(len(batch[0].Seq), cfg.K)); sum != want {
		t.Errorf("ranks routed %v k-mers, summing to %d; the read has %d", routed, sum, want)
	}

	all := append(slices.Clip(indexed), &fastq.Record{Name: batch[0].Name, Seq: batch[0].Seq})
	batchCfg := cfg
	batchCfg.KeepSingletons = false
	rep, err := Execute(p, nil, all, batchCfg)
	if err != nil {
		t.Fatal(err)
	}
	var kept []Alignment
	for _, a := range rep.Records {
		if int(a.B) >= len(indexed) {
			kept = append(kept, a)
		}
	}
	rep.Records = kept
	var want bytes.Buffer
	if err := paf.Write(&want, rep.PAFRecords(all)); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("degenerate reference: the query read overlaps nothing")
	}
	if !bytes.Equal(served.Bytes(), want.Bytes()) {
		t.Errorf("served PAF (%d bytes) differs from the batch reference (%d bytes)", served.Len(), want.Len())
	}
}

// An index a daemon serves is loaded from a file, as the batch run's reads
// are, not handed over in memory. The indexed part of a seqgen set, written
// as gzip (rank 0 parses it whole and reshuffles the records) and as plain
// FASTQ (each rank parses its shard), forms a three-rank KeepSingletons
// world through LoadStore; the same RunQuery batches on each must return
// the records of the world formed from fastq.NewReadStore.
func TestQueryOnLoadedIndexMatchesInMemory(t *testing.T) {
	ds, err := seqgen.Generate(seqgen.Config{
		GenomeLen: 20000, Seed: 11, Coverage: 12, MeanReadLen: 1800, MinReadLen: 500,
		ErrorRate: 0.08, BothStrands: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const p, queries = 3, 16
	indexed := ds.Reads[:len(ds.Reads)-queries]
	var all []QueryRead
	for _, r := range ds.Reads[len(indexed):] {
		all = append(all, QueryRead{Name: r.Name, Seq: r.Seq})
	}
	batches := [][]QueryRead{all[:1], all}
	cfg := Config{
		K: 17, MaxFreq: 8, SeedMode: overlap.MinDistance, MinDist: 500,
		KeepAlignments: true, KeepSingletons: true,
	}
	serve := func(load func(c *spmd.Comm) (*fastq.ReadStore, error)) [][]Alignment {
		records := make([][]Alignment, len(batches))
		err := spmd.Run(p, func(c *spmd.Comm) error {
			store, err := load(c)
			if err != nil {
				return err
			}
			w, err := FormWorld(c, nil, store, cfg)
			if err != nil {
				return err
			}
			for b, batch := range batches {
				recs, err := w.RunQuery(0, batch)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					records[b] = recs
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return records
	}
	want := serve(func(*spmd.Comm) (*fastq.ReadStore, error) { return fastq.NewReadStore(indexed, p), nil })
	for b := range batches {
		if len(want[b]) == 0 {
			t.Fatalf("batch %d: no records from the in-memory index; nothing to compare", b)
		}
	}
	dir := t.TempDir()
	for _, name := range []string{"indexed.fastq.gz", "indexed.fastq"} {
		path := filepath.Join(dir, name)
		if err := fastq.WriteFile(path, indexed); err != nil {
			t.Fatal(err)
		}
		got := serve(func(c *spmd.Comm) (*fastq.ReadStore, error) { return LoadStore(c, path) })
		for b := range batches {
			if !reflect.DeepEqual(got[b], want[b]) {
				t.Errorf("%s, batch %d: %d records, the in-memory index gave %d, or they differ", name, b, len(got[b]), len(want[b]))
			}
		}
	}
}

// TestRunQueryExchanges pins the served epoch to the three exchanges it
// needs — route the batch's k-mers, ship the pairs, gather the records —
// on every rank and under both alignment schedules: the tasks align
// where they were placed, so nothing is requested or replied.
func TestRunQueryExchanges(t *testing.T) {
	const p = 3
	indexed, batch := smallQueryInput(t)
	for _, ex := range []ExchangeMode{ExchangeSync, ExchangeStreamed} {
		cfg := Config{
			K: 17, MaxFreq: 8, SeedMode: overlap.MinDistance, MinDist: 500,
			KeepAlignments: true, KeepSingletons: true, Exchange: ex,
		}
		err := spmd.Run(p, func(c *spmd.Comm) error {
			w, err := FormWorld(c, nil, fastq.NewReadStore(indexed, p), cfg)
			if err != nil {
				return err
			}
			before := c.Stats().Alltoallvs
			recs, err := w.RunQuery(0, batch)
			if err != nil {
				return err
			}
			if n := c.Stats().Alltoallvs - before; n != 3 {
				t.Errorf("exchange %v, rank %d: one query posted %d exchanges, want 3", ex, c.Rank(), n)
			}
			if c.Rank() == 0 && len(recs) == 0 {
				t.Errorf("exchange %v: the query aligned nothing", ex)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sortRuns is the oracle of the query probe's grouping: sort the received
// occurrences by (k-mer, read, position), the order the probe's argument
// needs, with a comparison sort.
func sortRuns(recv [][]overlap.KeyVal) []overlap.KeyVal {
	occs := slices.Concat(recv...)
	slices.SortFunc(occs, func(a, b overlap.KeyVal) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Val, b.Val))
	})
	return occs
}

// FuzzQueryGroupMatchesSort holds the probe's grouping — a stable sort by
// k-mer alone — to the full (k-mer, read, position) sort: the two agree
// only because arrival order is (read, position) ascending, which is the
// argument the probe's pair emission rests on. Each input byte is one
// occurrence: its low four bits pick one of sixteen k-mers, so repeats
// happen; bit 4 starts the next read and bit 5 is the strand flag. The
// occurrences, ascending in (read, position) as a batch's are, are split
// over 1–4 sources in ascending blocks. One reused probeBufs groups the
// input and then its first half, as a World serves batches of different
// sizes.
func FuzzQueryGroupMatchesSort(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 1, 0, 0x12, 1, 0x20}, uint8(1))
	f.Add(bytes.Repeat([]byte{3, 0x17, 3, 0x2b, 0}, 30), uint8(3))
	var g probeBufs
	f.Fuzz(func(t *testing.T, data []byte, sources uint8) {
		check := func(data []byte) {
			var occs []overlap.KeyVal
			read, pos := uint64(1000), uint64(0)
			for _, b := range data {
				if b&0x10 != 0 {
					read, pos = read+1, 0
				}
				km := uint64(b&0xf+1) * 0x9e3779b97f4a7c15
				occs = append(occs, overlap.KeyVal{Key: km, Val: read<<32 | pos<<1 | uint64(b>>5&1)})
				pos++
			}
			p := 1 + int(sources%4)
			recv := make([][]overlap.KeyVal, p)
			for r := range recv {
				lo, hi := blockRange(len(occs), p, r)
				recv[r] = occs[lo:hi]
			}
			want := sortRuns(recv)
			if got := g.group(recv); !slices.Equal(got, want) {
				t.Fatalf("grouped %v, the sort %v", got, want)
			}
		}
		check(data)
		check(data[:len(data)/2])
	})
}

// TestRunQueryTraceSpans: a traced epoch records query.probe and then
// query.align nested in query.batch on every rank, and tracing leaves the
// epoch's records and every rank's virtual clock bit-identical to an
// untraced epoch's.
func TestRunQueryTraceSpans(t *testing.T) {
	const p = 3
	indexed, batch := smallQueryInput(t)
	mdl, err := machine.NewModelScaled(machine.Cori, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		K: 17, MaxFreq: 8, SeedMode: overlap.MinDistance, MinDist: 500,
		KeepAlignments: true, KeepSingletons: true,
	}
	epoch := func() (recs []Alignment, now [p]float64) {
		err := spmd.RunWithModel(p, mdl, func(c *spmd.Comm) error {
			w, err := FormWorld(c, mdl, fastq.NewReadStore(indexed, p), cfg)
			if err != nil {
				return err
			}
			out, err := w.RunQuery(0, batch)
			if c.Rank() == 0 {
				recs = out
			}
			now[c.Rank()] = c.Now()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return recs, now
	}

	trace.Disable()
	offRecs, offNow := epoch()
	trace.Enable(trace.DefaultCapacity)
	defer trace.Disable()
	onRecs, onNow := epoch()

	if len(offRecs) == 0 {
		t.Fatal("the untraced epoch aligned nothing")
	}
	if !reflect.DeepEqual(offRecs, onRecs) {
		t.Errorf("records differ with tracing on (%d vs %d)", len(offRecs), len(onRecs))
	}
	want := []string{"B query.batch", "B query.probe", "E query.probe", "B query.align", "E query.align", "E query.batch"}
	for r := 0; r < p; r++ {
		if math.Float64bits(offNow[r]) != math.Float64bits(onNow[r]) || offNow[r] == 0 {
			t.Errorf("rank %d: virtual clock %v untraced, %v traced", r, offNow[r], onNow[r])
		}
		var got []string
		for _, e := range trace.Snapshot(r).Events {
			switch e.Name {
			case traceQuery, traceQueryProbe, traceQueryAlign:
				got = append(got, string(e.Phase)+" "+e.Name)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("rank %d: query spans %v, want %v", r, got, want)
		}
	}
}
