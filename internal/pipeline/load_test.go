package pipeline

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dibella/internal/fastq"
	"dibella/internal/paf"
	"dibella/internal/seqgen"
	"dibella/internal/spmd"
)

// shardedResult is rank 0's view of one cooperative-load pipeline run.
type shardedResult struct {
	rep   *Report
	store *fastq.ReadStore
}

// executeSharded runs the pipeline with per-rank cooperative loading over
// an already-formed world: LoadStore then ExecuteComm on every rank.
func executeSharded(c *spmd.Comm, path string, cfg Config, out *shardedResult, mu *sync.Mutex) error {
	store, err := LoadStore(c, path)
	if err != nil {
		return err
	}
	rep, err := ExecuteComm(c, nil, store, cfg, nil)
	if err != nil {
		return err
	}
	if c.Rank() == 0 {
		mu.Lock()
		out.rep = rep
		out.store = store
		mu.Unlock()
	}
	return nil
}

// checkShardedEquivalence runs the sharded-load pipeline on both
// transports over path and requires byte-identical PAF to want, plus
// parsed-byte counters that tile the file exactly. strictShards
// additionally demands every rank parsed a proper non-empty slice (true
// for length-uniform read sets; an ultra-long read may legitimately
// collapse neighboring shards to empty).
func checkShardedEquivalence(t *testing.T, path string, nReads int, cfg Config, want []byte, strictShards bool) {
	t.Helper()
	const p = 4
	fileSize := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}()

	check := func(name string, res shardedResult) {
		t.Helper()
		if res.rep == nil || res.store == nil {
			t.Fatalf("%s: rank 0 produced no report", name)
		}
		var got bytes.Buffer
		if err := paf.Write(&got, res.rep.PAFRecordsFromStore(res.store)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got.Bytes()) {
			t.Errorf("%s: sharded-load PAF diverges from whole-file load (%d vs %d bytes)",
				name, got.Len(), len(want))
		}
		if res.rep.Reads != nReads {
			t.Errorf("%s: report counts %d reads, want %d", name, res.rep.Reads, nReads)
		}
		// The counters are the proof of cooperative I/O: the per-rank
		// parsed slices tile the file exactly instead of each rank
		// re-reading all of it.
		var total int64
		for _, rr := range res.rep.PerRank {
			if rr.InputBytes < 0 || rr.InputBytes > fileSize {
				t.Errorf("%s: rank %d parsed %d bytes of a %d-byte file",
					name, rr.Rank, rr.InputBytes, fileSize)
			}
			if strictShards && (rr.InputBytes == 0 || rr.InputBytes >= fileSize) {
				t.Errorf("%s: rank %d parsed %d of %d bytes, want a proper non-empty shard",
					name, rr.Rank, rr.InputBytes, fileSize)
			}
			total += rr.InputBytes
		}
		if total != fileSize {
			t.Errorf("%s: per-rank parsed bytes sum to %d, file is %d", name, total, fileSize)
		}
		if s := DescribeLoad(res.rep); !strings.Contains(s, "input bytes parsed per rank:") {
			t.Errorf("%s: DescribeLoad = %q", name, s)
		}
	}

	var mu sync.Mutex
	var memRes shardedResult
	if err := spmd.Run(p, func(c *spmd.Comm) error {
		return executeSharded(c, path, cfg, &memRes, &mu)
	}); err != nil {
		t.Fatalf("in-process sharded run: %v", err)
	}
	check("mem", memRes)

	var tcpRes shardedResult
	if err := runTCPLoopbackWorld(t, p, func(c *spmd.Comm) error {
		return executeSharded(c, path, cfg, &tcpRes, &mu)
	}); err != nil {
		t.Fatalf("tcp sharded run: %v", err)
	}
	check("tcp", tcpRes)
}

// TestShardedLoadMatchesWholeFile is the cooperative-I/O equivalence
// guarantee: a run where every rank parses only its fastq.SplitOffsets
// shard must produce byte-identical PAF to the whole-file load, on both
// the in-process and the TCP transport — and the report's per-rank
// parsed-bytes counters must show that each rank really read only its
// share.
func TestShardedLoadMatchesWholeFile(t *testing.T) {
	ds := input(t, equivalenceInput)
	dir := t.TempDir()
	path := filepath.Join(dir, "reads.fastq")
	if err := fastq.WriteFile(path, ds.Reads); err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	wholeRep := sharedRun(t, equivalenceInput, 4, cfg)
	if wholeRep.Alignments == 0 {
		t.Fatal("whole-file run produced no alignments; nothing to compare")
	}
	want := pafBytes(t, wholeRep, ds.Reads)
	checkShardedEquivalence(t, path, len(ds.Reads), cfg, want, true)

	// The same reads in a file an editor has been through: blank lines
	// before the first record, after every seventh (CRLF every other time)
	// and after the last. Wherever a shard boundary falls among them, every
	// rank count sees the same records in the same order.
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(clean, []byte("\n"))
	blank := [][]byte{[]byte("\n"), []byte("\r\n")}
	spaced := []byte("\n\n")
	for i, line := range lines {
		spaced = append(spaced, line...)
		if rec := (i + 1) / 4; (i+1)%4 == 0 && rec%7 == 0 {
			spaced = append(spaced, blank[rec/7%2]...)
		}
	}
	spaced = append(spaced, "\n\n"...)
	spacedPath := filepath.Join(dir, "spaced.fastq")
	if err := os.WriteFile(spacedPath, spaced, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		var got []*fastq.Record
		for rank := 0; rank < p; rank++ {
			shard, _, err := fastq.LoadShard(spacedPath, rank, p)
			if err != nil {
				t.Fatalf("blank-line file, %d ranks, rank %d: %v", p, rank, err)
			}
			got = append(got, shard...)
		}
		if len(got) != len(ds.Reads) {
			t.Fatalf("blank-line file, %d ranks: %d records, want %d", p, len(got), len(ds.Reads))
		}
		for i, rec := range got {
			if rec.Name != ds.Reads[i].Name || !bytes.Equal(rec.Seq, ds.Reads[i].Seq) {
				t.Fatalf("blank-line file, %d ranks: record %d is %s, want %s", p, i, rec.Name, ds.Reads[i].Name)
			}
		}
	}
	checkShardedEquivalence(t, spacedPath, len(ds.Reads), cfg, want, true)
}

// TestShardedLoadUltraLongRead repeats the equivalence check on a file
// dominated by one ultra-long read (1.5 MiB of bases, beyond the 1 MiB
// boundary scan window): shard-boundary guesses land inside a record no
// fixed window can skip, exercising the PR 2 grown-window scan, and the
// reshuffle must rebalance the resulting lopsided shards into the
// canonical block distribution.
func TestShardedLoadUltraLongRead(t *testing.T) {
	ds, err := seqgen.Generate(seqgen.Config{
		GenomeLen: 16000, Coverage: 8, MeanReadLen: 1200, MinReadLen: 500, BothStrands: true, ErrorRate: 0.06, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ultra := make([]byte, 3<<19)
	for i := range ultra {
		ultra[i] = "ACGT"[rng.Intn(4)]
	}
	reads := append(append([]*fastq.Record{}, ds.Reads...), &fastq.Record{Name: "ultra-long", Seq: ultra})

	dir := t.TempDir()
	path := filepath.Join(dir, "ultra.fastq")
	if err := fastq.WriteFile(path, reads); err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 17, ErrorRate: 0.06, Coverage: 8, KeepAlignments: true}
	wholeRep, err := Execute(4, nil, reads, cfg)
	if err != nil {
		t.Fatalf("whole-file run: %v", err)
	}
	if wholeRep.Alignments == 0 {
		t.Fatal("whole-file run produced no alignments; nothing to compare")
	}
	checkShardedEquivalence(t, path, len(reads), cfg, pafBytes(t, wholeRep, reads), false)
}

// TestLoadStoreFailsCollectively: a load error on any rank must surface
// on every rank — the survivors, whose own shards read fine, unwind with
// the failing rank's error instead of deadlocking in the reshuffle.
func TestLoadStoreFailsCollectively(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "reads.fastq")
	recs := []*fastq.Record{
		{Name: "a", Seq: bytes.Repeat([]byte("ACGT"), 100)},
		{Name: "b", Seq: bytes.Repeat([]byte("TGCA"), 100)},
		{Name: "c", Seq: bytes.Repeat([]byte("GATC"), 100)},
	}
	if err := fastq.WriteFile(good, recs); err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 3)
	// Record LoadStore's verdict without returning it: returning would
	// abort the world and race slower ranks out of the allgather before
	// they observe the collective failure themselves.
	_ = spmd.Run(3, func(c *spmd.Comm) error {
		path := good
		if c.Rank() == 1 {
			path = filepath.Join(dir, "missing.fastq")
		}
		_, err := LoadStore(c, path)
		errs[c.Rank()] = err
		return nil
	})
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d: rank 1's missing input did not surface", r)
		} else if !strings.Contains(err.Error(), "rank 1") {
			t.Errorf("rank %d: error %v does not name the failing rank", r, err)
		}
	}
}
