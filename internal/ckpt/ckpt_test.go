package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"dibella/internal/machine"
	"dibella/internal/spmd"
	"dibella/internal/wire"
)

func TestSegmentCodecRoundtrip(t *testing.T) {
	hdr := SegmentHeader{Stage: StageDHT, Epoch: 7, World: 4, Rank: 2}
	sections := []Section{
		{Name: "reads", Data: []byte("read-bytes")},
		{Name: "dht", Data: bytes.Repeat([]byte{0xAB}, 1000)},
		{Name: "empty", Data: nil},
	}
	img := encodeSegment(hdr, sections)
	gotHdr, gotSecs, err := decodeSegment(img)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr != hdr {
		t.Errorf("header %+v, want %+v", gotHdr, hdr)
	}
	if len(gotSecs) != len(sections) {
		t.Fatalf("%d sections", len(gotSecs))
	}
	for i := range sections {
		if gotSecs[i].Name != sections[i].Name || !bytes.Equal(gotSecs[i].Data, sections[i].Data) {
			t.Errorf("section %d mismatch", i)
		}
	}
	if _, err := SectionByName(gotSecs, "dht"); err != nil {
		t.Error(err)
	}
	if _, err := SectionByName(gotSecs, "nope"); err == nil {
		t.Error("missing section not reported")
	}
}

func TestSegmentCodecRejectsCorruption(t *testing.T) {
	img := encodeSegment(SegmentHeader{Stage: StageLoad, Epoch: 1, World: 1, Rank: 0},
		[]Section{{Name: "reads", Data: []byte("0123456789")}})
	for cut := 0; cut < len(img); cut++ {
		if _, _, err := decodeSegment(img[:cut]); !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("truncation to %d bytes: err = %v, want truncated", cut, err)
		}
	}
	if _, _, err := decodeSegment(append(append([]byte(nil), img...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	bad := append([]byte(nil), img...)
	bad[0] ^= 0xFF
	if _, _, err := decodeSegment(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("foreign magic: %v", err)
	}
}

// FuzzDecodeSegment: arbitrary bytes never panic the segment decoder; what
// decodes was paid for by the input (a section costs its two length fields,
// and names and data together are no longer than the image); and it
// re-encodes to the same bytes, so decoding those again changes nothing.
func FuzzDecodeSegment(f *testing.F) {
	f.Add(encodeSegment(SegmentHeader{}, nil))
	f.Add(encodeSegment(SegmentHeader{Stage: StageLoad, Epoch: 1, World: 1, Rank: 0},
		[]Section{{Name: "reads", Data: []byte("0123456789")}}))
	f.Add(encodeSegment(SegmentHeader{Stage: StageDHT, Epoch: 7, World: 4, Rank: 2},
		[]Section{{Name: "reads", Data: []byte("read-bytes")}, {Name: "dht", Data: bytes.Repeat([]byte{0xAB}, 100)}, {Name: "empty"}}))
	// A header that promises 2^32-1 sections and delivers none.
	f.Add(append(encodeSegment(SegmentHeader{Stage: StageOverlap}, nil)[:8+4+len(StageOverlap)+8+4+4], 0xFF, 0xFF, 0xFF, 0xFF))
	f.Fuzz(func(t *testing.T, b []byte) {
		hdr, sections, err := decodeSegment(b)
		if err != nil {
			return
		}
		payload := len(hdr.Stage)
		for _, s := range sections {
			payload += len(s.Name) + len(s.Data)
		}
		if 12*len(sections) > len(b) || payload > len(b) {
			t.Fatalf("%d sections holding %d bytes from a %d-byte image", len(sections), payload, len(b))
		}
		if back := encodeSegment(hdr, sections); !bytes.Equal(back, b) {
			t.Fatalf("re-encoding differs: %x -> %x", b, back)
		}
	})
}

// FuzzDecodeManifest: arbitrary bytes in manifest.json never panic the
// decoder ReadManifest hands the file to (fuzzed without the file: the os
// calls make coverage irreproducible and the engine spends its budget
// minimizing), and a manifest it accepts is one pipeline.ResumeComm can
// index without looking again — its snapshot is of a known stage, with
// exactly World segments — and survives being written back and read again.
func FuzzDecodeManifest(f *testing.F) {
	manifestBytes := func(m *Manifest) []byte {
		blob, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	stage := func(name string, world, segments int) StageInfo {
		st := StageInfo{Stage: name, Epoch: 1, World: world}
		for r := 0; r < segments; r++ {
			st.Segments = append(st.Segments, SegmentInfo{Bytes: 64, CRC64: uint64(r)})
		}
		return st
	}
	for _, world := range []int{1, 3} {
		f.Add(manifestBytes(&Manifest{
			Version: manifestVersion, ConfigHash: "abc", ConfigJSON: []byte(`{"k":17}`),
			Snapshot: stage(StageDHT, world, world),
		}))
	}
	// A stage that claims a billion ranks and lists one segment.
	f.Add(manifestBytes(&Manifest{
		Version: manifestVersion, ConfigJSON: []byte(`null`),
		Snapshot: stage(StageOverlap, 1<<30, 1),
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeManifest("fuzz", b)
		if err != nil {
			return
		}
		st := m.Snapshot
		if StageOrder(st.Stage) < 0 {
			t.Fatalf("accepted unknown stage %q", st.Stage)
		}
		if len(st.Segments) != st.World || st.World > len(b) {
			t.Fatalf("stage %q: %d segments for world %d from a %d-byte manifest", st.Stage, len(st.Segments), st.World, len(b))
		}
		// Re-marshaled as writeManifest does, less its fsync and rename.
		blob, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		back, err := decodeManifest("fuzz", blob)
		if err != nil {
			t.Fatalf("re-marshaled manifest refused: %v", err)
		}
		if !reflect.DeepEqual(back.Snapshot, m.Snapshot) || back.ConfigHash != m.ConfigHash {
			t.Fatalf("re-marshaled manifest differs: %+v -> %+v", m, back)
		}
	})
}

// segmentFiles lists every *.ckpt file under dir, relative to it and
// sorted: what `find dir -name '*.ckpt' -type f` prints.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".ckpt") {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files = append(files, rel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

// onlySnapshot reads dir's manifest and checks that its snapshot is of
// stage at world size world, and that the segment files it names are the
// only ones on disk.
func onlySnapshot(t *testing.T, dir, stage string, world int) *Manifest {
	t.Helper()
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot
	if st.Stage != stage || st.World != world {
		t.Fatalf("snapshot of %q at world %d, want %q at world %d", st.Stage, st.World, stage, world)
	}
	var want []string
	for r := 0; r < world; r++ {
		want = append(want, SegmentFile(stage, r, st.Epoch))
	}
	sort.Strings(want)
	if got := segmentFiles(t, dir); !slices.Equal(got, want) {
		t.Errorf("segment files on disk %v, want only the snapshot's %v", got, want)
	}
	return m
}

// snapshotWorld commits the given stages over a p-rank in-process world,
// with per-rank sections derived from rank and stage.
func snapshotWorld(t *testing.T, dir string, w func(rank int) *Writer, p int, stages []string) {
	t.Helper()
	err := spmd.Run(p, func(c *spmd.Comm) error {
		wr := w(c.Rank())
		for _, stage := range stages {
			data := []byte(stage + "-rank-" + string(rune('0'+c.Rank())))
			if _, _, err := wr.Snapshot(c, stage, []Section{{Name: "payload", Data: data}}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriterCommitAndLoad(t *testing.T) {
	dir := t.TempDir()
	const p = 3
	writers := make([]*Writer, p)
	for r := range writers {
		writers[r] = &Writer{Dir: dir, ConfigHash: "abc", ConfigJSON: []byte(`{"k":17}`)}
	}
	snapshotWorld(t, dir, func(r int) *Writer { return writers[r] }, p, []string{StageLoad, StageDHT})

	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		K int `json:"k"`
	}
	if err := json.Unmarshal(m.ConfigJSON, &cfg); err != nil || m.ConfigHash != "abc" || cfg.K != 17 {
		t.Errorf("manifest config: hash %q json %q (%v)", m.ConfigHash, m.ConfigJSON, err)
	}
	// Exactly one snapshot exists after the second commit: the load
	// snapshot (epoch 1) is swept.
	st := onlySnapshot(t, dir, StageDHT, p).Snapshot
	if st.Epoch != 2 {
		t.Errorf("dht snapshot at epoch %d, want 2", st.Epoch)
	}
	for r := 0; r < p; r++ {
		secs, err := ReadSegment(dir, &st, r)
		if err != nil {
			t.Fatalf("rank %d segment: %v", r, err)
		}
		data, err := SectionByName(secs, "payload")
		if err != nil {
			t.Fatal(err)
		}
		want := "dht-rank-" + string(rune('0'+r))
		if string(data) != want {
			t.Errorf("rank %d payload %q, want %q", r, data, want)
		}
	}
}

func TestReadSegmentRejectsTamperedFile(t *testing.T) {
	dir := t.TempDir()
	wr := &Writer{Dir: dir, ConfigHash: "h"}
	snapshotWorld(t, dir, func(int) *Writer { return wr }, 1, []string{StageLoad})
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot
	path := filepath.Join(dir, SegmentFile(st.Stage, 0, st.Epoch))
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation: clear "truncated or partial" error.
	if err := os.WriteFile(path, img[:len(img)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegment(dir, &st, 0); err == nil || !strings.Contains(err.Error(), "truncated or partial") {
		t.Errorf("truncated segment: %v", err)
	}
	// Bit flip at same length: digest mismatch.
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)-1] ^= 0x01
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegment(dir, &st, 0); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("corrupt segment: %v", err)
	}
}

func TestWriterVetoLeavesPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	const p = 2
	writers := make([]*Writer, p)
	for r := range writers {
		writers[r] = &Writer{Dir: dir, ConfigHash: "h"}
	}
	snapshotWorld(t, dir, func(r int) *Writer { return writers[r] }, p, []string{StageLoad})

	// Second epoch: rank 1's segment write fails (its stage path is
	// occupied by a directory), so the epoch must abort on every rank and
	// the manifest must still describe only the first snapshot.
	blocked := filepath.Join(dir, SegmentFile(StageDHT, 1, 2))
	if err := os.MkdirAll(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	errs := make([]error, p)
	err := spmd.Run(p, func(c *spmd.Comm) error {
		_, _, err := writers[c.Rank()].Snapshot(c, StageDHT, []Section{{Name: "payload", Data: []byte("x")}})
		errs[c.Rank()] = err
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "rank 1") {
			t.Errorf("rank %d: %v, want veto naming rank 1", r, err)
		}
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Snapshot; st.Stage != StageLoad || st.Epoch != 1 {
		t.Errorf("snapshot after a vetoed dht commit: %q at epoch %d, want the epoch-1 load snapshot", st.Stage, st.Epoch)
	}
}

// TestSnapshotSyncsEveryRenamedDirectory: a commit syncs the stage
// directory once per rank, after its segment's rename and before the vote,
// and the checkpoint directory once, after the manifest's rename. A failed
// directory sync is a failed write: on a segment it vetoes the commit on
// every rank, on the manifest it fails the publish on every rank.
func TestSnapshotSyncsEveryRenamedDirectory(t *testing.T) {
	const p = 2
	real := syncDir
	t.Cleanup(func() { syncDir = real })
	var mu sync.Mutex
	calls := map[string]int{}
	failing := ""
	syncDir = func(dir string) error {
		mu.Lock()
		defer mu.Unlock()
		calls[dir]++
		if dir == failing {
			return errors.New("injected directory sync failure")
		}
		return real(dir)
	}
	snapshot := func(dir string, stage string) []error {
		errs := make([]error, p)
		err := spmd.Run(p, func(c *spmd.Comm) error {
			wr := &Writer{Dir: dir, ConfigHash: "h"}
			_, _, errs[c.Rank()] = wr.Snapshot(c, stage, []Section{{Name: "payload", Data: []byte("x")}})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return errs
	}

	dir := t.TempDir()
	for r, err := range snapshot(dir, StageLoad) {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	stageDir := filepath.Join(dir, StageLoad)
	if calls[stageDir] != p || calls[dir] != 1 || len(calls) != 2 {
		t.Errorf("directory syncs %v, want %d of %s and 1 of %s", calls, p, stageDir, dir)
	}

	for _, tc := range []struct{ failing, want string }{
		{filepath.Join(dir, StageDHT), "aborted"},
		{dir, "publishing"},
	} {
		failing = tc.failing
		for r, err := range snapshot(dir, StageDHT) {
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "injected") {
				t.Errorf("sync of %s failing, rank %d: %v, want %q naming the failure", tc.failing, r, err, tc.want)
			}
		}
		if tc.want != "aborted" {
			continue
		}
		if m, err := ReadManifest(dir); err != nil {
			t.Fatal(err)
		} else if m.Snapshot.Stage != StageLoad {
			t.Errorf("a vetoed commit replaced the load snapshot with %q", m.Snapshot.Stage)
		}
	}
}

// TestSnapshotPricesTheCommit: under a Model, a committed snapshot advances
// the writing rank's clock by exactly SnapshotTime of its segment's bytes
// and reports that charge; a vetoed one advances it by nothing. The world
// has no CommModel, so the collectives inside Snapshot are free, and the
// ranks write equal segments, so the clock synchronization they do is no
// tick either: every tick seen is the commit's.
func TestSnapshotPricesTheCommit(t *testing.T) {
	m, err := machine.NewModel(machine.Cori, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const p = 2
	writers := make([]*Writer, p)
	for r := range writers {
		writers[r] = &Writer{Dir: dir, ConfigHash: "h", Model: m}
	}
	// The second snapshot (epoch 2) is vetoed: rank 1's segment path is a
	// directory.
	if err := os.MkdirAll(filepath.Join(dir, SegmentFile(StageDHT, 1, 2)), 0o755); err != nil {
		t.Fatal(err)
	}
	err = spmd.Run(p, func(c *spmd.Comm) error {
		w := writers[c.Rank()]
		payload := bytes.Repeat([]byte{1}, 1000)
		nbytes, charged, err := w.Snapshot(c, StageLoad, []Section{{Name: "payload", Data: payload}})
		if err != nil {
			return err
		}
		if want := m.SnapshotTime(float64(nbytes)); charged != want || c.Now() != want {
			return fmt.Errorf("rank %d: commit of %d bytes charged %v, clock %v, want %v", c.Rank(), nbytes, charged, c.Now(), want)
		}
		before := c.Now()
		if _, charged, err = w.Snapshot(c, StageDHT, []Section{{Name: "payload", Data: payload}}); err == nil {
			return fmt.Errorf("rank %d: blocked snapshot committed", c.Rank())
		}
		if charged != 0 || c.Now() != before {
			return fmt.Errorf("rank %d: vetoed snapshot charged %v, clock %v -> %v", c.Rank(), charged, before, c.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriterVetoedResnapshotKeepsLatestStage: a vetoed re-snapshot of
// the stage the manifest's latest snapshot lives in must leave that
// snapshot fully loadable — epoch-suffixed segment names keep the new
// epoch's writes away from the files the manifest references.
func TestWriterVetoedResnapshotKeepsLatestStage(t *testing.T) {
	dir := t.TempDir()
	w1 := &Writer{Dir: dir, ConfigHash: "h"}
	snapshotWorld(t, dir, func(int) *Writer { return w1 }, 1, []string{StageLoad})

	// A second run re-snapshots the same stage (epoch 2) and is vetoed:
	// the segment write fails because its (epoch-suffixed) path is
	// occupied by a directory.
	if err := os.MkdirAll(filepath.Join(dir, SegmentFile(StageLoad, 0, 2)), 0o755); err != nil {
		t.Fatal(err)
	}
	w2 := &Writer{Dir: dir, ConfigHash: "h"}
	var snapErr error
	err := spmd.Run(1, func(c *spmd.Comm) error {
		_, _, snapErr = w2.Snapshot(c, StageLoad, []Section{{Name: "payload", Data: []byte("new")}})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if snapErr == nil {
		t.Fatal("blocked re-snapshot committed")
	}
	// The previous snapshot must still load, bytes and digest intact.
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot
	if st.Stage != StageLoad || st.Epoch != 1 {
		t.Fatalf("snapshot = %+v, want epoch-1 load snapshot", st)
	}
	secs, err := ReadSegment(dir, &st, 0)
	if err != nil {
		t.Fatalf("previous snapshot unreadable after vetoed re-snapshot: %v", err)
	}
	if data, _ := SectionByName(secs, "payload"); string(data) != StageLoad+"-rank-0" {
		t.Errorf("previous snapshot's payload clobbered: %q", data)
	}
}

// TestWriterGCsSupersededSegments: committing a stage removes only the
// files of the epoch it replaced, after the new manifest is durable.
func TestWriterGCsSupersededSegments(t *testing.T) {
	dir := t.TempDir()
	w1 := &Writer{Dir: dir, ConfigHash: "h"}
	snapshotWorld(t, dir, func(int) *Writer { return w1 }, 1, []string{StageLoad})
	old := filepath.Join(dir, SegmentFile(StageLoad, 0, 1))
	if _, err := os.Stat(old); err != nil {
		t.Fatal(err)
	}
	w2 := &Writer{Dir: dir, ConfigHash: "h"}
	snapshotWorld(t, dir, func(int) *Writer { return w2 }, 1, []string{StageLoad})
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Errorf("superseded epoch-1 segment still present: %v", err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot
	if st.Epoch != 2 {
		t.Fatalf("epoch = %d", st.Epoch)
	}
	if _, err := ReadSegment(dir, &st, 0); err != nil {
		t.Errorf("replacing snapshot unreadable: %v", err)
	}
}

// TestWriterKeepsOneSnapshot: whatever the directory held before, exactly
// one snapshot exists after each commit — the one the manifest records —
// and epochs keep rising across runs.
func TestWriterKeepsOneSnapshot(t *testing.T) {
	dir := t.TempDir()
	w1 := &Writer{Dir: dir, ConfigHash: "cfg1"}
	snapshotWorld(t, dir, func(int) *Writer { return w1 }, 1, []string{StageLoad, StageDHT, StageOverlap})
	if m := onlySnapshot(t, dir, StageOverlap, 1); m.Snapshot.Epoch != 3 {
		t.Errorf("third commit at epoch %d", m.Snapshot.Epoch)
	}

	// A second run over the same directory (a resume at world 2 that
	// re-runs overlap) replaces the snapshot.
	w2 := &Writer{Dir: dir, ConfigHash: "cfg1"}
	snapshotWorld(t, dir, func(int) *Writer { return w2 }, 2, []string{StageOverlap})
	if m := onlySnapshot(t, dir, StageOverlap, 2); m.Snapshot.Epoch != 4 {
		t.Errorf("re-written overlap snapshot at epoch %d, want 4", m.Snapshot.Epoch)
	}

	// A run with a different config replaces it too.
	w3 := &Writer{Dir: dir, ConfigHash: "cfg2"}
	snapshotWorld(t, dir, func(int) *Writer { return w3 }, 1, []string{StageLoad})
	if m := onlySnapshot(t, dir, StageLoad, 1); m.ConfigHash != "cfg2" {
		t.Errorf("manifest hash %s after a cfg2 commit", m.ConfigHash)
	}
}

// TestSweepRemovesOrphans: segment files no manifest names — an earlier
// run's three stages under a fresh writer with another config, or the
// segments a vetoed epoch's successful ranks wrote — are gone after the
// next commit.
func TestSweepRemovesOrphans(t *testing.T) {
	const p = 2
	t.Run("earlier run", func(t *testing.T) {
		dir := t.TempDir()
		old := &Writer{Dir: dir, ConfigHash: "old"}
		snapshotWorld(t, dir, func(int) *Writer { return old }, p, []string{StageLoad, StageDHT, StageOverlap})
		// Leftovers of a crashed earlier commit: one at each stage's
		// segment name, one temporary.
		for _, f := range []string{SegmentFile(StageDHT, 0, 2), SegmentFile(StageDHT, 1, 2), filepath.Join(StageOverlap, ".seg-123")} {
			if err := os.WriteFile(filepath.Join(dir, f), []byte("stale"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fresh := &Writer{Dir: dir, ConfigHash: "new"}
		snapshotWorld(t, dir, func(int) *Writer { return fresh }, p, []string{StageLoad})
		onlySnapshot(t, dir, StageLoad, p)
		if _, err := os.Stat(filepath.Join(dir, StageOverlap, ".seg-123")); !os.IsNotExist(err) {
			t.Errorf("segment temporary survived the sweep: %v", err)
		}
	})
	t.Run("vetoed epoch", func(t *testing.T) {
		dir := t.TempDir()
		writers := []*Writer{{Dir: dir, ConfigHash: "h"}, {Dir: dir, ConfigHash: "h"}}
		snapshotWorld(t, dir, func(r int) *Writer { return writers[r] }, p, []string{StageLoad})
		// Epoch 2's dht commit is vetoed by rank 1; rank 0's dht segment
		// is written and left behind.
		if err := os.MkdirAll(filepath.Join(dir, SegmentFile(StageDHT, 1, 2)), 0o755); err != nil {
			t.Fatal(err)
		}
		err := spmd.Run(p, func(c *spmd.Comm) error {
			if _, _, err := writers[c.Rank()].Snapshot(c, StageDHT, []Section{{Name: "payload", Data: []byte("x")}}); err == nil {
				return fmt.Errorf("rank %d: blocked dht snapshot committed", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, SegmentFile(StageDHT, 0, 2))); err != nil {
			t.Fatalf("the vetoed epoch left no segment of rank 0 to sweep: %v", err)
		}
		snapshotWorld(t, dir, func(r int) *Writer { return writers[r] }, p, []string{StageOverlap})
		onlySnapshot(t, dir, StageOverlap, p)
	})
}

// TestSweepStaysInsideStageDirectories: a manifest read from disk names no
// path — a "file" field, as older manifests carried, is ignored — and the
// sweep removes only segment-named files inside the three stage
// directories, whatever else the checkpoint directory or its parent holds.
func TestSweepStaysInsideStageDirectories(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "ck")
	keep := []string{
		filepath.Join(parent, "victim.txt"),
		filepath.Join(parent, "seg-00000-e000001.ckpt"),
		filepath.Join(dir, "seg-00000-e000001.ckpt"),
		filepath.Join(dir, "other", "seg-00000-e000001.ckpt"),
		filepath.Join(dir, StageLoad, "notes.txt"),
		filepath.Join(dir, StageLoad, "seg-00000-e000001.ckpt.bak"),
	}
	stale := filepath.Join(dir, SegmentFile(StageLoad, 0, 1))
	for _, f := range append(keep, stale) {
		if err := os.MkdirAll(filepath.Dir(f), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	hostile := fmt.Sprintf(`{"version": %d, "config_hash": "h", "config": null,
  "snapshot": {"stage": "load", "epoch": 1, "world": 1,
    "segments": [{"file": "../victim.txt", "bytes": 4, "crc64": 0}]}}`, manifestVersion)
	if err := os.WriteFile(ManifestPath(dir), []byte(hostile), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err != nil {
		t.Fatalf("manifest with a stray file field refused: %v", err)
	}
	wr := &Writer{Dir: dir, ConfigHash: "h"}
	snapshotWorld(t, dir, func(int) *Writer { return wr }, 1, []string{StageDHT})
	for _, f := range keep {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("the sweep touched %s: %v", f, err)
		}
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("the sweep left the unnamed load segment: %v", err)
	}
	if m, err := ReadManifest(dir); err != nil || m.Snapshot.Stage != StageDHT || m.Snapshot.Epoch != 2 {
		t.Errorf("commit over an epoch-1 load manifest: %+v, %v; want the epoch-2 dht snapshot", m, err)
	}
}

func TestManifestValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadManifest(dir); err == nil {
		t.Error("missing manifest accepted")
	}
	if err := os.WriteFile(ManifestPath(dir), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Error("corrupt manifest accepted")
	}
	for _, tc := range []struct {
		m    Manifest
		want string
	}{
		{Manifest{Version: manifestVersion, Snapshot: StageInfo{Stage: StageDHT, World: 2, Segments: make([]SegmentInfo, 1)}}, "1 segments for world size 2"},
		{Manifest{Version: manifestVersion}, "records no snapshot"},
		{Manifest{Version: manifestVersion, Snapshot: StageInfo{Stage: "align", World: 1, Segments: make([]SegmentInfo, 1)}}, "unknown stage"},
	} {
		if err := writeManifest(dir, &tc.m); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("manifest %+v: err = %v, want %q", tc.m, err, tc.want)
		}
	}
	// The schema before version 3, a map of stages, is refused by version.
	v2 := `{"version": 2, "config_hash": "h", "config": null, "epoch": 1, "stages": {"load": {"stage": "load", "epoch": 1, "world": 1,
  "segments": [{"rank": 0, "file": "load/seg-00000-e000001.ckpt", "bytes": 4, "crc64": 0}]}}}`
	if err := os.WriteFile(ManifestPath(dir), []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), "manifest version 2, this binary reads 3") {
		t.Errorf("version-2 manifest: err = %v", err)
	}
}

func TestHashConfigStable(t *testing.T) {
	a, b := HashConfig([]byte(`{"k":17}`)), HashConfig([]byte(`{"k":17}`))
	if a != b || a == "" {
		t.Errorf("hash unstable: %q %q", a, b)
	}
	if HashConfig([]byte(`{"k":19}`)) == a {
		t.Error("different configs hash equal")
	}
}
