package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
// index without looking again — every recorded stage is a known one, filed
// under its own name, with exactly World segments and segment i recorded
// for rank i — and survives being written back and read again.
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
			st.Segments = append(st.Segments, SegmentInfo{Rank: r, File: SegmentFile(name, r, 1), Bytes: 64, CRC64: uint64(r)})
		}
		return st
	}
	for _, world := range []int{1, 3} {
		f.Add(manifestBytes(&Manifest{
			Version: manifestVersion, ConfigHash: "abc", ConfigJSON: []byte(`{"k":17}`), Epoch: 2,
			Stages: map[string]StageInfo{StageLoad: stage(StageLoad, world, world), StageDHT: stage(StageDHT, world, world)},
		}))
	}
	// A stage that claims a billion ranks and lists one segment.
	f.Add(manifestBytes(&Manifest{
		Version: manifestVersion, ConfigJSON: []byte(`null`),
		Stages: map[string]StageInfo{StageOverlap: stage(StageOverlap, 1<<30, 1)},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeManifest("fuzz", b)
		if err != nil {
			return
		}
		for name, st := range m.Stages {
			if name != st.Stage || StageOrder(name) < 0 {
				t.Fatalf("accepted stage %q under key %q", st.Stage, name)
			}
			if len(st.Segments) != st.World || st.World > len(b) {
				t.Fatalf("stage %q: %d segments for world %d from a %d-byte manifest", name, len(st.Segments), st.World, len(b))
			}
			for i, seg := range st.Segments {
				if seg.Rank != i {
					t.Fatalf("stage %q: segment %d recorded for rank %d", name, i, seg.Rank)
				}
			}
		}
		if latest, ok := m.Latest(); ok != (len(m.Stages) > 0) || ok && m.Stages[latest.Stage].Epoch != latest.Epoch {
			t.Fatalf("Latest() = %+v, %v over %d stages", latest, ok, len(m.Stages))
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
		if len(back.Stages) != len(m.Stages) || back.Epoch != m.Epoch || back.ConfigHash != m.ConfigHash {
			t.Fatalf("re-marshaled manifest differs: %+v -> %+v", m, back)
		}
	})
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
	latest, ok := m.Latest()
	if !ok || latest.Stage != StageDHT || latest.World != p {
		t.Fatalf("latest = %+v ok=%v", latest, ok)
	}
	if latest.Epoch <= m.Stages[StageLoad].Epoch {
		t.Error("epochs not monotone across stages")
	}
	for r := 0; r < p; r++ {
		secs, err := ReadSegment(dir, &latest, &latest.Segments[r])
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
	st := m.Stages[StageLoad]
	path := filepath.Join(dir, st.Segments[0].File)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation: clear "truncated or partial" error.
	if err := os.WriteFile(path, img[:len(img)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegment(dir, &st, &st.Segments[0]); err == nil || !strings.Contains(err.Error(), "truncated or partial") {
		t.Errorf("truncated segment: %v", err)
	}
	// Bit flip at same length: digest mismatch.
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)-1] ^= 0x01
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegment(dir, &st, &st.Segments[0]); err == nil || !strings.Contains(err.Error(), "digest") {
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
	if _, exists := m.Stages[StageDHT]; exists {
		t.Error("vetoed stage appears in the manifest")
	}
	if _, ok := m.Stages[StageLoad]; !ok {
		t.Error("previous snapshot lost")
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
		} else if _, ok := m.Stages[StageDHT]; ok {
			t.Error("a vetoed stage appears in the manifest")
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
	st, ok := m.Latest()
	if !ok || st.Stage != StageLoad || st.Epoch != 1 {
		t.Fatalf("latest = %+v ok=%v, want epoch-1 load snapshot", st, ok)
	}
	secs, err := ReadSegment(dir, &st, &st.Segments[0])
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
	st := m.Stages[StageLoad]
	if st.Epoch != 2 {
		t.Fatalf("epoch = %d", st.Epoch)
	}
	if _, err := ReadSegment(dir, &st, &st.Segments[0]); err != nil {
		t.Errorf("replacing snapshot unreadable: %v", err)
	}
}

func TestWriterLineage(t *testing.T) {
	dir := t.TempDir()
	w1 := &Writer{Dir: dir, ConfigHash: "cfg1"}
	snapshotWorld(t, dir, func(int) *Writer { return w1 }, 1, []string{StageLoad, StageDHT, StageOverlap})

	// A resumed run (same config, resumed from dht) keeps load+dht,
	// drops overlap on its first commit.
	w2 := &Writer{Dir: dir, ConfigHash: "cfg1", KeepThrough: StageDHT}
	snapshotWorld(t, dir, func(int) *Writer { return w2 }, 1, []string{StageOverlap})
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Stages) != 3 {
		t.Errorf("resumed lineage has %d stages, want 3", len(m.Stages))
	}
	if m.Stages[StageOverlap].Epoch <= m.Stages[StageDHT].Epoch {
		t.Error("re-written overlap stage did not advance the epoch")
	}

	// A run with a different config starts an empty lineage.
	w3 := &Writer{Dir: dir, ConfigHash: "cfg2", KeepThrough: StageOverlap}
	snapshotWorld(t, dir, func(int) *Writer { return w3 }, 1, []string{StageLoad})
	m, err = ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Stages) != 1 || m.ConfigHash != "cfg2" {
		t.Errorf("config change kept %d stages (hash %s)", len(m.Stages), m.ConfigHash)
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
	bad := &Manifest{Version: manifestVersion, Stages: map[string]StageInfo{
		"dht": {Stage: "dht", World: 2, Segments: []SegmentInfo{{Rank: 0}}},
	}}
	if err := writeManifest(dir, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Error("segment/world mismatch accepted")
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
