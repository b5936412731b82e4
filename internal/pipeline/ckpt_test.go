package pipeline

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dibella/internal/ckpt"
	"dibella/internal/fastq"
	"dibella/internal/machine"
	"dibella/internal/paf"
	"dibella/internal/spmd"
)

// pafBytesStore serializes a resumed report's records via the store's
// global name map.
func pafBytesStore(t *testing.T, rep *Report, store *fastq.ReadStore) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := paf.Write(&buf, rep.PAFRecordsFromStore(store)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runCkpt is Execute with stage-boundary snapshots: goroutine ranks share
// the directory just as processes on a shared file system would.
func runCkpt(p int, model *machine.Model, reads []*fastq.Record, cfg Config, opts CkptOptions) (*Report, error) {
	store := fastq.NewReadStore(reads, p)
	rep, _, err := InProcess(p, model, func(c *spmd.Comm) (*Report, *fastq.ReadStore, error) {
		r, err := ExecuteComm(c, model, store, cfg, &opts)
		return r, store, err
	})
	return rep, err
}

// runResume is ResumeComm over p in-process ranks, at any world size.
func runResume(p int, model *machine.Model, dir string, mutate func(*Config),
	opts *CkptOptions) (*Report, *fastq.ReadStore, error) {

	return InProcess(p, model, func(c *spmd.Comm) (*Report, *fastq.ReadStore, error) {
		return ResumeComm(c, model, dir, mutate, opts)
	})
}

// killAt runs a checkpointed in-process pipeline that aborts right after
// the given stage's snapshot commits, leaving dir holding snapshots up
// to and including that stage.
func killAt(t *testing.T, p int, reads []*fastq.Record, cfg Config, dir, stage string) {
	t.Helper()
	_, err := runCkpt(p, nil, reads, cfg, CkptOptions{Dir: dir, AbortAfter: stage})
	if !errors.Is(err, ErrCkptAbort) {
		t.Fatalf("abort after %s: err = %v, want ErrCkptAbort", stage, err)
	}
	m, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatalf("manifest after kill at %s: %v", stage, err)
	}
	if latest, ok := m.Latest(); !ok || latest.Stage != stage {
		t.Fatalf("latest snapshot after kill at %s: %+v ok=%v", stage, latest, ok)
	}
}

// resumeTCP resumes a snapshot over a loopback TCP world and returns
// rank 0's report and store.
func resumeTCP(t *testing.T, p int, dir string) (*Report, *fastq.ReadStore, error) {
	t.Helper()
	var (
		rep   *Report
		store *fastq.ReadStore
		mu    sync.Mutex
	)
	err := runTCPLoopbackWorld(t, p, func(c *spmd.Comm) error {
		r, s, err := ResumeComm(c, nil, dir, nil, nil)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			rep, store = r, s
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rep, store, nil
}

// TestResumeMatchesFreshRun is the subsystem's acceptance test: kill the
// pipeline right after each stage-boundary snapshot, resume from the
// directory — at the original world size, at half, and at double
// (elastic re-sharded resume) — on both transports, and require PAF
// byte-identical to the uninterrupted run.
func TestResumeMatchesFreshRun(t *testing.T) {
	reads := input(t, equivalenceInput).Reads
	cfg := equivalenceConfig()
	const p = 4
	want := pafBytes(t, reference(t, cfg), reads)

	for _, stage := range ckpt.Stages {
		stage := stage
		t.Run("mem/"+stage, func(t *testing.T) {
			dir := t.TempDir()
			killAt(t, p, reads, cfg, dir, stage)
			for _, resumeP := range []int{p, p / 2, 2 * p} {
				rep, store, err := runResume(resumeP, nil, dir, nil, nil)
				if err != nil {
					t.Fatalf("resume at P=%d: %v", resumeP, err)
				}
				if got := pafBytesStore(t, rep, store); !bytes.Equal(want, got) {
					t.Errorf("resume at P=%d: PAF diverges from fresh run (%d vs %d bytes)",
						resumeP, len(got), len(want))
				}
			}
		})
		t.Run("tcp/"+stage, func(t *testing.T) {
			dir := t.TempDir()
			// Kill a checkpointed TCP world after the stage commits.
			err := runTCPLoopbackWorld(t, p, func(c *spmd.Comm) error {
				store := fastq.NewReadStore(reads, p)
				_, err := ExecuteComm(c, nil, store, cfg, &CkptOptions{Dir: dir, AbortAfter: stage})
				return err
			})
			if !errors.Is(err, ErrCkptAbort) {
				t.Fatalf("tcp abort after %s: err = %v, want ErrCkptAbort", stage, err)
			}
			for _, resumeP := range []int{p, p / 2, 2 * p} {
				rep, store, err := resumeTCP(t, resumeP, dir)
				if err != nil {
					t.Fatalf("tcp resume at P=%d: %v", resumeP, err)
				}
				if got := pafBytesStore(t, rep, store); !bytes.Equal(want, got) {
					t.Errorf("tcp resume at P=%d: PAF diverges from fresh run (%d vs %d bytes)",
						resumeP, len(got), len(want))
				}
			}
		})
	}

	// Minimizer seeding rides the same snapshot path: the DHT boundary
	// snapshots the (sparser) minimizer partitions, the manifest's config
	// hash covers the window, and a P/2-elastic resume must reproduce the
	// fresh minimizer run byte-for-byte. A window override on resume would
	// change output and must be rejected like any output-affecting flag.
	t.Run("minimizer/dht", func(t *testing.T) {
		mcfg := cfg
		mcfg.MinimizerWindow = 5
		mwant := pafBytes(t, reference(t, mcfg), reads)
		dir := t.TempDir()
		killAt(t, p, reads, mcfg, dir, ckpt.StageDHT)
		for _, resumeP := range []int{p, p / 2} {
			rep, store, err := runResume(resumeP, nil, dir, nil, nil)
			if err != nil {
				t.Fatalf("minimizer resume at P=%d: %v", resumeP, err)
			}
			if rep.Config.MinimizerWindow != 5 {
				t.Errorf("resume at P=%d lost the minimizer window: %d", resumeP, rep.Config.MinimizerWindow)
			}
			if got := pafBytesStore(t, rep, store); !bytes.Equal(mwant, got) {
				t.Errorf("minimizer resume at P=%d: PAF diverges from fresh run (%d vs %d bytes)",
					resumeP, len(got), len(mwant))
			}
		}
		_, _, err := runResume(p, nil, dir, func(c *Config) { c.MinimizerWindow = 9 }, nil)
		if err == nil || !strings.Contains(err.Error(), "output-affecting") {
			t.Errorf("window override on resume: err = %v, want output-affecting rejection", err)
		}
	})
}

// TestResumeRejectsCorruptSegment: a truncated or bit-flipped segment
// file must fail the resume with a clear error, never feed the pipeline
// partial state.
func TestResumeRejectsCorruptSegment(t *testing.T) {
	reads := input(t, equivalenceInput).Reads
	cfg := equivalenceConfig()
	dir := t.TempDir()
	killAt(t, 2, reads, cfg, dir, ckpt.StageDHT)

	m, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	latest, _ := m.Latest()
	path := filepath.Join(dir, latest.Segments[1].File)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncation (a crashed or still-copying writer).
	if err := os.WriteFile(path, img[:len(img)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = runResume(2, nil, dir, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "truncated or partial") {
		t.Errorf("truncated segment: err = %v, want truncation error", err)
	}

	// Same length, flipped bit (media corruption).
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = runResume(2, nil, dir, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("corrupt segment: err = %v, want digest error", err)
	}
}

// TestResumeRejectsOutputAffectingOverrides: schedule knobs may change
// on resume, output-affecting parameters may not.
func TestResumeRejectsOutputAffectingOverrides(t *testing.T) {
	reads := input(t, equivalenceInput).Reads
	cfg := equivalenceConfig()
	dir := t.TempDir()
	killAt(t, 2, reads, cfg, dir, ckpt.StageLoad)

	// Changing the exchange schedule is fine...
	rep, store, err := runResume(2, nil, dir, func(c *Config) { c.Exchange = ExchangeSync }, nil)
	if err != nil {
		t.Fatalf("schedule-only override rejected: %v", err)
	}
	if rep.Config.Exchange != ExchangeSync {
		t.Error("override not applied")
	}
	_ = store
	// ... changing k is not.
	_, _, err = runResume(2, nil, dir, func(c *Config) { c.K = 19 }, nil)
	if err == nil || !strings.Contains(err.Error(), "output-affecting") {
		t.Errorf("k override: err = %v, want output-affecting rejection", err)
	}
}

// TestOutputHashPinned holds the digest of a default resolved
// configuration: an edit to outputConfig — a field added, dropped or
// renamed — makes every checkpoint an older build wrote unresumable
// (the config-mismatch error above), so it must show up here as a diff.
func TestOutputHashPinned(t *testing.T) {
	cfg := Config{K: 17}
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	if got, want := cfg.outputHash(), "92489aaa3b15abb5"; got != want {
		t.Errorf("outputHash of the default k=17 configuration = %s, pinned %s", got, want)
	}
}

// TestResumeContinuesCheckpointing: a resumed run may itself checkpoint;
// its first commit preserves the resumed-from stage and supersedes the
// later ones, and a second-generation resume still reproduces the fresh
// run.
func TestResumeContinuesCheckpointing(t *testing.T) {
	reads := input(t, equivalenceInput).Reads
	cfg := equivalenceConfig()
	want := pafBytes(t, reference(t, cfg), reads)

	dir := t.TempDir()
	killAt(t, 4, reads, cfg, dir, ckpt.StageDHT)
	// Resume at P=2, checkpointing onward; kill again after overlap.
	_, _, err := runResume(2, nil, dir, nil, &CkptOptions{Dir: dir, AbortAfter: ckpt.StageOverlap})
	if !errors.Is(err, ErrCkptAbort) {
		t.Fatalf("second kill: %v", err)
	}
	m, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := m.Stages[ckpt.StageDHT]; !ok || st.World != 4 {
		t.Errorf("resumed-from dht snapshot lost or rewritten: %+v ok=%v", m.Stages[ckpt.StageDHT], ok)
	}
	if st, ok := m.Stages[ckpt.StageOverlap]; !ok || st.World != 2 {
		t.Errorf("overlap snapshot from the resumed world missing: %+v ok=%v", st, ok)
	}
	// Second-generation resume, again elastic.
	rep, store, err := runResume(3, nil, dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := pafBytesStore(t, rep, store); !bytes.Equal(want, got) {
		t.Errorf("second-generation resume diverges (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCheckpointedRunMatchesPlain: enabling snapshots must not change
// the output of the run itself.
func TestCheckpointedRunMatchesPlain(t *testing.T) {
	reads := input(t, equivalenceInput).Reads
	cfg := equivalenceConfig()
	ck, err := runCkpt(3, nil, reads, cfg, CkptOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pafBytes(t, reference(t, cfg), reads), pafBytes(t, ck, reads)) {
		t.Error("checkpointed run's PAF differs from plain run")
	}
}

// TestCheckpointIOPriced: with a platform model attached, snapshots must
// cost modeled time (the machine model's SnapshotTime), so checkpoint
// overhead is visible in virtual_seconds.
func TestCheckpointIOPriced(t *testing.T) {
	reads := input(t, equivalenceInput).Reads
	cfg := equivalenceConfig()
	cfg.KeepAlignments = false
	const p = 4
	mdl := func() *machine.Model {
		m, err := machine.NewModelScaled(machine.Cori, 2, p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain, err := Execute(p, mdl(), reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := runCkpt(p, mdl(), reads, cfg, CkptOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if ck.VirtualTime <= plain.VirtualTime {
		t.Errorf("checkpointed run modeled at %.6fs, plain %.6fs — snapshots were free",
			ck.VirtualTime, plain.VirtualTime)
	}
	if ck.TotalVirtual() <= plain.TotalVirtual() {
		t.Errorf("stage totals: ckpt %.6fs <= plain %.6fs — snapshot cost not in stage breakdowns",
			ck.TotalVirtual(), plain.TotalVirtual())
	}
}
