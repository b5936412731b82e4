// Checkpoint/restart integration: stage-boundary snapshots of the
// running pipeline and the resume entry points that restart from them —
// including elastic resume on a different world size.
//
// What each boundary snapshot holds (per rank, plus rank 0's manifest):
//
//	load:    the sharded read store (this rank's owned ID run)
//	dht:     the read store + this rank's k-mer hash-table partition
//	overlap: the read store + this rank's consolidated alignment tasks
//
// All three distributions are deterministic functions of the data and
// the world size — reads by the byte-balanced block distribution, k-mers
// by hash ownership, tasks by the placement policy — so a snapshot taken
// at world size W resumes at any size P: the loader assigns the W
// segments contiguously to the P ranks, then re-shards through the
// pipeline's own collectives (assembleStore's packed boundary reshuffle,
// dht.Reshard, overlap.ReshardTasks). A resumed run's PAF is
// byte-identical to an uninterrupted run's, on both transports, for
// equal and different world sizes (TestResumeMatchesFreshRun).
package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"

	"dibella/internal/align"
	"dibella/internal/ckpt"
	"dibella/internal/dht"
	"dibella/internal/fastq"
	"dibella/internal/machine"
	"dibella/internal/overlap"
	"dibella/internal/spmd"
	"dibella/internal/stats"
	"dibella/internal/trace"
	"dibella/internal/walltime"
)

// Section names inside a stage's segment files.
const (
	sectionReads = "reads"
	sectionDHT   = "dht"
	sectionTasks = "tasks"
)

// ErrCkptAbort is returned by a run configured with
// CkptOptions.AbortAfter once that stage's snapshot has committed — the
// deliberate kill switch for exercising the restart path (tests, CI
// resume drills, operator fire drills).
var ErrCkptAbort = errors.New("pipeline: aborted after checkpoint (as requested)")

// CkptOptions configures stage-boundary snapshots of a run: every boundary
// (ckpt.StageLoad, ckpt.StageDHT, ckpt.StageOverlap) is snapshotted.
type CkptOptions struct {
	// Dir is the checkpoint directory (shared across ranks — a shared
	// file system, as cluster checkpointing assumes).
	Dir string
	// AbortAfter, when set to a stage name, aborts the pipeline with
	// ErrCkptAbort right after that stage's snapshot commits.
	AbortAfter string
}

// outputConfig is the subset of Config that determines the pipeline's
// output. Scheduling knobs (Exchange, ReplyChunk/Depth, BuildDepth,
// MaxKmersPerRound) move the same data on different timetables and are
// deliberately excluded: a snapshot may be resumed under a different
// schedule, never under a different k. Derivation inputs (ErrorRate,
// Coverage, GenomeEst) are covered through the derived K/MaxFreq.
type outputConfig struct {
	K               int
	MaxFreq         int
	SeedMode        overlap.SeedMode
	MinDist         int
	MaxSeeds        int
	XDrop           int
	Scoring         align.Scoring
	MinAlignScore   int
	MinimizerWindow int
	// KeepSingletons changes what the DHT snapshot contains (singletons
	// and tombstones stay resident), so a serve-formed checkpoint can
	// never resume into a batch run or vice versa. BuildDepth, by
	// contrast, is schedule-only and deliberately absent.
	KeepSingletons bool
}

// outputHash digests the output-affecting configuration; cfg must be
// resolved (setDefaults applied).
func (cfg *Config) outputHash() string {
	blob, err := json.Marshal(outputConfig{
		K: cfg.K, MaxFreq: cfg.MaxFreq,
		SeedMode: cfg.SeedMode, MinDist: cfg.MinDist, MaxSeeds: cfg.MaxSeeds,
		XDrop: cfg.XDrop, Scoring: cfg.Scoring,
		MinAlignScore: cfg.MinAlignScore, MinimizerWindow: cfg.MinimizerWindow,
		KeepSingletons: cfg.KeepSingletons,
	})
	if err != nil {
		panic(fmt.Sprintf("pipeline: canonicalizing config: %v", err)) // plain-data struct; cannot fail
	}
	return ckpt.HashConfig(blob)
}

// ckptState is one rank's snapshot-emission state. A nil *ckptState is
// valid and inert, so the stage driver calls snapshot unconditionally.
type ckptState struct {
	w *ckpt.Writer
	// skipThrough suppresses re-snapshotting stages a resumed run
	// restored (their snapshots already exist and are what we loaded).
	skipThrough int
	abortAfter  string
}

// Validate checks the options on their own terms: a directory is named and
// the kill switch, if set, is a real boundary. It is the one place stage
// names are checked — the CLI calls it at startup, newCkptState before a
// run.
func (o *CkptOptions) Validate() error {
	if o.Dir == "" {
		return fmt.Errorf("pipeline: checkpointing requested without a directory")
	}
	if o.AbortAfter != "" && ckpt.StageOrder(o.AbortAfter) < 0 {
		return fmt.Errorf("pipeline: unknown abort-after stage %q (want load, dht, or overlap)", o.AbortAfter)
	}
	return nil
}

// newCkptState validates opts and builds the per-rank emission state (nil,
// and inert, for nil opts). cfg must be resolved; resumedFrom names the
// stage a resume restored ("" for fresh runs).
func newCkptState(cfg Config, model *machine.Model, opts *CkptOptions, resumedFrom string) (*ckptState, error) {
	if opts == nil {
		return nil, nil
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.AbortAfter != "" && ckpt.StageOrder(opts.AbortAfter) <= ckpt.StageOrder(resumedFrom) {
		// The resume restored this boundary instead of re-running it, so
		// its snapshot — and therefore the kill switch — would never
		// fire; completing with exit 0 would silently mis-pass a restart
		// drill expecting the abort.
		return nil, fmt.Errorf("pipeline: -ckpt-abort-after %q cannot fire: the resume already restored the %q snapshot", opts.AbortAfter, resumedFrom)
	}
	blob, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: serializing config for the manifest: %w", err)
	}
	return &ckptState{
		w: &ckpt.Writer{
			Dir: opts.Dir, ConfigHash: cfg.outputHash(),
			ConfigJSON: blob, KeepThrough: resumedFrom,
			Model: model,
		},
		skipThrough: ckpt.StageOrder(resumedFrom),
		abortAfter:  opts.AbortAfter,
	}, nil
}

// snapshot collectively commits one stage boundary (unless a resume
// restored it), books what the writer charged for the snapshot I/O to the
// adjacent stage's packing account, and aborts the run when this boundary
// is the configured kill point. sections is called only when the boundary is
// written: a run without checkpoints encodes nothing.
func (ck *ckptState) snapshot(c *spmd.Comm, stage string, sections func() []ckpt.Section, brk *stats.Breakdown) error {
	if ck == nil || ckpt.StageOrder(stage) <= ck.skipThrough {
		return nil
	}
	rec := trace.Rec(c.Rank())
	rec.BeginTag(traceCkptSnap, c.Now(), stage)
	t0 := walltime.Now()
	nbytes, charged, err := ck.w.Snapshot(c, stage, sections())
	if err != nil {
		return err
	}
	brk.PackVirtual += charged
	brk.PackWall += walltime.Since(t0)
	rec.End(traceCkptSnap, c.Now(), nbytes)
	if ck.abortAfter == stage {
		return fmt.Errorf("%w: stage %q snapshot committed to %s", ErrCkptAbort, stage, ck.w.Dir)
	}
	return nil
}

// resumeState carries the state restored from a snapshot into the stage
// driver. A nil *resumeState means a fresh run.
type resumeState struct {
	stage string
	part  *dht.Partition // restored (re-sharded) DHT partition, stage dht
	tasks []overlap.Task // restored (re-routed) tasks, stage overlap
}

// resumedPast reports whether the restored stage lies strictly after s —
// i.e. the stage following s must be skipped because its output was
// restored rather than recomputed.
func (res *resumeState) resumedPast(s string) bool {
	return res != nil && ckpt.StageOrder(res.stage) > ckpt.StageOrder(s)
}

// storeSections encodes this rank's owned block of the read store as a
// segment section.
func storeSections(store *fastq.ReadStore, rank int) []ckpt.Section {
	start, end := store.LocalIDs(rank)
	recs := make([]*fastq.Record, 0, end-start)
	for id := start; id < end; id++ {
		recs = append(recs, store.Get(id))
	}
	return []ckpt.Section{{Name: sectionReads, Data: fastq.EncodeShardSegment(start, recs)}}
}

// ResumeComm restarts the pipeline collectively from dir's latest
// complete snapshot. The stored manifest supplies the configuration (so
// no flags need repeating); mutate, when non-nil, may adjust
// schedule-only knobs (Exchange, ReplyChunk/Depth, KeepAlignments, ...)
// — changing anything output-affecting is rejected against the
// manifest's config hash. The world size may differ from the snapshot's:
// segments are assigned contiguously to the new ranks and re-sharded
// through the pipeline's own collectives before the remaining stages
// run. opts, when non-nil, re-enables snapshotting for the stages after
// the resume point.
func ResumeComm(c *spmd.Comm, model *machine.Model, dir string, mutate func(*Config),
	opts *CkptOptions) (*Report, *fastq.ReadStore, error) {

	if model != nil && model.Ranks() != c.Size() {
		return nil, nil, fmt.Errorf("pipeline: model is shaped for %d ranks, running %d", model.Ranks(), c.Size())
	}
	// Rank 0 reads the manifest; everyone agrees on the outcome, then
	// shares the contents as the JSON it is persisted as.
	var blob []byte
	var readErr error
	if c.Rank() == 0 {
		var mp *ckpt.Manifest
		if mp, readErr = ckpt.ReadManifest(dir); readErr == nil {
			blob, readErr = json.Marshal(mp)
		}
	}
	if err := agreeError(c, "resume from "+dir, readErr); err != nil {
		return nil, nil, err
	}
	var m ckpt.Manifest
	if err := json.Unmarshal(spmd.Bcast(c, blob, 0), &m); err != nil {
		return nil, nil, fmt.Errorf("pipeline: manifest from rank 0: %w", err)
	}
	latest, ok := m.Latest()
	if !ok {
		return nil, nil, fmt.Errorf("pipeline: %s has no committed snapshot to resume from", dir)
	}

	// Reconstruct and (optionally) adjust the configuration.
	var cfg Config
	if err := json.Unmarshal(m.ConfigJSON, &cfg); err != nil {
		return nil, nil, fmt.Errorf("pipeline: manifest config: %w", err)
	}
	if err := cfg.setDefaults(); err != nil {
		return nil, nil, err
	}
	if mutate != nil {
		mutate(&cfg)
		if err := cfg.setDefaults(); err != nil {
			return nil, nil, err
		}
	}
	if h := cfg.outputHash(); h != m.ConfigHash {
		return nil, nil, fmt.Errorf("pipeline: resume configuration (hash %s) changes output-affecting parameters of the snapshot (hash %s); only scheduling knobs may differ on resume", h, m.ConfigHash)
	}

	held, partHold, taskHold, parsedBytes, loadErr := loadSegments(c, dir, &latest, &cfg)
	if err := agreeError(c, "loading snapshot segments from "+dir, loadErr); err != nil {
		return nil, nil, err
	}

	// Re-home the read store onto this world's canonical distribution.
	store, err := assembleStore(c, held, parsedBytes)
	if err != nil {
		return nil, nil, err
	}

	res := &resumeState{stage: latest.Stage}
	switch latest.Stage {
	case ckpt.StageDHT:
		if res.part, err = dht.Reshard(c, partHold); err != nil {
			return nil, nil, err
		}
	case ckpt.StageOverlap:
		if res.tasks, err = overlap.ReshardTasks(c, taskHold, store.Owner); err != nil {
			return nil, nil, err
		}
	}

	ck, err := newCkptState(cfg, model, opts, latest.Stage)
	if err != nil {
		return nil, nil, err
	}
	rep, err := executeGather(c, model, store, cfg, ck, res)
	if err != nil {
		return nil, nil, err
	}
	return rep, store, nil
}

// loadSegments reads, verifies, and decodes this rank's contiguous
// assignment of the snapshot's old-world segments: old segment s of W
// goes to new rank s*P/W... — i.e. new rank r loads segments
// [r*W/P, (r+1)*W/P). With P > W some ranks load nothing and contribute
// empty runs to the re-shard, which handles them naturally.
func loadSegments(c *spmd.Comm, dir string, latest *ckpt.StageInfo, cfg *Config) (
	held []*fastq.Record, partHold *dht.Partition, taskHold []overlap.Task,
	parsedBytes int64, err error) {

	W, P, rank := latest.World, c.Size(), c.Rank()
	lo, hi := rank*W/P, (rank+1)*W/P
	partHold = &dht.Partition{K: cfg.K, MaxFreq: cfg.MaxFreq}
	expectNext := -1
	for s := lo; s < hi; s++ {
		seg := &latest.Segments[s]
		sections, err := ckpt.ReadSegment(dir, latest, seg)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		readsBlob, err := ckpt.SectionByName(sections, sectionReads)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		idStart, recs, err := fastq.DecodeShardSegment(readsBlob)
		if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("segment %s: %w", seg.File, err)
		}
		if expectNext >= 0 && int(idStart) != expectNext {
			return nil, nil, nil, 0, fmt.Errorf("segment %s starts at read %d, expected %d (segments not contiguous)",
				seg.File, idStart, expectNext)
		}
		expectNext = int(idStart) + len(recs)
		held = append(held, recs...)
		parsedBytes += seg.Bytes

		switch latest.Stage {
		case ckpt.StageDHT:
			blob, err := ckpt.SectionByName(sections, sectionDHT)
			if err != nil {
				return nil, nil, nil, 0, err
			}
			part, err := dht.DecodePartition(blob)
			if err != nil {
				return nil, nil, nil, 0, fmt.Errorf("segment %s: %w", seg.File, err)
			}
			if part.K != cfg.K || part.MaxFreq != cfg.MaxFreq {
				return nil, nil, nil, 0, fmt.Errorf("segment %s was built with k=%d m=%d, resume config has k=%d m=%d",
					seg.File, part.K, part.MaxFreq, cfg.K, cfg.MaxFreq)
			}
			if err := partHold.Merge(part); err != nil {
				return nil, nil, nil, 0, fmt.Errorf("segment %s repeats an earlier segment: %w", seg.File, err)
			}
		case ckpt.StageOverlap:
			blob, err := ckpt.SectionByName(sections, sectionTasks)
			if err != nil {
				return nil, nil, nil, 0, err
			}
			tasks, err := overlap.DecodeTasks(blob)
			if err != nil {
				return nil, nil, nil, 0, fmt.Errorf("segment %s: %w", seg.File, err)
			}
			taskHold = append(taskHold, tasks...)
		}
	}
	return held, partHold, taskHold, parsedBytes, nil
}
