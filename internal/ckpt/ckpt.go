package ckpt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"dibella/internal/machine"
	"dibella/internal/spmd"
)

// Writer emits stage-boundary snapshots for one rank of a running world.
// Every rank holds its own Writer over the same directory (a shared file
// system, as cluster checkpointing assumes); Snapshot is collective.
//
// Manifest lineage: the first commit of a run decides what survives from
// the directory's previous contents. A run with a different ConfigHash —
// or a fresh (non-resumed) run — starts an empty manifest, so stale
// stages from an earlier run can never be mixed with the new run's. A
// resumed run sets KeepThrough to the stage it resumed from, preserving
// that snapshot (and its predecessors) while dropping the now-superseded
// later stages.
type Writer struct {
	Dir        string
	ConfigHash string
	// ConfigJSON is the run's resolved configuration, recorded in the
	// manifest so a resume needs no flags.
	ConfigJSON []byte
	// KeepThrough, when non-empty, preserves existing manifest stages up
	// to and including this stage (same ConfigHash only).
	KeepThrough string
	// Model prices each committed segment write on the writing rank's
	// clock (machine.Model.SnapshotTime); nil runs unpriced.
	Model *machine.Model

	inited   bool
	manifest *Manifest // maintained on rank 0 only
	// prevStages remembers the directory's pre-existing manifest entries
	// (rank 0 only): once a commit supersedes one of them with a durable
	// new manifest, its now-unreferenced segment files are removed.
	prevStages map[string]StageInfo
}

// init prepares rank 0's manifest state on first commit.
func (w *Writer) init() {
	if w.inited {
		return
	}
	w.inited = true
	fresh := &Manifest{
		Version: manifestVersion, ConfigHash: w.ConfigHash,
		ConfigJSON: json.RawMessage(w.ConfigJSON),
		Stages:     make(map[string]StageInfo),
	}
	w.manifest = fresh
	m, err := ReadManifest(w.Dir)
	if err != nil {
		// No (or unreadable) previous manifest: nothing valid to keep.
		return
	}
	// Epochs stay monotone within a directory across runs, so segment
	// headers from different lineages can never collide.
	fresh.Epoch = m.Epoch
	w.prevStages = m.Stages
	if m.ConfigHash == w.ConfigHash && w.KeepThrough != "" {
		keep := StageOrder(w.KeepThrough)
		for name, st := range m.Stages {
			if StageOrder(name) <= keep {
				fresh.Stages[name] = st
			}
		}
	}
}

// Snapshot collectively commits one stage boundary: every rank durably
// writes its segment (the given sections), the world agrees the epoch
// via spmd.AgreeCommit — any rank's failure vetoes it — and rank 0 then
// publishes the updated manifest. Once the commit stands, the segment
// write is charged to c's clock under the Writer's Model: a checkpointed
// run is never modeled as free, and a vetoed one is not charged for a
// snapshot it does not have. Returns the segment's byte count and the
// modeled seconds charged. On error the directory still holds the
// previous valid snapshot, never a partial one.
func (w *Writer) Snapshot(c *spmd.Comm, stage string, sections []Section) (nbytes int64, charged float64, err error) {
	if StageOrder(stage) < 0 {
		return 0, 0, fmt.Errorf("ckpt: unknown stage %q", stage)
	}
	var next uint64
	if c.Rank() == 0 {
		w.init()
		next = w.manifest.Epoch + 1
	}
	epoch := spmd.Bcast(c, next, 0)

	hdr := SegmentHeader{Stage: stage, Epoch: epoch, World: c.Size(), Rank: c.Rank()}
	path := filepath.Join(w.Dir, SegmentFile(stage, c.Rank(), epoch))
	vote := spmd.CommitVote{OK: true}
	nbytes, crc, err := writeSegmentFile(path, hdr, sections)
	if err != nil {
		vote = spmd.CommitVote{Err: err.Error()}
	}
	vote.Digest, vote.Bytes = crc, nbytes

	votes, ok := spmd.AgreeCommit(c, vote)
	if !ok {
		// Epoch-suffixed file names mean this failed epoch touched no
		// file any manifest references: the previous snapshot (same
		// stage included) is still fully intact.
		return nbytes, 0, fmt.Errorf("ckpt: %s snapshot (epoch %d) aborted: %s",
			stage, epoch, spmd.CommitFailure(votes))
	}

	status := ""
	if c.Rank() == 0 {
		// The stage entry this commit replaces: from the directory's
		// pre-existing manifest (a re-run or resumed run superseding an
		// older snapshot of the same stage), or — defensively — from this
		// run's own manifest.
		superseded := w.manifest.Stages[stage].Segments
		if prev, ok := w.prevStages[stage]; ok && prev.Epoch != epoch {
			superseded = append(superseded, prev.Segments...)
			delete(w.prevStages, stage)
		}
		segs := make([]SegmentInfo, len(votes))
		for r, v := range votes {
			segs[r] = SegmentInfo{Rank: r, File: SegmentFile(stage, r, epoch), Bytes: v.Bytes, CRC64: v.Digest}
		}
		w.manifest.Stages[stage] = StageInfo{Stage: stage, Epoch: epoch, World: c.Size(), Segments: segs}
		w.manifest.Epoch = epoch
		if err := writeManifest(w.Dir, w.manifest); err != nil {
			status = err.Error()
		} else {
			// The new manifest is durable; the superseded epoch's
			// segments are now unreferenced. Best-effort GC — a leftover
			// file is wasted space, never a correctness problem.
			for _, seg := range superseded {
				os.Remove(filepath.Join(w.Dir, seg.File))
			}
		}
	}
	// The commit point is the manifest rename; every rank must share its
	// outcome or a crashed rank 0 would leave survivors believing in a
	// snapshot that was never published.
	if s := spmd.Bcast(c, []byte(status), 0); len(s) != 0 {
		return nbytes, 0, fmt.Errorf("ckpt: publishing %s snapshot manifest: %s", stage, s)
	}
	if w.Model != nil {
		charged = w.Model.SnapshotTime(float64(nbytes))
		c.Tick(charged)
	}
	return nbytes, charged, nil
}
