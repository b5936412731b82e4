package ckpt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dibella/internal/machine"
	"dibella/internal/spmd"
)

// Writer emits stage-boundary snapshots for one rank of a running world.
// Every rank holds its own Writer over the same directory (a shared file
// system, as cluster checkpointing assumes); Snapshot is collective.
//
// The directory holds one snapshot: each commit replaces the manifest's
// record outright and sweeps every segment file the new record does not
// name — an earlier stage of this run, an earlier run's snapshot, a
// vetoed epoch's leftovers.
type Writer struct {
	Dir        string
	ConfigHash string
	// ConfigJSON is the run's resolved configuration, recorded in the
	// manifest so a resume needs no flags.
	ConfigJSON []byte
	// Model prices each committed segment write on the writing rank's
	// clock (machine.Model.SnapshotTime); nil runs unpriced.
	Model *machine.Model
}

// Snapshot collectively commits one stage boundary: every rank durably
// writes its segment (the given sections), the world agrees the epoch
// via spmd.AgreeCommit — any rank's failure vetoes it — and rank 0 then
// publishes the new manifest. Once the commit stands, the segment
// write is charged to c's clock under the Writer's Model: a checkpointed
// run is never modeled as free, and a vetoed one is not charged for a
// snapshot it does not have. Returns the segment's byte count and the
// modeled seconds charged. On error the directory still holds the
// previous valid snapshot, never a partial one.
func (w *Writer) Snapshot(c *spmd.Comm, stage string, sections []Section) (nbytes int64, charged float64, err error) {
	if StageOrder(stage) < 0 {
		return 0, 0, fmt.Errorf("ckpt: unknown stage %q", stage)
	}
	// Epochs stay monotone within a directory, across runs too, so a
	// segment header from one commit can never pass for another's.
	next := uint64(1)
	if c.Rank() == 0 {
		if m, err := ReadManifest(w.Dir); err == nil {
			next = m.Snapshot.Epoch + 1
		}
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
		// file the manifest references: the previous snapshot (same
		// stage included) is still fully intact. What it did write, the
		// next commit sweeps.
		return nbytes, 0, fmt.Errorf("ckpt: %s snapshot (epoch %d) aborted: %s",
			stage, epoch, spmd.CommitFailure(votes))
	}

	status := ""
	if c.Rank() == 0 {
		m := &Manifest{
			Version: manifestVersion, ConfigHash: w.ConfigHash,
			ConfigJSON: json.RawMessage(w.ConfigJSON),
			Snapshot:   StageInfo{Stage: stage, Epoch: epoch, World: c.Size(), Segments: make([]SegmentInfo, len(votes))},
		}
		for r, v := range votes {
			m.Snapshot.Segments[r] = SegmentInfo{Bytes: v.Bytes, CRC64: v.Digest}
		}
		if err := writeManifest(w.Dir, m); err != nil {
			status = err.Error()
		} else {
			// The new manifest is durable and every other rank waits in
			// the Bcast below, so no segment write is in flight.
			sweep(w.Dir, &m.Snapshot)
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

// sweep removes every segment file (seg-*.ckpt) and segment temporary
// (.seg-*) in the stage directories that st does not name. Nothing else in
// dir is touched, directories included. Best effort: a leftover file is wasted space, never a
// correctness problem.
func sweep(dir string, st *StageInfo) {
	keep := make(map[string]bool, len(st.Segments))
	for r := range st.Segments {
		keep[SegmentFile(st.Stage, r, st.Epoch)] = true
	}
	for _, stage := range Stages {
		entries, _ := os.ReadDir(filepath.Join(dir, stage))
		for _, e := range entries {
			name := filepath.Join(stage, e.Name())
			seg, _ := filepath.Match("seg-*.ckpt", e.Name())
			if (seg || strings.HasPrefix(e.Name(), ".seg-")) && !e.IsDir() && !keep[name] {
				os.Remove(filepath.Join(dir, name))
			}
		}
	}
}
