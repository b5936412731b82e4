// Package ckpt is diBELLA's checkpoint/restart subsystem: stage-boundary
// snapshots of the distributed pipeline's state into per-rank segment
// files plus a rank-0 manifest, written collectively under an epoch
// barrier so a snapshot is only ever valid when every rank committed.
//
// Layout of a checkpoint directory:
//
//	<dir>/manifest.json        rank 0's commit record (atomic rename)
//	<dir>/<stage>/seg-<rank>.ckpt
//
// A segment file is a self-describing container (header + named
// sections) whose CRC-64 digest and byte count are recorded in the
// manifest at commit time; the loader verifies both before decoding, so
// a truncated or bit-flipped segment is rejected with a clear error
// instead of resuming from garbage.
//
// Crash consistency: segments are written to temporary files and renamed
// into place, the world agrees on the epoch commit via spmd.AgreeCommit
// (any rank's write failure vetoes the epoch), and only then does rank 0
// publish the manifest — also by atomic rename. A crash at any point
// leaves either the previous manifest (previous snapshot wins) or the
// new one (new snapshot complete); never a manifest pointing at
// half-written segments.
//
// Elastic restart: because the pipeline's distributed state is
// deterministically partitioned (reads by the block distribution, k-mers
// by hash ownership, alignment tasks by the placement policy), a
// snapshot taken at world size W can resume at any size P — the loader
// assigns old segments to new ranks and re-shards through the pipeline's
// own collectives. See internal/pipeline's resume entry points.
package ckpt

import (
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"

	"dibella/internal/wire"
)

const (
	// segMagic brands segment files ("dibella checkpoint").
	segMagic = 0xD1BECC09
	// segVersion is the segment format version; bumped on incompatible
	// layout changes so an old binary rejects a new segment cleanly.
	// Version 2 put every name behind the wire package's uint32 length.
	segVersion = 2
)

// crcTable is the ECMA polynomial table used for segment digests.
var crcTable = crc64.MakeTable(crc64.ECMA)

// SegmentHeader identifies what a segment file holds: which stage
// boundary, which commit epoch, and which rank of which world wrote it.
// The loader cross-checks every field against the manifest entry that
// referenced the file, so a segment from a different stage, epoch, or
// run cannot be spliced in silently.
type SegmentHeader struct {
	Stage string
	Epoch uint64
	World int
	Rank  int
}

// Section is one named payload of a segment file (e.g. "reads", "dht",
// "tasks"). Names let a stage's segment carry several state components
// without the codecs knowing about each other.
type Section struct {
	Name string
	Data []byte
}

// encodeSegment renders the full segment file image: magic and version,
// the header fields, then each section's name and — behind a uint64
// length, sections outgrow 4 GiB — its data.
func encodeSegment(hdr SegmentHeader, sections []Section) []byte {
	n := 8 + 4 + len(hdr.Stage) + 8 + 4 + 4 + 4
	for _, s := range sections {
		n += 4 + len(s.Name) + 8 + len(s.Data)
	}
	buf := wire.U32(make([]byte, 0, n), segMagic)
	buf = wire.U32(buf, segVersion)
	buf = wire.Bytes(buf, hdr.Stage)
	buf = wire.U64(buf, hdr.Epoch)
	buf = wire.U32(wire.U32(buf, uint32(hdr.World)), uint32(hdr.Rank))
	buf = wire.U32(buf, uint32(len(sections)))
	for _, s := range sections {
		buf = wire.U64(wire.Bytes(buf, s.Name), uint64(len(s.Data)))
		buf = append(buf, s.Data...)
	}
	return buf
}

// decodeSegment parses a segment file image. Section data aliases b.
func decodeSegment(b []byte) (SegmentHeader, []Section, error) {
	r := wire.NewReader(b)
	if m := r.U32(); m != segMagic {
		r.Fail(fmt.Errorf("bad magic %#08x (not a checkpoint segment)", m))
	}
	if v := r.U32(); v != segVersion {
		r.Fail(fmt.Errorf("format version %d, this binary reads %d", v, segVersion))
	}
	hdr := SegmentHeader{Stage: r.String(), Epoch: r.U64(), World: int(r.U32()), Rank: int(r.U32())}
	// A section is at least its two length fields.
	sections := make([]Section, r.Count(uint64(r.U32()), 12))
	for i := range sections {
		sections[i] = Section{Name: r.String(), Data: r.Take(r.U64())}
	}
	if err := r.Finish(); err != nil {
		return SegmentHeader{}, nil, fmt.Errorf("ckpt: segment: %w", err)
	}
	return hdr, sections, nil
}

// SegmentFile returns the manifest-relative path of a stage's per-rank
// segment for one commit epoch. The epoch is part of the name so a
// re-snapshot of the same stage never writes over the previous
// snapshot's files: until the new manifest is published (the commit
// point), the old manifest's segments remain intact on disk, keeping
// the previous-snapshot-wins guarantee even for a vetoed or crashed
// re-snapshot of the manifest's latest stage. Superseded files are
// garbage-collected only after the replacing manifest is durable.
func SegmentFile(stage string, rank int, epoch uint64) string {
	return filepath.Join(stage, fmt.Sprintf("seg-%05d-e%06d.ckpt", rank, epoch))
}

// writeSegmentFile durably writes one segment: encode, write to a
// temporary file in the same directory, fsync, rename into place, fsync
// the directory.
// Returns the file's byte count and CRC-64 digest for the manifest.
func writeSegmentFile(path string, hdr SegmentHeader, sections []Section) (int64, uint64, error) {
	img := encodeSegment(hdr, sections)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".seg-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(img); err != nil {
		tmp.Close()
		return 0, 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, 0, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return 0, 0, err
	}
	return int64(len(img)), crc64.Checksum(img, crcTable), nil
}

// syncDir makes the renames into dir durable: a renamed file is on disk
// only once its directory is, so without it a power cut could keep a
// manifest naming a segment whose rename was lost. A variable so tests can
// count its calls and fail them.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadSegment loads and verifies one segment file against its manifest
// record: byte count, CRC-64 digest, and header identity must all match
// before any section is handed to a decoder. Sections alias the file
// image read into memory.
func ReadSegment(dir string, st *StageInfo, seg *SegmentInfo) ([]Section, error) {
	path := filepath.Join(dir, seg.File)
	img, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if int64(len(img)) != seg.Bytes {
		return nil, fmt.Errorf("ckpt: %s is %d bytes, manifest recorded %d (truncated or partial segment)",
			path, len(img), seg.Bytes)
	}
	if crc := crc64.Checksum(img, crcTable); crc != seg.CRC64 {
		return nil, fmt.Errorf("ckpt: %s digest %016x does not match manifest %016x (corrupt segment)",
			path, crc, seg.CRC64)
	}
	hdr, sections, err := decodeSegment(img)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	if hdr.Stage != st.Stage || hdr.Epoch != st.Epoch || hdr.World != st.World || hdr.Rank != seg.Rank {
		return nil, fmt.Errorf("ckpt: %s header (stage %q epoch %d world %d rank %d) does not match manifest (stage %q epoch %d world %d rank %d)",
			path, hdr.Stage, hdr.Epoch, hdr.World, hdr.Rank, st.Stage, st.Epoch, st.World, seg.Rank)
	}
	return sections, nil
}

// SectionByName returns the named section of a decoded segment.
func SectionByName(sections []Section, name string) ([]byte, error) {
	for _, s := range sections {
		if s.Name == name {
			return s.Data, nil
		}
	}
	return nil, fmt.Errorf("ckpt: segment has no %q section", name)
}
