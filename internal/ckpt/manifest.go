package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Pipeline stage boundaries, in execution order. These are the points
// the subsystem can snapshot at and resume from.
const (
	// StageLoad: the sharded read store, right after cooperative input
	// loading.
	StageLoad = "load"
	// StageDHT: the k-mer hash-table partitions (plus the read store),
	// right after DHT construction and pruning.
	StageDHT = "dht"
	// StageOverlap: the consolidated alignment task sets (plus the read
	// store), right after overlap detection.
	StageOverlap = "overlap"
)

// Stages lists the checkpointable boundaries in pipeline order.
var Stages = []string{StageLoad, StageDHT, StageOverlap}

// StageOrder returns a stage's position in the pipeline, or -1 for an
// unknown stage.
func StageOrder(stage string) int {
	for i, s := range Stages {
		if s == stage {
			return i
		}
	}
	return -1
}

// manifestName is the commit record's file name inside a checkpoint
// directory.
const manifestName = "manifest.json"

// manifestVersion is bumped on incompatible manifest schema changes, so a
// directory an older binary wrote is refused here, by version, before its
// config hash or a segment is looked at. Version 3 records one snapshot
// and no segment paths.
const manifestVersion = 3

// SegmentInfo is the manifest's record of one rank's committed segment;
// its index in StageInfo.Segments is the rank, and its file is
// SegmentFile(stage, rank, epoch).
type SegmentInfo struct {
	Bytes int64  `json:"bytes"`
	CRC64 uint64 `json:"crc64"`
}

// StageInfo is the manifest's record of the committed snapshot: which
// stage boundary and epoch it belongs to, the world size that wrote it,
// and every rank's segment.
type StageInfo struct {
	Stage    string        `json:"stage"`
	Epoch    uint64        `json:"epoch"`
	World    int           `json:"world"`
	Segments []SegmentInfo `json:"segments"`
}

// Manifest is the checkpoint directory's commit record. It is only ever
// written by rank 0, after the whole world agreed the epoch's segments
// are durable, and only by atomic rename — its presence and contents
// therefore define the one snapshot the directory holds.
type Manifest struct {
	Version    int    `json:"version"`
	ConfigHash string `json:"config_hash"`
	// ConfigJSON is the producing run's resolved pipeline configuration,
	// so `dibella -resume <dir>` needs no other flags.
	ConfigJSON json.RawMessage `json:"config"`
	Snapshot   StageInfo       `json:"snapshot"`
}

// ManifestPath returns the manifest's location inside a checkpoint
// directory.
func ManifestPath(dir string) string { return filepath.Join(dir, manifestName) }

// ReadManifest loads and validates a checkpoint directory's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	blob, err := os.ReadFile(ManifestPath(dir))
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading manifest: %w", err)
	}
	return decodeManifest(ManifestPath(dir), blob)
}

// decodeManifest parses and validates a manifest image; path names it in
// a syntax error.
func decodeManifest(path string, blob []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("ckpt: manifest version %d, this binary reads %d", m.Version, manifestVersion)
	}
	st := &m.Snapshot
	if st.Stage == "" {
		return nil, fmt.Errorf("ckpt: %s records no snapshot", path)
	}
	if StageOrder(st.Stage) < 0 {
		return nil, fmt.Errorf("ckpt: manifest records unknown stage %q", st.Stage)
	}
	if st.World <= 0 || len(st.Segments) != st.World {
		return nil, fmt.Errorf("ckpt: manifest stage %q has %d segments for world size %d",
			st.Stage, len(st.Segments), st.World)
	}
	return &m, nil
}

// writeManifest atomically publishes the manifest: marshal, write to a
// temporary file, fsync, rename over the previous manifest, fsync the
// directory.
func writeManifest(dir string, m *Manifest) error {
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), ManifestPath(dir)); err != nil {
		return err
	}
	return syncDir(dir)
}

// HashConfig digests a canonical (JSON) rendering of the
// output-affecting configuration. Snapshots written under one hash can
// only be resumed by a run whose configuration hashes identically —
// resuming k=17 state into a k=19 run would silently corrupt output.
func HashConfig(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:8])
}
