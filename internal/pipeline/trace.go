package pipeline

import (
	"fmt"

	"dibella/internal/spmd"
	"dibella/internal/trace"
)

// Flight-recorder span names for the pipeline stages and checkpoint
// boundaries, and the pipeline's metric names. Registered package-level
// constants, as the tracename analyzer requires.
const (
	traceLoad     = "stage.load"
	traceOverlap  = "stage.overlap"
	traceAlign    = "stage.align"
	traceCkptSnap = "ckpt.snapshot"
	traceQuery    = "query.batch"

	metricStageExchangeBytes = "dibella_stage_exchange_bytes_total"
	metricResidentMemory     = "dibella_resident_memory_bytes"
)

var (
	stageExchangeBytes = trace.RegisterCounterVec(metricStageExchangeBytes,
		"exchange payload packed per pipeline stage, summed over local ranks", "stage")
	residentMemory = trace.RegisterGaugeVec(metricResidentMemory,
		"estimated resident bytes (partition + replicas) per rank", "rank")
)

// GatherTrace collectively drains every rank's flight-recorder ring to
// rank 0 and returns the per-rank snapshots there (nil elsewhere). The
// snapshot is taken before the gather runs, so the gather's own
// collective events never appear in the emitted trace. All ranks must
// call it collectively; callers gate on trace.Enabled(), which every
// rank of a world agrees on by construction (-trace is part of the
// configuration every rank of a world adopts from rank 0).
func GatherTrace(c *spmd.Comm) []trace.RankEvents {
	rows := spmd.GatherTo(c, trace.Snapshot(c.Rank()).Encode(), 0)
	var all []trace.RankEvents
	for rank, row := range rows {
		snap, err := trace.DecodeRankEvents(row)
		if err != nil {
			// Bytes this binary's Encode wrote on a peer the handshake
			// matched to it: only a bug gets here.
			panic(fmt.Sprintf("pipeline: trace gather from rank %d: %v", rank, err))
		}
		all = append(all, snap)
	}
	return all
}
