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
	traceLoad       = "stage.load"
	traceOverlap    = "stage.overlap"
	traceAlign      = "stage.align"
	traceAlignBatch = "align.batch"
	traceCkptSnap   = "ckpt.snapshot"
	traceQuery      = "query.batch"
	traceQueryProbe = "query.probe"
	traceQueryAlign = "query.align"

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
// configuration every rank of a world adopts from rank 0). A row that
// does not decode, or that claims another rank than the one that sent
// it, is an error on rank 0 naming the sender: the rows cross a socket.
func GatherTrace(c *spmd.Comm) ([]trace.RankEvents, error) {
	return decodeTraceRows(spmd.GatherTo(c, trace.Snapshot(c.Rank()).Encode(), 0))
}

// decodeTraceRows decodes the gathered rows, row i sent by rank i.
func decodeTraceRows(rows [][]byte) ([]trace.RankEvents, error) {
	var all []trace.RankEvents
	for rank, row := range rows {
		snap, err := trace.DecodeRankEvents(row)
		if err != nil {
			return nil, fmt.Errorf("pipeline: trace gather from rank %d: %w", rank, err)
		}
		if snap.Rank != rank {
			return nil, fmt.Errorf("pipeline: trace gather from rank %d: row claims rank %d", rank, snap.Rank)
		}
		all = append(all, snap)
	}
	return all, nil
}
