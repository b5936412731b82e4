package main

import (
	"bytes"
	"fmt"
	"strings"

	"dibella/internal/evalx"
	"dibella/internal/fastq"
	"dibella/internal/paf"
	"dibella/internal/pipeline"
	"dibella/internal/seqgen"
	"dibella/internal/spmd"
)

// queryPrefix marks a held-out read's name in serve traffic, so a PAF row
// tells a query from an indexed read.
const queryPrefix = "q_"

// tally counts operations for failed_fraction: an operation is one
// dibella run or one query. A failed operation contributes no timing.
type tally struct {
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	FirstErr  string `json:"first_error,omitempty"`
}

// ok records one operation's outcome and reports whether it succeeded.
func (t *tally) ok(err error) bool {
	t.Attempted++
	if err == nil {
		return true
	}
	t.Failed++
	if t.FirstErr == "" {
		t.FirstErr = err.Error()
	}
	return false
}

// checkPAF accepts an output only if paf.Parse takes it and its bytes equal
// the reference — the house invariant: one input and seeding mode give one
// PAF at every world size, transport and schedule.
func checkPAF(got, ref []byte) error {
	if _, err := paf.Parse(bytes.NewReader(got)); err != nil {
		return fmt.Errorf("PAF rejected by paf.Parse: %w", err)
	}
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("PAF differs from the reference (%d bytes, reference %d)", len(got), len(ref))
	}
	return nil
}

// pafPairs maps the rows of PAFs over ds's reads (query names carry
// queryPrefix) to read-ID pairs.
func pafPairs(ds *seqgen.Dataset, pafs ...[]byte) ([]evalx.Pair, error) {
	ids := make(map[string]uint32, len(ds.Reads))
	for i, r := range ds.Reads {
		ids[r.Name] = uint32(i)
	}
	var pairs []evalx.Pair
	for _, b := range pafs {
		recs, err := paf.Parse(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			a, okA := ids[strings.TrimPrefix(r.QName, queryPrefix)]
			t, okT := ids[strings.TrimPrefix(r.TName, queryPrefix)]
			if !okA || !okT {
				return nil, fmt.Errorf("PAF names a read the generator did not make: %s / %s", r.QName, r.TName)
			}
			pairs = append(pairs, evalx.Canon(a, t))
		}
	}
	return pairs, nil
}

// batchRecall scores a batch PAF against every true overlap of at least
// minOverlap bases.
func batchRecall(ds *seqgen.Dataset, pafBytes []byte, minOverlap int) (float64, error) {
	pairs, err := pafPairs(ds, pafBytes)
	if err != nil {
		return 0, err
	}
	return evalx.Evaluate(ds, pairs, minOverlap).Recall(), nil
}

// serveRecall scores the union of the served PAFs against the true
// overlaps between one indexed read and one query read (IDs from
// firstQuery up). Single-read batches can never report query×query pairs,
// so those are not in the truth.
func serveRecall(ds *seqgen.Dataset, firstQuery uint32, pafs [][]byte, minOverlap int) (float64, error) {
	pairs, err := pafPairs(ds, pafs...)
	if err != nil {
		return 0, err
	}
	found := make(map[evalx.Pair]bool, len(pairs))
	for _, p := range pairs {
		found[p] = true
	}
	truth, hit := 0, 0
	for _, t := range ds.TrueOverlaps(minOverlap) {
		if t[0] < firstQuery && t[1] >= firstQuery {
			truth++
			if found[evalx.Pair{A: t[0], B: t[1]}] {
				hit++
			}
		}
	}
	if truth == 0 {
		return 0, fmt.Errorf("no true indexed×query overlap of %d bases: workload too small", minOverlap)
	}
	return float64(hit) / float64(truth), nil
}

// serveReference answers every query of in against a 1-rank in-process
// world — the reference each served PAF must equal byte for byte.
func serveReference(in *instance) ([][]byte, error) {
	cfg := in.w.serveConfig()
	out := make([][]byte, len(in.queries))
	err := spmd.Run(1, func(c *spmd.Comm) error {
		world, err := pipeline.FormWorld(c, nil, fastq.NewReadStore(in.indexed, 1), cfg)
		if err != nil {
			return err
		}
		for i := range in.queries {
			batch := in.queries[i : i+1]
			recs, err := world.RunQuery(0, batch)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := paf.Write(&buf, world.QueryPAF(batch, recs)); err != nil {
				return err
			}
			out[i] = buf.Bytes()
		}
		return nil
	})
	return out, err
}
