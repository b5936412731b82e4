// Package trace is the observability plane: a per-rank flight recorder
// and a process-wide metrics registry. It is always compiled and off by
// default.
//
// Tracing is observability-only by construction. Events carry the wall
// clock (via walltime.Monotonic) and the modeled virtual clock, but the
// recorder never feeds either back into the run: PAF output and
// virtual_seconds are byte/bit-identical with tracing on or off, and
// the pipeline tests enforce that on both transports.
//
// The recorder is a fixed-capacity ring per rank. When the ring wraps,
// the oldest events are overwritten (and counted as dropped) — a flight
// recorder keeps the end of the story, which is what post-mortems want.
// Emit methods are nil-receiver-safe, so a hot-path call site is a bare
// one-liner: with tracing disabled Rec returns nil and the call is a
// single predictable branch, no allocation, no lock.
//
// Every event and metric name must be a registered package-level
// constant in the emitting package — dibella-lint's tracename analyzer
// enforces it — so name cardinality stays bounded by the source code,
// never by the workload.
package trace

import (
	"sync"
	"time"

	"dibella/internal/walltime"
)

// Event phases, a subset of the Chrome trace-event phase alphabet.
const (
	PhaseBegin   = 'B' // span begin
	PhaseEnd     = 'E' // span end
	PhaseInstant = 'i' // instantaneous event
	PhaseFlowOut = 's' // flow start: an exchange posted on this rank
	PhaseFlowIn  = 'f' // flow finish: that exchange delivered on a peer
)

// Event is one recorded occurrence. A snapshot travels to rank 0 in the
// encoding of codec.go.
type Event struct {
	Name  string        // registered package-level constant
	Phase byte          // one of the Phase* values
	Wall  time.Duration // walltime.Monotonic at emission
	Virt  float64       // the rank's modeled clock at emission, seconds
	Arg   int64         // payload (bytes, rank, count, ...); 0 if unused
	Tag   string        // low-cardinality annotation (tenant, stage, reason)
	Flow  uint64        // flow id linking PhaseFlowOut to PhaseFlowIn; 0 if none
}

// RankEvents is one rank's drained ring: the surviving events in
// emission order plus the count of older events the ring overwrote.
type RankEvents struct {
	Rank    int
	Dropped uint64
	Events  []Event
}

// Recorder is one rank's ring buffer. The zero value is not usable;
// rings are created by Enable and fetched with Rec.
type Recorder struct {
	rank int
	mu   sync.Mutex
	ring []Event
	next uint64 // events ever emitted; next % len(ring) is the write slot
}

// DefaultCapacity is the per-rank ring size Enable(0) selects: at
// ~64 bytes an event, about 4 MiB per rank — hours of stage spans, or
// the last ~30k exchanges of a hot serve loop.
const DefaultCapacity = 1 << 16

var (
	regMu   sync.Mutex
	enabled bool
	recs    []*Recorder
	ringCap int
)

// Enable turns the flight recorder on with the given per-rank ring
// capacity (events; <= 0 selects DefaultCapacity). Existing rings are
// discarded, so a test can Enable/Disable around a run and observe only
// that run. All ranks of a world must agree on enablement before any of
// them records; the CLI guarantees that by arming the recorder only once
// every rank has adopted rank 0's configuration, -trace included.
func Enable(capacity int) {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	regMu.Lock()
	enabled = true
	ringCap = capacity
	recs = nil
	regMu.Unlock()
}

// Disable turns the recorder off and frees every ring. Outstanding
// *Recorder handles keep working (their ring stays reachable) but new
// Rec calls return nil.
func Disable() {
	regMu.Lock()
	enabled = false
	recs = nil
	regMu.Unlock()
}

// Enabled reports whether the flight recorder is on. It is not derived
// from rank, so collectives may be gated on it.
func Enabled() bool {
	regMu.Lock()
	defer regMu.Unlock()
	return enabled
}

// Rec returns rank's recorder, creating its ring on first use, or nil
// when tracing is disabled. Call sites cache the result for the life of
// a world; the nil result makes every emit a no-op.
func Rec(rank int) *Recorder {
	if rank < 0 {
		return nil
	}
	regMu.Lock()
	defer regMu.Unlock()
	if !enabled {
		return nil
	}
	for rank >= len(recs) {
		recs = append(recs, nil)
	}
	if recs[rank] == nil {
		recs[rank] = &Recorder{rank: rank, ring: make([]Event, ringCap)}
	}
	return recs[rank]
}

// Snapshot copies rank's ring in emission order. It returns an empty
// snapshot when tracing is disabled or the rank never recorded. Taking
// the snapshot does not stop the recorder; callers snapshot before the
// teardown gather so the gather's own events stay out of the file.
func Snapshot(rank int) RankEvents {
	regMu.Lock()
	var r *Recorder
	if rank >= 0 && rank < len(recs) {
		r = recs[rank]
	}
	regMu.Unlock()
	snap := RankEvents{Rank: rank}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	n := r.next
	size := uint64(len(r.ring))
	if n > size {
		snap.Dropped = n - size
		start := n % size
		snap.Events = make([]Event, 0, size)
		snap.Events = append(snap.Events, r.ring[start:]...)
		snap.Events = append(snap.Events, r.ring[:start]...)
	} else {
		snap.Events = append(snap.Events, r.ring[:n]...)
	}
	r.mu.Unlock()
	return snap
}

// emit appends one event, overwriting the oldest when the ring is full.
// Safe for concurrent use: serve-mode admission runs on connection
// goroutines while the SPMD loop records batch spans on the same rank.
func (r *Recorder) emit(name string, phase byte, virt float64, arg int64, tag string, flow uint64) {
	if r == nil {
		return
	}
	w := walltime.Monotonic()
	r.mu.Lock()
	r.ring[r.next%uint64(len(r.ring))] = Event{
		Name: name, Phase: phase, Wall: w, Virt: virt, Arg: arg, Tag: tag, Flow: flow,
	}
	r.next++
	r.mu.Unlock()
}

// Begin opens a span. Spans on one rank must nest (close in LIFO
// order); the Chrome writer emits them as B/E pairs.
func (r *Recorder) Begin(name string, virt float64) { r.emit(name, PhaseBegin, virt, 0, "", 0) }

// BeginTag opens a span with a low-cardinality annotation (tenant,
// stage name, ...).
func (r *Recorder) BeginTag(name string, virt float64, tag string) {
	r.emit(name, PhaseBegin, virt, 0, tag, 0)
}

// End closes the innermost open span of name. arg carries the span's
// payload (typically bytes moved); 0 if none.
func (r *Recorder) End(name string, virt float64, arg int64) {
	r.emit(name, PhaseEnd, virt, arg, "", 0)
}

// Instant records a point event with a numeric payload.
func (r *Recorder) Instant(name string, virt float64, arg int64) {
	r.emit(name, PhaseInstant, virt, arg, "", 0)
}

// InstantTag records a point event with a low-cardinality annotation.
func (r *Recorder) InstantTag(name string, virt float64, tag string) {
	r.emit(name, PhaseInstant, virt, 0, tag, 0)
}

// FlowOut records the producing end of a flow — an exchange posted on
// this rank. id must match the consuming FlowIn on the peer; the spmd
// layer derives it from the collective post order, which every rank
// observes identically.
func (r *Recorder) FlowOut(name string, virt float64, id uint64) {
	r.emit(name, PhaseFlowOut, virt, 0, "", id)
}

// FlowIn records the consuming end of a flow — the posted exchange
// delivered (waited on) by this rank.
func (r *Recorder) FlowIn(name string, virt float64, id uint64) {
	r.emit(name, PhaseFlowIn, virt, 0, "", id)
}
