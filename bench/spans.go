package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// harness around its own calls into the layers (spans inside the program
// are a later change). Parent is an index into the tracer's spans, -1 for
// a root.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int
	Rank       int
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced repetitions run.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, rank int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent, Rank: rank})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a span whose interval is already known: one rebuilt from a
// duration the callee reported, or from a client's timestamps.
func (t *tracer) add(name string, start, end time.Duration, parent, rank int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Rank: rank})
	return len(t.spans) - 1
}

// since is t's clock, for callers that build spans from timestamps.
func (t *tracer) since(at time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return at.Sub(t.epoch)
}

// selfSeconds is each span name's self time summed over its spans: the
// span's duration minus what its direct children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.Name] += self[i].Seconds()
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, one thread lane per rank), loadable in Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Tid:  s.Rank,
			Args: map[string]any{"span": i, "parent": s.Parent},
		}
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
