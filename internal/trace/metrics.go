package trace

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// The metrics side of the observability plane: a small always-on
// registry of counters, gauges, and histograms with Prometheus text
// exposition. Unlike the flight recorder there is no enable switch —
// an atomic add is cheap enough to pay unconditionally, and serve mode
// wants the counters live before anyone decides to scrape them.
//
// Metric names, like trace event names, must be registered
// package-level constants (tracename analyzer); label values must be
// low-cardinality by construction — sentinel rejection reasons, ranks,
// stage names — never request-derived strings.

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta, which must be non-negative.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	counts  []int64   // per-bucket (non-cumulative) counts, len(bounds)+1
	sum     float64
	samples int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.samples++
	h.mu.Unlock()
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples
}

// DefBuckets are the default latency buckets, in seconds.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// vec is a labeled family of children, created on first use per value.
type vec[T any] struct {
	mu       sync.Mutex
	children map[string]*T
}

func (v *vec[T]) with(value string) *T {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.children == nil {
		v.children = make(map[string]*T)
	}
	c, ok := v.children[value]
	if !ok {
		c = new(T)
		v.children[value] = c
	}
	return c
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct {
	label string
	vec[Counter]
}

// With returns the child counter for the label value, creating it on
// first use. Label values must be bounded: sentinel names, ranks.
func (v *CounterVec) With(value string) *Counter { return v.with(value) }

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct {
	label string
	vec[Gauge]
}

// With returns the child gauge for the label value.
func (v *GaugeVec) With(value string) *Gauge { return v.with(value) }

// WithRank is With over a rank number — the registry's only sanctioned
// dynamic label, bounded by the world size.
func (v *GaugeVec) WithRank(rank int) *Gauge { return v.with(strconv.Itoa(rank)) }

type collector struct {
	name string
	help string
	kind string // "counter", "gauge", "histogram"
	c    *Counter
	cv   *CounterVec
	g    *Gauge
	gv   *GaugeVec
	h    *Histogram
}

var (
	metricsMu sync.Mutex
	metrics   = map[string]*collector{}
)

// register is idempotent per name: re-registering returns the existing
// collector, so package-level var initializers stay order-independent
// across tests. A kind mismatch is a programming error and panics.
func register(name, help, kind string) *collector {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	if c, ok := metrics[name]; ok {
		if c.kind != kind {
			panic(fmt.Sprintf("trace: metric %q re-registered as %s, was %s", name, kind, c.kind))
		}
		return c
	}
	c := &collector{name: name, help: help, kind: kind}
	metrics[name] = c
	return c
}

// RegisterCounter registers (or returns) the named counter.
func RegisterCounter(name, help string) *Counter {
	c := register(name, help, "counter")
	if c.c == nil {
		c.c = &Counter{}
	}
	return c.c
}

// RegisterCounterVec registers (or returns) the named counter family.
func RegisterCounterVec(name, help, label string) *CounterVec {
	c := register(name, help, "counter")
	if c.cv == nil {
		c.cv = &CounterVec{label: label}
	}
	return c.cv
}

// RegisterGauge registers (or returns) the named gauge.
func RegisterGauge(name, help string) *Gauge {
	c := register(name, help, "gauge")
	if c.g == nil {
		c.g = &Gauge{}
	}
	return c.g
}

// RegisterGaugeVec registers (or returns) the named gauge family.
func RegisterGaugeVec(name, help, label string) *GaugeVec {
	c := register(name, help, "gauge")
	if c.gv == nil {
		c.gv = &GaugeVec{label: label}
	}
	return c.gv
}

// RegisterHistogram registers (or returns) the named histogram. buckets
// are ascending upper bounds; nil selects DefBuckets.
func RegisterHistogram(name, help string, buckets []float64) *Histogram {
	c := register(name, help, "histogram")
	if c.h == nil {
		if buckets == nil {
			buckets = DefBuckets
		}
		bounds := append([]float64(nil), buckets...)
		c.h = &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
	}
	return c.h
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format, sorted by name (and label value within a
// family) so output is deterministic.
func WritePrometheus(w io.Writer) error {
	metricsMu.Lock()
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	cols := make([]*collector, len(names))
	for i, n := range names {
		cols[i] = metrics[n]
	}
	metricsMu.Unlock()

	for _, c := range cols {
		if c.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", c.name, c.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", c.name, c.kind); err != nil {
			return err
		}
		var err error
		switch {
		case c.c != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", c.name, c.c.Value())
		case c.g != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", c.name, c.g.Value())
		case c.h != nil:
			err = writeHistogram(w, c.name, c.h)
		}
		if err != nil {
			return err
		}
		if err := writeVec(w, c); err != nil {
			return err
		}
	}
	return nil
}

func writeVec(w io.Writer, c *collector) error {
	var label string
	var values []string
	lookup := func(v string) int64 { return 0 }
	switch {
	case c.cv != nil:
		label = c.cv.label
		c.cv.mu.Lock()
		for v := range c.cv.children {
			values = append(values, v)
		}
		c.cv.mu.Unlock()
		lookup = func(v string) int64 { return c.cv.With(v).Value() }
	case c.gv != nil:
		label = c.gv.label
		c.gv.mu.Lock()
		for v := range c.gv.children {
			values = append(values, v)
		}
		c.gv.mu.Unlock()
		lookup = func(v string) int64 { return c.gv.With(v).Value() }
	default:
		return nil
	}
	sort.Strings(values)
	for _, v := range values {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", c.name, label, v, lookup(v)); err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, h *Histogram) error {
	h.mu.Lock()
	bounds := h.bounds
	counts := append([]int64(nil), h.counts...)
	sum, samples := h.sum, h.samples
	h.mu.Unlock()
	cum := int64(0)
	for i, b := range bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum); err != nil {
			return err
		}
	}
	cum += counts[len(bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %g\n", name, sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, samples)
	return err
}

func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

// MetricsHandler serves /metrics in the Prometheus text format: every
// registered metric, then the Go runtime's series. The handler reads
// atomics, per-collector locks and runtime/metrics only — never a
// collective — so a scrape can never stall or reorder the SPMD loop.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if WritePrometheus(w) == nil {
			_ = writeRuntime(w)
		}
	})
}

// The Go runtime's series on /metrics. They are read from runtime/metrics at
// scrape time, not registered: nothing in the program sets them.
const (
	goGoroutines = "go_goroutines"
	goHeapLive   = "go_heap_live_bytes"
	goGCCycles   = "go_gc_cycles_total"
	goGCPause    = "go_gc_pause_seconds"
)

var runtimeSeries = [...]struct{ name, kind, help, sample string }{
	{goGoroutines, "gauge", "Goroutines that currently exist.", "/sched/goroutines:goroutines"},
	{goHeapLive, "gauge", "Heap bytes the last GC marked live.", "/gc/heap/live:bytes"},
	{goGCCycles, "counter", "GC cycles completed.", "/gc/cycles/total:gc-cycles"},
}

// gcPauseSample is the runtime's histogram of stop-the-world pauses for
// the collector, and gcPauseBounds the buckets /metrics folds it into.
const gcPauseSample = "/sched/pauses/total/gc:seconds"

var gcPauseBounds = [...]float64{1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1}

// writeRuntime renders the runtime series, in the order of runtimeSeries,
// then the GC pause histogram.
func writeRuntime(w io.Writer) error {
	var samples [len(runtimeSeries) + 1]rtmetrics.Sample
	for i, s := range runtimeSeries {
		samples[i].Name = s.sample
	}
	samples[len(runtimeSeries)].Name = gcPauseSample
	rtmetrics.Read(samples[:])
	for i, s := range runtimeSeries {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			s.name, s.help, s.name, s.kind, s.name, samples[i].Value.Uint64()); err != nil {
			return err
		}
	}
	return writeGCPauses(w, samples[len(runtimeSeries)].Value.Float64Histogram())
}

// writeGCPauses folds the runtime's pause histogram into gcPauseBounds. A
// runtime bucket counts under the first bound at or above its upper edge,
// so a bucket's count never understates the pauses up to its bound. The
// runtime keeps counts, not a sum: _sum adds each bucket's midpoint (its
// finite edge at the two open ends), so it is off by at most half the width
// of the runtime's buckets.
func writeGCPauses(w io.Writer, h *rtmetrics.Float64Histogram) error {
	var below [len(gcPauseBounds)]uint64
	var count uint64
	sum := 0.0
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		for b, bound := range gcPauseBounds {
			if hi <= bound {
				below[b] += n
			}
		}
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		sum += float64(n) * mid
		count += n
	}
	if _, err := fmt.Fprintf(w, "# HELP %s Stop-the-world pauses for the garbage collector.\n# TYPE %s histogram\n", goGCPause, goGCPause); err != nil {
		return err
	}
	for b, bound := range gcPauseBounds {
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", goGCPause, formatBound(bound), below[b]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n", goGCPause, count, goGCPause, sum, goGCPause, count)
	return err
}

// NewObservabilityMux returns an http.Handler exposing /metrics plus
// the pprof endpoints under /debug/pprof/. A private mux, not
// http.DefaultServeMux, so importing this package never mutates global
// HTTP state.
func NewObservabilityMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
