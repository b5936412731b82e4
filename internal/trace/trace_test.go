package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dibella/internal/wire"
)

// Test-local names; production names live as constants in the emitting
// packages (tracename analyzer).
const (
	tname    = "test.span"
	tflow    = "test.flow"
	tcounter = "test_events_total"
	tcvec    = "test_rejections_total"
	tgauge   = "test_depth"
	thist    = "test_latency_seconds"
)

func TestDisabledRecorderIsNil(t *testing.T) {
	Disable()
	if r := Rec(3); r != nil {
		t.Fatalf("Rec with tracing disabled = %v, want nil", r)
	}
	// Every emit must be a no-op on a nil receiver, not a panic.
	var r *Recorder
	r.Begin(tname, 0)
	r.End(tname, 1, 42)
	r.Instant(tname, 0, 0)
	r.InstantTag(tname, 0, "tag")
	r.FlowOut(tflow, 0, 1)
	r.FlowIn(tflow, 0, 1)
	if s := Snapshot(3); len(s.Events) != 0 || s.Dropped != 0 {
		t.Fatalf("disabled snapshot = %+v, want empty", s)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	Enable(4)
	defer Disable()
	r := Rec(0)
	if r == nil {
		t.Fatal("Rec returned nil with tracing enabled")
	}
	for i := 0; i < 10; i++ {
		r.Instant(tname, float64(i), int64(i))
	}
	s := Snapshot(0)
	if s.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", s.Dropped)
	}
	if len(s.Events) != 4 {
		t.Fatalf("kept %d events, want 4", len(s.Events))
	}
	// A flight recorder keeps the end of the story, in order.
	for i, e := range s.Events {
		if want := int64(6 + i); e.Arg != want {
			t.Errorf("event %d: Arg = %d, want %d", i, e.Arg, want)
		}
	}
}

func TestEnableResetsRings(t *testing.T) {
	Enable(8)
	Rec(0).Instant(tname, 0, 1)
	Enable(8)
	defer Disable()
	if s := Snapshot(0); len(s.Events) != 0 {
		t.Fatalf("re-Enable kept %d stale events", len(s.Events))
	}
}

func TestWriteChrome(t *testing.T) {
	Enable(64)
	defer Disable()
	r0, r1 := Rec(0), Rec(1)
	r0.Begin(tname, 0.5)
	r0.FlowOut(tflow, 0.5, 7)
	r0.End(tname, 1.0, 128)
	r1.FlowIn(tflow, 1.5, 7)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, []RankEvents{Snapshot(0), Snapshot(1)}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var wallB, virtB, flows, meta int
	for _, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		pid, _ := e["pid"].(float64)
		switch {
		case ph == "M":
			meta++
		case ph == "B" && pid == 0:
			wallB++
		case ph == "B" && pid == 1:
			virtB++
		case ph == "s" || ph == "f":
			flows++
			if id, _ := e["id"].(string); id != "0x7" {
				t.Errorf("flow event id = %v, want 0x7", e["id"])
			}
		}
	}
	if wallB != 1 || virtB != 1 {
		t.Errorf("begin events per lane: wall %d, virt %d, want 1 each", wallB, virtB)
	}
	if flows != 4 { // s and f, each in both clock lanes
		t.Errorf("flow events = %d, want 4", flows)
	}
	if meta < 6 { // 2 process names + 2 ranks × 2 lanes
		t.Errorf("metadata events = %d, want >= 6", meta)
	}
}

func TestPrometheusExposition(t *testing.T) {
	c := RegisterCounter(tcounter, "events seen")
	cv := RegisterCounterVec(tcvec, "rejections by reason", "reason")
	g := RegisterGauge(tgauge, "queue depth")
	h := RegisterHistogram(thist, "latency", []float64{0.1, 1})

	before := c.Value()
	c.Add(3)
	cv.With("queue-full").Add(2)
	cv.With("bad-tenant").Inc()
	g.Set(5)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	// Registration is idempotent: same collector back, values intact.
	if again := RegisterCounter(tcounter, "events seen"); again.Value() != before+3 {
		t.Errorf("re-registered counter = %d, want %d", again.Value(), before+3)
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE " + tcounter + " counter\n",
		"# TYPE " + tgauge + " gauge\n",
		"# TYPE " + thist + " histogram\n",
		tcvec + `{reason="bad-tenant"} 1` + "\n",
		tcvec + `{reason="queue-full"} 2` + "\n",
		tgauge + " 5\n",
		thist + `_bucket{le="0.1"} 1` + "\n",
		thist + `_bucket{le="1"} 2` + "\n",
		thist + `_bucket{le="+Inf"} 3` + "\n",
		thist + "_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Label values render sorted: bad-tenant before queue-full.
	if strings.Index(out, `"bad-tenant"`) > strings.Index(out, `"queue-full"`) {
		t.Error("vec children not sorted by label value")
	}
}

// scrapeRuntime serves one /metrics request and returns the runtime series.
func scrapeRuntime(t *testing.T) map[string]uint64 {
	t.Helper()
	rec := httptest.NewRecorder()
	MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	got := map[string]uint64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		for _, name := range []string{goGoroutines, goHeapLive, goGCCycles} {
			var v uint64
			if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil && strings.HasPrefix(line, name+" ") {
				got[name] = v
			}
		}
	}
	if len(got) != 3 {
		t.Fatalf("scrape has %d of the 3 runtime series:\n%s", len(got), rec.Body.String())
	}
	return got
}

// The runtime series are read at scrape time: 64 goroutines parked on a
// channel raise go_goroutines by at least 64, and a collection raises
// go_gc_cycles_total and leaves go_heap_live_bytes non-zero.
func TestMetricsHandlerRuntimeSeries(t *testing.T) {
	before := scrapeRuntime(t)
	release := make(chan struct{})
	var parked, done sync.WaitGroup
	for range 64 {
		parked.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			parked.Done()
			<-release
		}()
	}
	parked.Wait()
	during := scrapeRuntime(t)
	close(release)
	done.Wait()
	if during[goGoroutines] < before[goGoroutines]+64 {
		t.Errorf("%s %d with 64 goroutines parked, %d before", goGoroutines, during[goGoroutines], before[goGoroutines])
	}
	runtime.GC()
	after := scrapeRuntime(t)
	if after[goGCCycles] <= during[goGCCycles] {
		t.Errorf("%s %d after a collection, %d before", goGCCycles, after[goGCCycles], during[goGCCycles])
	}
	if after[goHeapLive] == 0 {
		t.Errorf("%s is 0 after a collection", goHeapLive)
	}
}

// TestRankEventsCodec: the teardown gather's byte row round-trips every
// field, and every proper prefix or extension of it is refused.
func TestRankEventsCodec(t *testing.T) {
	snap := RankEvents{Rank: 3, Dropped: 7, Events: []Event{
		{Name: "stage.align", Phase: PhaseBegin, Wall: 1234567, Virt: 0.25, Tag: "alice"},
		{Name: "spmd.exchange", Phase: PhaseFlowOut, Wall: -1, Virt: -0.5, Arg: -42, Flow: 1<<63 + 9},
		{},
	}}
	blob := snap.Encode()
	back, err := DecodeRankEvents(blob)
	if err != nil || !reflect.DeepEqual(back, snap) {
		t.Fatalf("round trip: %+v, %v", back, err)
	}
	if empty, err := DecodeRankEvents(RankEvents{Rank: 1}.Encode()); err != nil || !reflect.DeepEqual(empty, RankEvents{Rank: 1}) {
		t.Errorf("empty snapshot: %+v, %v", empty, err)
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeRankEvents(blob[:cut]); !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("cut to %d bytes: err = %v, want truncated", cut, err)
		}
	}
	if _, err := DecodeRankEvents(append(blob, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}
