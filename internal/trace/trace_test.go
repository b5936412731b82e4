package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

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

// exposition renders the registry and returns its series lines, keyed
// by name and labels, with their values.
func exposition(t *testing.T) (string, map[string]float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		key, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		series[key] = v
	}
	return buf.String(), series
}

// TestPrometheusExposition checks each series against the value read
// before this test's own increments: the registry is process-global, so
// a second run in one process (-count=2) starts from the first run's
// totals.
func TestPrometheusExposition(t *testing.T) {
	c := RegisterCounter(tcounter, "events seen")
	cv := RegisterCounterVec(tcvec, "rejections by reason", "reason")
	g := RegisterGauge(tgauge, "queue depth")
	h := RegisterHistogram(thist, "latency", []float64{0.1, 1})

	_, before := exposition(t)
	c.Add(3)
	cv.With("queue-full").Add(2)
	cv.With("bad-tenant").Inc()
	g.Set(5)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	// Registration is idempotent: same collector back, values intact.
	if again := RegisterCounter(tcounter, "events seen"); float64(again.Value()) != before[tcounter]+3 {
		t.Errorf("re-registered counter = %d, want %g", again.Value(), before[tcounter]+3)
	}

	out, after := exposition(t)
	for _, want := range []string{
		"# TYPE " + tcounter + " counter\n",
		"# TYPE " + tgauge + " gauge\n",
		"# TYPE " + thist + " histogram\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	for series, delta := range map[string]float64{
		tcounter:                        3,
		tcvec + `{reason="bad-tenant"}`: 1,
		tcvec + `{reason="queue-full"}`: 2,
		thist + `_bucket{le="0.1"}`:     1,
		thist + `_bucket{le="1"}`:       2,
		thist + `_bucket{le="+Inf"}`:    3,
		thist + "_count":                3,
	} {
		if got, ok := after[series]; !ok || got != before[series]+delta {
			t.Errorf("%s = %g (present %v), want %g + %g\n%s", series, got, ok, before[series], delta, out)
		}
	}
	if after[tgauge] != 5 {
		t.Errorf("%s = %g, want 5", tgauge, after[tgauge])
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
// channel count in go_goroutines until they are released, and a collection
// raises go_gc_cycles_total and leaves go_heap_live_bytes non-zero. The
// goroutine count is compared with a scrape taken after the parked ones
// exit, not one taken before they start: a goroutine an earlier test left
// may exit in between, and only the 64 are this test's to count.
func TestMetricsHandlerRuntimeSeries(t *testing.T) {
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
	runtime.GC()
	after := scrapeRuntime(t)
	// done.Wait returns before the last of them has exited.
	for i := 0; int64(during[goGoroutines])-int64(after[goGoroutines]) < 64 && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		after = scrapeRuntime(t)
	}
	if int64(during[goGoroutines])-int64(after[goGoroutines]) < 64 {
		t.Errorf("%s %d with 64 goroutines parked, %d once they exited", goGoroutines, during[goGoroutines], after[goGoroutines])
	}
	if after[goGCCycles] <= during[goGCCycles] {
		t.Errorf("%s %d after a collection, %d before", goGCCycles, after[goGCCycles], during[goGCCycles])
	}
	if after[goHeapLive] == 0 {
		t.Errorf("%s is 0 after a collection", goHeapLive)
	}
}

// The GC pause histogram is read at scrape time too: after a collection it
// has at least one pause, its buckets are cumulative and end in _count, and
// its bounds are the fixed ones, ascending.
func TestMetricsHandlerGCPauseHistogram(t *testing.T) {
	runtime.GC()
	rec := httptest.NewRecorder()
	MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var les []string
	var buckets []uint64
	var count uint64
	sum := -1.0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		var le string
		var v uint64
		switch {
		case strings.HasPrefix(line, goGCPause+"_bucket{"):
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, goGCPause+"_bucket{le="), "%q} %d", &le, &v); err != nil {
				t.Fatalf("unparsable bucket %q: %v", line, err)
			}
			les, buckets = append(les, le), append(buckets, v)
		case strings.HasPrefix(line, goGCPause+"_sum "):
			fmt.Sscanf(line, goGCPause+"_sum %g", &sum)
		case strings.HasPrefix(line, goGCPause+"_count "):
			fmt.Sscanf(line, goGCPause+"_count %d", &count)
		}
	}
	if len(buckets) != len(gcPauseBounds)+1 || les[len(les)-1] != "+Inf" {
		t.Fatalf("%d buckets ending in le=%v, want the %d bounds and +Inf:\n%s", len(buckets), les, len(gcPauseBounds), rec.Body.String())
	}
	for i := range gcPauseBounds {
		if les[i] != formatBound(gcPauseBounds[i]) || (i > 0 && gcPauseBounds[i] <= gcPauseBounds[i-1]) {
			t.Errorf("bucket %d is le=%q, bound %v", i, les[i], gcPauseBounds[i])
		}
		if buckets[i+1] < buckets[i] {
			t.Errorf("bucket le=%s holds %d, fewer than le=%s's %d", les[i+1], buckets[i+1], les[i], buckets[i])
		}
	}
	if count < 1 || buckets[len(buckets)-1] != count || sum <= 0 {
		t.Errorf("after a collection: _count %d, +Inf bucket %d, _sum %g", count, buckets[len(buckets)-1], sum)
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

// FuzzDecodeRankEvents: the teardown gather's rows cross a socket, so any
// bytes decode to a snapshot or an error, never a panic; a snapshot holds
// no more events than the bytes can encode, and encodes back to exactly
// the bytes it came from.
func FuzzDecodeRankEvents(f *testing.F) {
	f.Add(RankEvents{}.Encode())
	f.Add(RankEvents{Rank: 3, Dropped: 7, Events: []Event{
		{Name: "stage.align", Phase: PhaseBegin, Wall: 1234567, Virt: 0.25, Tag: "alice"},
		{Name: "spmd.exchange", Phase: PhaseFlowOut, Wall: -1, Virt: -0.5, Arg: -42, Flow: 1<<63 + 9},
	}}.Encode())
	// A header that promises 2^64-1 events and delivers none.
	f.Add(append(RankEvents{Rank: 1}.Encode()[:12], 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF))
	f.Fuzz(func(t *testing.T, b []byte) {
		re, err := DecodeRankEvents(b)
		if err != nil {
			return
		}
		if len(re.Events)*minEventSize > len(b) {
			t.Fatalf("%d events from a %d-byte row", len(re.Events), len(b))
		}
		if back := re.Encode(); !bytes.Equal(back, b) {
			t.Fatalf("re-encoding differs: %x -> %x", b, back)
		}
	})
}

// TestDoLabelsTheGoroutine: inside Do the calling goroutine carries the
// stage and rank labels, as the goroutine profile prints them, and after it
// returns it carries none.
func TestDoLabelsTheGoroutine(t *testing.T) {
	const stage = "stage.test"
	labelsOf := func() string {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		// Goroutines are printed in blocks, one per stack; this test's own
		// block names labelsOf's caller.
		for _, block := range strings.Split(buf.String(), "\n\n") {
			if strings.Contains(block, "TestDoLabelsTheGoroutine") {
				for _, line := range strings.Split(block, "\n") {
					if l, ok := strings.CutPrefix(line, "# labels: "); ok {
						return l
					}
				}
				return ""
			}
		}
		t.Fatal("the goroutine profile does not list this test's goroutine")
		return ""
	}
	var inside string
	Do(stage, 3, func() { inside = labelsOf() })
	if want := `{"rank":"3", "stage":"stage.test"}`; inside != want {
		t.Errorf("labels inside Do: %s, want %s", inside, want)
	}
	if after := labelsOf(); after != "" {
		t.Errorf("labels after Do: %s, want none", after)
	}
}
