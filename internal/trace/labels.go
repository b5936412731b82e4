package trace

import (
	"context"
	"runtime/pprof"
	"strconv"
)

// Do runs fn under pprof.Do with two profiler labels: stage, a span name —
// the constant the stage's Begin and End carry — and rank. Each sample of a
// CPU profile then says which stage of which rank it was taken in
// (`go tool pprof -tagfocus stage=stage.overlap`); in an in-process world,
// whose ranks share one process and one profile, the rank label is the only
// way to split them. Goroutines fn starts inherit the labels. They are set
// once a call, not once an event, and change nothing fn computes.
func Do(stage string, rank int, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("stage", stage, "rank", strconv.Itoa(rank)),
		func(context.Context) { fn() })
}
