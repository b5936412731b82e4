// Package walltime is the one sanctioned wall-clock read for the
// output-affecting packages (dht, overlap, olgraph, paf, pipeline, ckpt).
//
// The house invariant is byte-identical PAF across transports,
// schedules, world sizes, and resume paths; a raw time.Now in those
// packages is one refactor away from leaking a timestamp into output or
// a checkpoint digest, so dibella-lint's detmap analyzer bans it there.
// Wall-clock performance accounting is still wanted — it fills the
// *Wall fields of the stage reports — and this package provides exactly
// that and nothing more: Point is opaque, so an absolute timestamp
// cannot be compared, formatted, or serialized; only durations escape.
// The one absolute instant it hands out is a socket deadline (Deadline),
// which net.Conn accepts in no other form.
package walltime

import "time"

// Point is an opaque instant captured by Now. Its only use is as the
// argument to Since.
type Point struct {
	t time.Time
}

// Now captures the current instant.
func Now() Point { return Point{t: time.Now()} }

// Since returns the wall time elapsed since p was captured.
func Since(p Point) time.Duration { return time.Since(p.t) }

// Deadline returns the instant d from now, for a net.Conn's SetDeadline
// or SetReadDeadline. A deadline bounds I/O and never reaches output.
func Deadline(d time.Duration) time.Time { return time.Now().Add(d) }

// origin anchors Monotonic. It is deliberately unexported: trace
// timestamps are durations against a process-local instant, so an
// absolute epoch still cannot leak into output.
var origin = time.Now()

// Monotonic returns the wall time elapsed since process start (more
// precisely, since this package was initialized). It is the timestamp
// source for the flight recorder: comparable within one process's
// trace, meaningless across processes.
func Monotonic() time.Duration { return time.Since(origin) }
