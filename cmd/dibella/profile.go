package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// profiles is -cpuprofile and -memprofile: this process's CPU profile from
// the start of the run body to exit, and its allocation profile at exit, in
// the formats `go tool pprof` reads (as `go test -cpuprofile/-memprofile`
// write them).
type profiles struct {
	cpu     *os.File
	memPath string
}

// prof is the process's one profiler; fatal stops it on the way out, since
// os.Exit runs no deferred call.
var prof profiles

// start begins the CPU profile and fixes the file names. suffix tells the
// processes of one TCP world apart (".rank2"): their command lines are
// identical, so without it they would all write the same file. Goroutine
// ranks share a process and its profile, and pass "". Like stop, it reports
// a file it cannot write and lets the run go on: a profile is an
// observation, and one rank failing to open its own must not take a formed
// world down.
func (p *profiles) start(params *runParams, suffix string) {
	if params.MemProfile != "" {
		p.memPath = params.MemProfile + suffix
	}
	if params.CPUProfile == "" {
		return
	}
	f, err := os.Create(params.CPUProfile + suffix)
	if err == nil {
		if err = pprof.StartCPUProfile(f); err == nil {
			p.cpu = f
			return
		}
		f.Close()
	}
	fmt.Fprintln(os.Stderr, "dibella: -cpuprofile:", err)
}

// stop ends the CPU profile and writes the allocation profile. A second
// call, or one before start, does nothing.
func (p *profiles) stop() {
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dibella: -cpuprofile:", err)
		}
		p.cpu = nil
	}
	if p.memPath == "" {
		return
	}
	path := p.memPath
	p.memPath = ""
	f, err := os.Create(path)
	if err == nil {
		runtime.GC() // the profile lags allocation by a collection cycle
		err = pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dibella: -memprofile:", err)
	}
}
