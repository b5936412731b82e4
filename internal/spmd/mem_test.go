package spmd

import (
	"errors"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// withProcs runs the test with GOMAXPROCS at least n, so a world of n
// ranks polls however many CPUs the host has.
func withProcs(t *testing.T, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// processCPU is the CPU time the process has used, user and system.
func processCPU(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestPollOnlyWithinGOMAXPROCS: a world polls when it has no more ranks
// than GOMAXPROCS and parks at once with one more.
func TestPollOnlyWithinGOMAXPROCS(t *testing.T) {
	withProcs(t, 2)
	procs := runtime.GOMAXPROCS(0)
	if !newMemWorld(procs).poll {
		t.Errorf("a world of GOMAXPROCS=%d ranks does not poll", procs)
	}
	if newMemWorld(procs + 1).poll {
		t.Errorf("a world of GOMAXPROCS+1=%d ranks polls", procs+1)
	}
}

// TestWaitPollIsBounded: a rank that waits 200 ms for a sleeping peer polls
// for pollBound and then parks, so the wait costs the process less CPU than
// the bound and 20 ms.
func TestWaitPollIsBounded(t *testing.T) {
	withProcs(t, 2)
	w := newMemWorld(2)
	if !w.poll {
		t.Fatal("a 2-rank world does not poll")
	}
	trs := memRanks(w)
	const sleep = 200 * time.Millisecond
	cpu0 := processCPU(t)
	onRanks(t, trs, func(tr Transport) error {
		if tr.Rank() == 1 {
			time.Sleep(sleep)
		}
		pe, err := postCells(tr, 0)
		if err != nil {
			return err
		}
		return checkCells(tr, 0, pe)
	})
	cpu := processCPU(t) - cpu0
	t.Logf("a %v wait cost %v of CPU", sleep, cpu)
	if cpu >= pollBound+20*time.Millisecond {
		t.Errorf("a %v wait cost %v of CPU, want under %v", sleep, cpu, pollBound+20*time.Millisecond)
	}
}

// TestAbortDuringPoll: an abort reaches ranks that are polling for their
// exchange, each returning ErrAborted within 10 ms.
func TestAbortDuringPoll(t *testing.T) {
	const p = 3
	withProcs(t, p)
	w := newMemWorld(p)
	trs := memRanks(w)
	type result struct {
		err error
		at  time.Time
	}
	posted := make(chan struct{}, p-1)
	done := make(chan result, p-1)
	for _, tr := range trs[:p-1] {
		go func() {
			pe, err := postCells(tr, 0)
			posted <- struct{}{}
			if err == nil {
				_, _, _, err = pe.wait()
			}
			done <- result{err, time.Now()}
		}()
	}
	for range p - 1 {
		<-posted
	}
	// Well inside pollBound: the waiters are polling, not parked.
	time.Sleep(pollBound / 10)
	aborted := time.Now()
	trs[p-1].Abort()
	for range p - 1 {
		select {
		case r := <-done:
			if !errors.Is(r.err, ErrAborted) {
				t.Errorf("a polling rank's wait returned %v, want ErrAborted", r.err)
			}
			if d := r.at.Sub(aborted); d > 10*time.Millisecond {
				t.Errorf("a polling rank returned %v after the abort, want within 10ms", d)
			}
		case <-time.After(time.Second):
			t.Fatal("a polling rank is still waiting 1 s after the abort")
		}
	}
}
