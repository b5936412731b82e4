package spmd

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// roundsTransposeProgram runs a pass of exchange rounds through Rounds at
// the given window depth and checks every delivery, how far pack runs
// ahead of process, and that the world is left idle.
func roundsTransposeProgram(rounds, depth int) func(*Comm) error {
	return func(c *Comm) error {
		p := c.Size()
		packed, processed := 0, 0
		var failed error
		fail := func(format string, args ...any) {
			if failed == nil {
				failed = fmt.Errorf(format, args...)
			}
		}
		pack := func(send [][]int32) {
			round := packed
			packed++
			for dst := 0; dst < p; dst++ {
				n := (c.Rank()+dst+round)%3 + 1
				for k := 0; k < n; k++ {
					send[dst] = append(send[dst], int32(round*100000+c.Rank()*1000+dst*10+k))
				}
			}
		}
		process := func(recv [][]int32) {
			round := processed
			processed++
			// The window: depth exchanges in flight while the pass has that
			// many left, one (the blocking schedule) when it cannot pipeline.
			inFlight := 1
			if rounds >= 2 && depth >= 2 {
				inFlight = min(rounds-round, depth)
			}
			if packed-round != inFlight {
				fail("round %d: %d exchanges in flight, want %d", round, packed-round, inFlight)
			}
			for src := 0; src < p; src++ {
				n := (src+c.Rank()+round)%3 + 1
				if len(recv[src]) != n {
					fail("round %d: recv[%d] has %d items, want %d", round, src, len(recv[src]), n)
				}
				for k, v := range recv[src] {
					if want := int32(round*100000 + src*1000 + c.Rank()*10 + k); v != want {
						fail("round %d: recv[%d][%d] = %d, want %d", round, src, k, v, want)
					}
				}
			}
		}
		Rounds(c, NewRoundBufs(depth), rounds, pack, process)
		if failed != nil {
			return failed
		}
		if packed != rounds || processed != rounds {
			return fmt.Errorf("%d rounds packed, %d processed, want %d of each", packed, processed, rounds)
		}
		// The world must be clean for blocking collectives afterwards.
		if got := AllreduceI64(c, int64(c.Rank()), OpSum); got != int64(p*(p-1)/2) {
			return fmt.Errorf("post-async allreduce got %d", got)
		}
		return nil
	}
}

// roundsShapes are (rounds, depth) pairs on both sides of every branch in
// Rounds: no rounds, one round, the blocking window, post-one-ahead, and
// windows deeper than the pass is long.
var roundsShapes = [][2]int{{0, 2}, {1, 2}, {5, 1}, {5, 2}, {5, 3}, {2, 8}, {5, 8}}

func TestIAlltoallvPipelinedMem(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, s := range roundsShapes {
			if err := Run(p, roundsTransposeProgram(s[0], s[1])); err != nil {
				t.Fatalf("p=%d rounds=%d depth=%d: %v", p, s[0], s[1], err)
			}
		}
	}
}

func TestIAlltoallvPipelinedTCP(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, s := range roundsShapes {
			if err := runTCPWorld(t, p, nil, roundsTransposeProgram(s[0], s[1])); err != nil {
				t.Fatalf("p=%d rounds=%d depth=%d: %v", p, s[0], s[1], err)
			}
		}
	}
}

// fixedModel prices every exchange at a constant cost, and posting at
// nothing, so clock folding is easy to assert.
type fixedModel struct{ cost float64 }

func (m fixedModel) AlltoallvTime(int64, float64) float64   { return m.cost }
func (m fixedModel) StreamChunkTime(int64, float64) float64 { return m.cost }
func (m fixedModel) CollectiveTime() float64                { return 0 }
func (m fixedModel) IPostTime() float64                     { return 0 }
func (m fixedModel) ChunkPostTime() float64                 { return 0 }

// TestIAlltoallvOverlapClock checks the max(exchange, local) semantics:
// local compute ticked between post and wait hides exchange cost, and the
// hidden portion lands in Stats.OverlapVirtual.
func TestIAlltoallvOverlapClock(t *testing.T) {
	const cost = 10.0
	err := RunWithModel(2, fixedModel{cost: cost}, func(c *Comm) error {
		send := make([][]int32, 2)
		// Fully covered: 15s of local work against a 10s exchange.
		AlltoallvDuring(c, send, func() { c.Tick(15) })
		if got := c.Now(); got != 15 {
			return fmt.Errorf("covered exchange: clock %v, want 15", got)
		}
		if ov := c.Stats().OverlapVirtual; ov != cost {
			return fmt.Errorf("covered exchange: overlap %v, want %v", ov, cost)
		}
		// Partially covered: 4s of local work hides 4 of the 10 seconds.
		AlltoallvDuring(c, send, func() { c.Tick(4) })
		if got, want := c.Now(), 15+cost; got != want {
			return fmt.Errorf("partial overlap: clock %v, want %v", got, want)
		}
		if got, want := c.Stats().OverlapVirtual, cost+4; got != want {
			return fmt.Errorf("partial overlap: total overlap %v, want %v", got, want)
		}
		// Immediate wait degenerates to the blocking cost.
		AlltoallvDuring(c, send, func() {})
		if got, want := c.Now(), 15+2*cost; got != want {
			return fmt.Errorf("immediate wait: clock %v, want %v", got, want)
		}
		if got, want := c.Stats().ExchangeVirtual, 3*cost; got != want {
			return fmt.Errorf("exchange virtual %v, want %v", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// postingModel adds a posting cost to fixedModel, so a posted exchange and
// a blocking one price differently.
type postingModel struct{ fixedModel }

func (postingModel) IPostTime() float64 { return 1 }

// TestRoundsPricing pins which schedule Rounds runs: a window below two or
// a pass under two rounds is blocking Alltoallv — no posting cost, nothing
// hidden — and anything else posts every round and hides what process
// ticks under the next round's flight.
func TestRoundsPricing(t *testing.T) {
	const cost = 10.0
	for _, tc := range []struct {
		rounds, depth           int
		clock, exchange, hidden float64
	}{
		{rounds: 3, depth: 1, clock: 3 * (cost + 4), exchange: 3 * cost},
		{rounds: 1, depth: 4, clock: cost + 4, exchange: cost},
		// Posts cost 1 each. Round 0 is posted at 0 and waited at 2 (2 of
		// its 10 hidden, clock 10, process to 14); round 1, posted at 1, is
		// long done when waited at 15 (all 10 hidden, process to 19); round
		// 2, posted at 14, completes at 24 (5 hidden, process to 28).
		{rounds: 3, depth: 2, clock: 28, exchange: 3 * (cost + 1), hidden: 2 + 10 + 5},
	} {
		err := RunWithModel(2, postingModel{fixedModel{cost: cost}}, func(c *Comm) error {
			Rounds(c, NewRoundBufs(tc.depth), tc.rounds,
				func([][]int32) {},
				func([][]int32) { c.Tick(4) })
			st := c.Stats()
			if c.Now() != tc.clock || st.ExchangeVirtual != tc.exchange || st.OverlapVirtual != tc.hidden {
				return fmt.Errorf("clock %v exchange %v hidden %v, want %v %v %v",
					c.Now(), st.ExchangeVirtual, st.OverlapVirtual, tc.clock, tc.exchange, tc.hidden)
			}
			return nil
		})
		if err != nil {
			t.Errorf("rounds=%d depth=%d: %v", tc.rounds, tc.depth, err)
		}
	}
}

// TestBlockingCollectiveWithPendingHandlePanics checks the schedule guard:
// a blocking collective issued between post and Wait is a protocol error
// that must fail loudly, not deliver wrong data.
func TestBlockingCollectiveWithPendingHandlePanics(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		h := ialltoallv(c, make([][]int32, 2))
		defer h.Wait()
		c.Barrier() // must panic: exchange pending
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "pending") {
		t.Fatalf("expected pending-handle panic to surface, got %v", err)
	}
}

// TestWaitOutOfOrderPanics checks that handles must be waited FIFO.
func TestWaitOutOfOrderPanics(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		h1 := ialltoallv(c, make([][]int32, 2))
		h2 := ialltoallv(c, make([][]int32, 2))
		h2.Wait()
		h1.Wait()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "posting order") {
		t.Fatalf("expected out-of-order wait panic to surface, got %v", err)
	}
}

// TestWaitTwicePanics checks that a handle completes once.
func TestWaitTwicePanics(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		h := ialltoallv(c, make([][]int32, 2))
		h.Wait()
		h.Wait()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "waited twice") {
		t.Fatalf("expected double-wait panic to surface, got %v", err)
	}
}

// onBothTransports runs fn on a p-rank world of each backend and hands
// the world's error to check.
func onBothTransports(t *testing.T, p int, fn func(*Comm) error, check func(t *testing.T, err error)) {
	t.Run("mem", func(t *testing.T) { check(t, Run(p, fn)) })
	t.Run("tcp", func(t *testing.T) { check(t, runTCPWorld(t, p, nil, fn)) })
}

// TestReturnWithPendingExchangeFails checks the end-of-function rule: a
// rank that returns nil still holding a posted exchange fails the run by
// name even though no blocking collective follows to trip requireIdle.
func TestReturnWithPendingExchangeFails(t *testing.T) {
	onBothTransports(t, 2, func(c *Comm) error {
		ialltoallv(c, make([][]int32, 2))
		ialltoallv(c, make([][]int32, 2))
		return nil
	}, func(t *testing.T, err error) {
		if err == nil || !strings.Contains(err.Error(), "returned with 2 non-blocking exchange(s) pending") ||
			!strings.Contains(err.Error(), "rank ") {
			t.Fatalf("expected the pending-at-return error naming the rank and the count, got %v", err)
		}
	})
}

// closureShapes runs body inside each closure the two primitives call
// with an exchange in flight.
var closureShapes = []struct {
	name string
	run  func(c *Comm, body func())
}{
	{"during", func(c *Comm, body func()) {
		AlltoallvDuring(c, make([][]int32, c.Size()), body)
	}},
	{"process", func(c *Comm, body func()) {
		Rounds(c, NewRoundBufs(2), 4, func([][]int32) {},
			func([][]int32) { body() })
	}},
}

// TestCollectiveInsideClosurePanics checks that the closures are held to
// the ordering contract: an exchange is in flight while they run, so a
// blocking collective inside one is the schedule error requireIdle names.
func TestCollectiveInsideClosurePanics(t *testing.T) {
	const want = "issued blocking allgather with 1 non-blocking exchange(s) pending"
	for _, shape := range closureShapes {
		t.Run(shape.name, func(t *testing.T) {
			onBothTransports(t, 2, func(c *Comm) error {
				shape.run(c, func() { Allgather(c, c.Rank()) })
				return nil
			}, func(t *testing.T, err error) {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("expected %q, got %v", want, err)
				}
			})
		})
	}
}

// TestPanicInsideClosureAbortsWorld checks that one rank's panic inside
// process or during, with its peers parked in the matching waits, unwinds
// every rank and surfaces as that rank's panic — not as the ErrAborted the
// others see, and not as its own pending-exchange count.
func TestPanicInsideClosureAbortsWorld(t *testing.T) {
	for _, shape := range closureShapes {
		t.Run(shape.name, func(t *testing.T) {
			onBothTransports(t, 3, func(c *Comm) error {
				shape.run(c, func() {
					if c.Rank() == 1 {
						panic("boom")
					}
				})
				return nil
			}, func(t *testing.T, err error) {
				if err == nil || errors.Is(err, ErrAborted) ||
					!strings.Contains(err.Error(), "rank 1 panicked: boom") {
					t.Fatalf("expected rank 1's panic, got %v", err)
				}
			})
		})
	}
}
