package spmd

import (
	"fmt"
	"strings"
	"testing"
)

// asyncTransposeProgram runs a pipelined sequence of non-blocking
// exchanges (two in flight, like the dht round loops) and checks every
// delivery, interleaved with blocking collectives between rounds' waits.
func asyncTransposeProgram(rounds int) func(*Comm) error {
	return func(c *Comm) error {
		p := c.Size()
		pack := func(round int) [][]int32 {
			send := make([][]int32, p)
			for dst := 0; dst < p; dst++ {
				n := (c.Rank()+dst+round)%3 + 1
				for k := 0; k < n; k++ {
					send[dst] = append(send[dst], int32(round*100000+c.Rank()*1000+dst*10+k))
				}
			}
			return send
		}
		check := func(round int, recv [][]int32) error {
			for src := 0; src < p; src++ {
				n := (src+c.Rank()+round)%3 + 1
				if len(recv[src]) != n {
					return fmt.Errorf("rank %d round %d: recv[%d] has %d items, want %d",
						c.Rank(), round, src, len(recv[src]), n)
				}
				for k, v := range recv[src] {
					if want := int32(round*100000 + src*1000 + c.Rank()*10 + k); v != want {
						return fmt.Errorf("rank %d round %d: recv[%d][%d] = %d, want %d",
							c.Rank(), round, src, k, v, want)
					}
				}
			}
			return nil
		}
		h := IAlltoallv(c, pack(0))
		for round := 0; round < rounds; round++ {
			var next *Handle[int32]
			if round+1 < rounds {
				next = IAlltoallv(c, pack(round+1))
			}
			recv := h.Wait()
			if err := check(round, recv); err != nil {
				return err
			}
			h = next
		}
		// The world must be clean for blocking collectives afterwards.
		if got := AllreduceI64(c, int64(c.Rank()), OpSum); got != int64(p*(p-1)/2) {
			return fmt.Errorf("rank %d: post-async allreduce got %d", c.Rank(), got)
		}
		return nil
	}
}

func TestIAlltoallvPipelinedMem(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		if err := Run(p, asyncTransposeProgram(5)); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestIAlltoallvPipelinedTCP(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		if err := runTCPWorld(t, p, nil, asyncTransposeProgram(5)); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// fixedModel prices every exchange at a constant cost so clock folding is
// easy to assert.
type fixedModel struct{ cost float64 }

func (m fixedModel) AlltoallvTime(int64, float64) float64 { return m.cost }
func (m fixedModel) CollectiveTime() float64              { return 0 }

// TestIAlltoallvOverlapClock checks the max(exchange, local) semantics:
// local compute ticked between post and wait hides exchange cost, and the
// hidden portion lands in Stats.OverlapVirtual.
func TestIAlltoallvOverlapClock(t *testing.T) {
	const cost = 10.0
	err := RunWithModel(2, fixedModel{cost: cost}, func(c *Comm) error {
		send := make([][]int32, 2)
		// Fully covered: 15s of local work against a 10s exchange.
		h := IAlltoallv(c, send)
		c.Tick(15)
		h.Wait()
		if got := c.Now(); got != 15 {
			return fmt.Errorf("covered exchange: clock %v, want 15", got)
		}
		if ov := c.Stats().OverlapVirtual; ov != cost {
			return fmt.Errorf("covered exchange: overlap %v, want %v", ov, cost)
		}
		// Partially covered: 4s of local work hides 4 of the 10 seconds.
		h = IAlltoallv(c, send)
		c.Tick(4)
		h.Wait()
		if got, want := c.Now(), 15+cost; got != want {
			return fmt.Errorf("partial overlap: clock %v, want %v", got, want)
		}
		if got, want := c.Stats().OverlapVirtual, cost+4; got != want {
			return fmt.Errorf("partial overlap: total overlap %v, want %v", got, want)
		}
		// Immediate wait degenerates to the blocking cost.
		h = IAlltoallv(c, send)
		h.Wait()
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

// TestBlockingCollectiveWithPendingHandlePanics checks the schedule guard:
// a blocking collective issued between post and Wait is a protocol error
// that must fail loudly, not deliver wrong data.
func TestBlockingCollectiveWithPendingHandlePanics(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		h := IAlltoallv(c, make([][]int32, 2))
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
		h1 := IAlltoallv(c, make([][]int32, 2))
		h2 := IAlltoallv(c, make([][]int32, 2))
		h2.Wait()
		h1.Wait()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "posting order") {
		t.Fatalf("expected out-of-order wait panic to surface, got %v", err)
	}
}
