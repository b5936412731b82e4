package spmd

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunBasics(t *testing.T) {
	var count int64
	err := Run(8, func(c *Comm) error {
		if c.Size() != 8 {
			t.Errorf("Size = %d", c.Size())
		}
		atomic.AddInt64(&count, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 8 {
		t.Errorf("ran %d ranks", count)
	}
}

func TestRunRejectsBadSize(t *testing.T) {
	if err := Run(0, func(*Comm) error { return nil }); err == nil {
		t.Error("expected error for size 0")
	}
}

func TestAlltoallvTranspose(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		err := Run(p, func(c *Comm) error {
			send := make([][]int, p)
			for dst := 0; dst < p; dst++ {
				// Unique payload per (src,dst), variable length.
				n := (c.Rank()+dst)%3 + 1
				for k := 0; k < n; k++ {
					send[dst] = append(send[dst], c.Rank()*1000+dst*10+k)
				}
			}
			recv := Alltoallv(c, send)
			for src := 0; src < p; src++ {
				n := (src+c.Rank())%3 + 1
				if len(recv[src]) != n {
					return fmt.Errorf("rank %d: recv[%d] has %d items, want %d",
						c.Rank(), src, len(recv[src]), n)
				}
				for k, v := range recv[src] {
					want := src*1000 + c.Rank()*10 + k
					if v != want {
						return fmt.Errorf("rank %d: recv[%d][%d] = %d, want %d",
							c.Rank(), src, k, v, want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAlltoallvEmptyAndNil(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		send := make([][]byte, 4) // all nil
		recv := Alltoallv(c, send)
		for i, r := range recv {
			if len(r) != 0 {
				return fmt.Errorf("recv[%d] = %v, want empty", i, r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: repeated random exchanges always deliver the transpose.
func TestAlltoallvRandomized(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw)%6 + 1
		// Build the full matrix up front so every rank can verify.
		rng := rand.New(rand.NewSource(seed))
		mat := make([][][]uint32, p)
		for i := range mat {
			mat[i] = make([][]uint32, p)
			for j := range mat[i] {
				n := rng.Intn(5)
				for k := 0; k < n; k++ {
					mat[i][j] = append(mat[i][j], rng.Uint32())
				}
			}
		}
		ok := true
		err := Run(p, func(c *Comm) error {
			recv := Alltoallv(c, mat[c.Rank()])
			for src := 0; src < p; src++ {
				want := mat[src][c.Rank()]
				if len(recv[src]) != len(want) {
					return errors.New("length mismatch")
				}
				for k := range want {
					if recv[src][k] != want[k] {
						return errors.New("value mismatch")
					}
				}
			}
			return nil
		})
		if err != nil {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAlltoall(t *testing.T) {
	const p = 5
	err := Run(p, func(c *Comm) error {
		send := make([]int, p)
		for dst := range send {
			send[dst] = c.Rank()*100 + dst
		}
		recv := Alltoall(c, send)
		for src, v := range recv {
			if v != src*100+c.Rank() {
				return fmt.Errorf("recv[%d] = %d", src, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduce(t *testing.T) {
	const p = 7
	err := Run(p, func(c *Comm) error {
		r := int64(c.Rank())
		if got := AllreduceI64(c, r, OpSum); got != p*(p-1)/2 {
			return fmt.Errorf("sum = %d", got)
		}
		if got := AllreduceI64(c, r, OpMax); got != p-1 {
			return fmt.Errorf("max = %d", got)
		}
		if got := AllreduceI64(c, r, OpMin); got != 0 {
			return fmt.Errorf("min = %d", got)
		}
		if got := AllreduceF64(c, float64(c.Rank()), OpSum); got != float64(p*(p-1)/2) {
			return fmt.Errorf("fsum = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherBcastScan(t *testing.T) {
	const p = 6
	err := Run(p, func(c *Comm) error {
		got := Allgather(c, c.Rank()*2)
		for i, v := range got {
			if v != i*2 {
				return fmt.Errorf("Allgather[%d] = %d", i, v)
			}
		}
		if v := Bcast(c, c.Rank()+50, 3); v != 53 {
			return fmt.Errorf("Bcast = %d", v)
		}
		scan := ExclusiveScanI64(c, 10)
		if scan != int64(c.Rank()*10) {
			return fmt.Errorf("scan = %d", scan)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrorUnblocksWorld(t *testing.T) {
	// Rank 2 fails before the collective; the others must not deadlock.
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return errors.New("boom")
		}
		AllreduceI64(c, 1, OpSum) // would deadlock without poisoning
		return nil
	})
	if err == nil || err.Error() != "spmd: rank 2: boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestPanicUnblocksWorld(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("kaput")
		}
		c.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestBarrierOrdering(t *testing.T) {
	// After a barrier, every rank must observe all pre-barrier writes.
	const p = 8
	shared := make([]int, p)
	err := Run(p, func(c *Comm) error {
		shared[c.Rank()] = c.Rank() + 1
		c.Barrier()
		for i, v := range shared {
			if v != i+1 {
				return fmt.Errorf("rank %d saw shared[%d] = %d", c.Rank(), i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fakeModel charges fixed costs so virtual-clock arithmetic is checkable:
// posting is free and a chunk round costs what a full exchange does.
type fakeModel struct{}

func (fakeModel) AlltoallvTime(callIdx int64, maxBytes float64) float64 {
	base := 1.0
	if callIdx == 0 {
		base = 2.0 // first-call penalty
	}
	return base + maxBytes/1000
}
func (m fakeModel) StreamChunkTime(callIdx int64, maxBytes float64) float64 {
	return m.AlltoallvTime(callIdx, maxBytes)
}
func (fakeModel) CollectiveTime() float64 { return 0.5 }
func (fakeModel) IPostTime() float64      { return 0 }
func (fakeModel) ChunkPostTime() float64  { return 0 }

func TestVirtualClockSynchronization(t *testing.T) {
	const p = 4
	err := RunWithModel(p, fakeModel{}, func(c *Comm) error {
		// Unequal local work.
		c.Tick(float64(c.Rank()))
		c.Barrier()
		// BSP: all clocks advance to max (3.0) plus collective cost 0.5.
		if c.Now() != 3.5 {
			return fmt.Errorf("rank %d clock = %v, want 3.5", c.Rank(), c.Now())
		}
		// First alltoallv: every rank sends 1000 bytes total (125 x8 ranks
		//... just check the busiest-rank accounting with unequal sizes).
		send := make([][]byte, p)
		send[(c.Rank()+1)%p] = make([]byte, 100*(c.Rank()+1)) // busiest rank sends 400
		recv := Alltoallv(c, send)
		_ = recv
		// cost = 2.0 (first call) + 400/1000
		want := 3.5 + 2.0 + 0.4
		if diff := c.Now() - want; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("rank %d clock = %v, want %v", c.Rank(), c.Now(), want)
		}
		// Second alltoallv is cheaper (no first-call penalty).
		Alltoallv(c, make([][]byte, p))
		want += 1.0
		if diff := c.Now() - want; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("rank %d clock after 2nd = %v, want %v", c.Rank(), c.Now(), want)
		}
		st := c.Stats()
		if st.Alltoallvs != 2 || st.Collectives != 1 {
			return fmt.Errorf("stats = %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTickNegativePanics(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		defer func() {
			if recover() == nil {
				t.Error("negative Tick did not panic")
			}
		}()
		c.Tick(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPackedBufsRoundTrip(t *testing.T) {
	var p PackedBufs
	items := [][]byte{[]byte("AC"), {}, []byte("GGTT")}
	for _, it := range items {
		p.AppendItem(it)
	}
	got := p.Items()
	if len(got) != 3 || string(got[0]) != "AC" || len(got[1]) != 0 || string(got[2]) != "GGTT" {
		t.Errorf("Items = %q", got)
	}
}

func TestAlltoallvPacked(t *testing.T) {
	const p = 3
	err := Run(p, func(c *Comm) error {
		send := make([]PackedBufs, p)
		for dst := 0; dst < p; dst++ {
			send[dst].AppendItem([]byte(fmt.Sprintf("from%d-to%d", c.Rank(), dst)))
			send[dst].AppendItem([]byte{byte(c.Rank()), byte(dst)})
		}
		recv := AlltoallvPacked(c, send)
		for src := 0; src < p; src++ {
			items := recv[src].Items()
			if len(items) != 2 {
				return fmt.Errorf("recv[%d]: %d items", src, len(items))
			}
			want := fmt.Sprintf("from%d-to%d", src, c.Rank())
			if string(items[0]) != want {
				return fmt.Errorf("recv[%d][0] = %q, want %q", src, items[0], want)
			}
			if items[1][0] != byte(src) || items[1][1] != byte(c.Rank()) {
				return fmt.Errorf("recv[%d][1] = %v", src, items[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsBytesSent(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		send := [][]uint64{make([]uint64, 10), make([]uint64, 5)}
		Alltoallv(c, send)
		if got := c.Stats().BytesSent; got != 15*8 {
			return fmt.Errorf("BytesSent = %d, want 120", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWorldsAreIsolated(t *testing.T) {
	// Two worlds running simultaneously must not interfere: distinct
	// exchange matrices and barriers.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(world int) {
			defer wg.Done()
			errs[world] = Run(4, func(c *Comm) error {
				for iter := 0; iter < 50; iter++ {
					v := AllreduceI64(c, int64(world*100+c.Rank()), OpSum)
					want := int64(world*400 + 6) // 4*world*100 + 0+1+2+3
					if v != want {
						return fmt.Errorf("world %d iter %d: sum %d, want %d",
							world, iter, v, want)
					}
				}
				return nil
			})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("world %d: %v", w, err)
		}
	}
}

func TestManyRanksSmoke(t *testing.T) {
	// The figure harness runs hundreds of ranks; verify the world scales.
	const p = 128
	err := Run(p, func(c *Comm) error {
		v := AllreduceI64(c, 1, OpSum)
		if v != p {
			return fmt.Errorf("sum = %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAlltoallv16(b *testing.B) {
	const p = 16
	payload := make([]byte, 1024)
	b.ResetTimer()
	err := Run(p, func(c *Comm) error {
		send := make([][]byte, p)
		for i := range send {
			send[i] = payload
		}
		for i := 0; i < b.N; i++ {
			Alltoallv(c, send)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBarrier8(b *testing.B) {
	err := Run(8, func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
