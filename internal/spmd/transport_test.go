package spmd

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// The Transport conformance suite: what the typed layer relies on, checked
// against every backend from one table. A new backend (or a wrapper around
// one) joins by adding a row.

// backends is the conformance table: how a world of each backend forms.
var backends = []struct {
	name string
	form func(t *testing.T, p int) []Transport
}{
	{"mem", func(_ *testing.T, p int) []Transport {
		w := newMemWorld(p)
		trs := make([]Transport, p)
		for r := range trs {
			trs[r] = w.rank(r)
		}
		return trs
	}},
	{"tcp", func(t *testing.T, p int) []Transport { return formTCPWorld(t, p) }},
}

func TestTransportConformance(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			testTransport(t, func(p int) []Transport { return b.form(t, p) })
		})
	}
}

// TestTransportIsSealed pins what code outside this package can do with a
// Transport: name the rank and the world, abort it, close it. An exported
// exchange method would let it move bytes no Comm prices, and the
// unexported methods are what keep a Transport from being implemented, or
// wrapped, anywhere else.
func TestTransportIsSealed(t *testing.T) {
	var exported []string
	sealed := false
	rt := reflect.TypeFor[Transport]()
	for i := 0; i < rt.NumMethod(); i++ {
		if m := rt.Method(i); m.IsExported() {
			exported = append(exported, m.Name)
		} else {
			sealed = true
		}
	}
	slices.Sort(exported)
	if !slices.Equal(exported, []string{"Abort", "Close", "Rank", "Size"}) || !sealed {
		t.Errorf("Transport exports %v (sealed: %v), want exactly Abort, Close, Rank, Size behind unexported methods", exported, sealed)
	}
}

// onRanks runs fn concurrently on every rank's transport and reports each
// rank's error on the test.
func onRanks(t *testing.T, trs []Transport, fn func(tr Transport) error) {
	t.Helper()
	var wg sync.WaitGroup
	for _, tr := range trs {
		wg.Add(1)
		go func(tr Transport) {
			defer wg.Done()
			if err := fn(tr); err != nil {
				t.Errorf("rank %d: %v", tr.Rank(), err)
			}
		}(tr)
	}
	wg.Wait()
}

// cell is the payload rank src addresses to rank dst in exchange seq: nil
// on one diagonal, empty on another, otherwise a few identifying bytes
// (the own column included).
func cell(seq, src, dst int) []byte {
	switch (src + dst + seq) % 3 {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	return bytes.Repeat([]byte{byte(seq), byte(src), byte(dst)}, src+dst+1)
}

// postCells posts exchange seq's matrix row with rank-dependent clock and
// byte contributions, whose world maxima checkCells knows.
func postCells(tr Transport, seq int) (pendingExchange, error) {
	p, me := tr.Size(), tr.Rank()
	send := make([][]byte, p)
	for dst := range send {
		send[dst] = cell(seq, me, dst)
	}
	return tr.ialltoallv(send, float64(seq*100+me), float64(seq*1000+(p-me)))
}

func checkCells(tr Transport, seq int, pe pendingExchange) error {
	p, me := tr.Size(), tr.Rank()
	recv, maxClock, maxBytes, err := pe.wait()
	if err != nil {
		return fmt.Errorf("exchange %d: %w", seq, err)
	}
	if len(recv) != p {
		return fmt.Errorf("exchange %d: %d columns, want %d", seq, len(recv), p)
	}
	for src := range recv {
		if want := cell(seq, src, me); !bytes.Equal(recv[src], want) {
			return fmt.Errorf("exchange %d: recv[%d] = %v, want %v", seq, src, recv[src], want)
		}
	}
	if want := float64(seq*100 + p - 1); maxClock != want {
		return fmt.Errorf("exchange %d: maxClock %v, want %v", seq, maxClock, want)
	}
	if want := float64(seq*1000 + p); maxBytes != want {
		return fmt.Errorf("exchange %d: maxBytes %v, want %v", seq, maxBytes, want)
	}
	return nil
}

func testTransport(t *testing.T, form func(p int) []Transport) {
	closeAll := func(trs []Transport) {
		for _, tr := range trs {
			if err := tr.Close(); err != nil {
				t.Errorf("rank %d: Close: %v", tr.Rank(), err)
			}
		}
	}

	t.Run("delivery", func(t *testing.T) {
		for _, p := range []int{1, 2, 4} {
			trs := form(p)
			onRanks(t, trs, func(tr Transport) error {
				if tr.Size() != p {
					return fmt.Errorf("Size = %d, want %d", tr.Size(), p)
				}
				for seq := 0; seq < 3; seq++ { // post-then-wait: the blocking collective
					pe, err := postCells(tr, seq)
					if err != nil {
						return err
					}
					if err := checkCells(tr, seq, pe); err != nil {
						return err
					}
				}
				return nil
			})
			closeAll(trs)
		}
	})

	t.Run("posts ahead waited in order", func(t *testing.T) {
		trs := form(3)
		onRanks(t, trs, func(tr Transport) error {
			const ahead = MaxStreamDepth + 1 // the deepest window the typed layer opens
			var pes []pendingExchange
			for seq := 0; seq < ahead; seq++ {
				pe, err := postCells(tr, seq)
				if err != nil {
					return err
				}
				pes = append(pes, pe)
			}
			for seq, pe := range pes {
				if err := checkCells(tr, seq, pe); err != nil {
					return err
				}
			}
			return nil
		})
		closeAll(trs)
	})

	t.Run("abort", func(t *testing.T) {
		const p = 3
		trs := form(p)
		parked := make(chan struct{}, p)
		onRanks(t, trs, func(tr Transport) error {
			if tr.Rank() == p-1 {
				// This rank never posts, so its peers' Waits can only end
				// by the abort.
				for i := 0; i < p-1; i++ {
					<-parked
				}
				time.Sleep(20 * time.Millisecond) // let the posters reach Wait
				tr.Abort()
			} else {
				pe, err := postCells(tr, 0)
				if err != nil {
					return err
				}
				parked <- struct{}{}
				if _, _, _, err := pe.wait(); !errors.Is(err, ErrAborted) {
					return fmt.Errorf("parked Wait returned %v, want ErrAborted", err)
				}
			}
			tr.Abort() // idempotent on an already poisoned world
			if _, err := postCells(tr, 1); !errors.Is(err, ErrAborted) {
				return fmt.Errorf("post after abort returned %v, want ErrAborted", err)
			}
			return nil
		})
		closeAll(trs)
	})

	// The typed layer's contract is one rule on every backend: a value or
	// row element with pointers is refused before anything is posted, with
	// the same message naming the type.
	t.Run("pointered T panics", func(t *testing.T) {
		type pointered struct{ Names []string }
		for want, collective := range map[string]func(c *Comm){
			"allgather of string: not a pointer-free value":           func(c *Comm) { Allgather(c, "s") },
			"allgather of []string: not a pointer-free value":         func(c *Comm) { Bcast(c, []string{"s"}, 0) },
			"allgather of spmd.pointered: not a pointer-free value":   func(c *Comm) { Allgather(c, pointered{}) },
			"alltoallv element type string contains pointers":         func(c *Comm) { Alltoallv(c, make([][]string, c.Size())) },
			"alltoallv element type spmd.pointered contains pointers": func(c *Comm) { GatherTo(c, []pointered{{}}, 0) },
		} {
			trs := form(2)
			onRanks(t, trs, func(tr Transport) error {
				err := RunTransport(tr, nil, func(c *Comm) error { collective(c); return nil })
				if err == nil || !strings.Contains(err.Error(), want) {
					return fmt.Errorf("got %v, want a panic saying %q", err, want)
				}
				return nil
			})
		}
	})

	t.Run("close after last wait", func(t *testing.T) {
		const p = 4
		trs := form(p)
		big := func(src, dst int) []byte { return bytes.Repeat([]byte{byte(src), byte(dst)}, 256<<10) }
		onRanks(t, trs, func(tr Transport) error {
			me := tr.Rank()
			send := make([][]byte, p)
			for dst := range send {
				send[dst] = big(me, dst)
			}
			pe, err := tr.ialltoallv(send, 0, 0)
			if err != nil {
				return err
			}
			// Stagger the waits so early ranks close while late ones are
			// still reading what those ranks sent them.
			time.Sleep(time.Duration(me) * 5 * time.Millisecond)
			recv, _, _, err := pe.wait()
			if err != nil {
				return err
			}
			for src := range recv {
				if !bytes.Equal(recv[src], big(src, me)) {
					return fmt.Errorf("recv[%d]: %d bytes, corrupt or short", src, len(recv[src]))
				}
			}
			return tr.Close()
		})
	})
}

// scriptModel prices every rule differently, and by call index and bytes,
// so a rule applied at the wrong place shows up in the clock.
type scriptModel struct{}

func (scriptModel) AlltoallvTime(callIdx int64, maxBytes float64) float64 {
	return 1 + 0.125*float64(callIdx) + maxBytes/1024
}
func (scriptModel) CollectiveTime() float64 { return 0.25 }
func (scriptModel) IPostTime() float64      { return 0.0625 }
func (scriptModel) ChunkPostTime() float64  { return 0.03125 }
func (scriptModel) StreamChunkTime(callIdx int64, maxBytes float64) float64 {
	return 0.5 + maxBytes/4096
}

// scriptRow is a pointer-free struct row element, as pipeline.Alignment is.
type scriptRow struct {
	A, B  uint32
	Score int
}

// TestCollectivesAccountIdenticallyAcrossTransports runs one script of
// every collective under a fixed model on both backends: the modeled
// accounting is a property of the typed layer, so Stats and the final
// clock must agree bit-for-bit, and nothing blocking may claim overlap.
func TestCollectivesAccountIdenticallyAcrossTransports(t *testing.T) {
	const p = 3
	type account struct {
		Alltoallvs, Collectives, BytesSent int64
		ExchangeVirtual, OverlapVirtual    uint64 // IEEE-754 bits
		Clock                              uint64
	}
	script := func(out []account) func(*Comm) error {
		return func(c *Comm) error {
			me := c.Rank()
			c.Tick(float64(me) / 8)
			c.Barrier()
			rows := make([][]uint64, p)
			for dst := range rows {
				rows[dst] = make([]uint64, me+dst+1)
			}
			Alltoallv(c, rows)
			Alltoall(c, []int32{1, 2, 3})
			packed := make([]PackedBufs, p)
			for dst := range packed {
				packed[dst].AppendItem(bytes.Repeat([]byte{byte(me)}, 700*(dst+1)))
				packed[dst].AppendItem(nil)
			}
			AlltoallvPacked(c, packed)
			Allgather(c, int64(me))
			for r, row := range Allgather(c, []byte(fmt.Sprintf("rank-%d", me))) {
				if string(row) != fmt.Sprintf("rank-%d", r) {
					return fmt.Errorf("byte-row gather: row %d = %q", r, row)
				}
			}
			if row := Bcast(c, make([]int, me), 1); len(row) != 1 {
				return fmt.Errorf("row Bcast from rank 1: %d elements", len(row))
			}
			AllreduceI64(c, int64(me), OpSum)
			AllreduceF64(c, float64(me), OpMax)
			ExclusiveScanI64(c, 5)
			if _, ok := AgreeCommit(c, CommitVote{OK: true, Digest: uint64(me)}); !ok {
				return errors.New("unanimous commit vetoed")
			}
			GatherTo(c, make([]scriptRow, me+1), 0)
			if st := c.Stats(); st.OverlapVirtual != 0 || st.OverlapWall != 0 {
				return fmt.Errorf("blocking collectives credited overlap: virtual %v, wall %v",
					st.OverlapVirtual, st.OverlapWall)
			}
			h := ialltoallv(c, rows)
			c.Tick(0.75 + float64(me)/16)
			h.Wait()
			IAlltoallvStreamed(c, packed, StreamOpts{ChunkBytes: 512, Depth: 2},
				func(d StreamDelivery) { c.Tick(0.125 * float64(len(d.Items))) })
			st := c.Stats()
			if st.OverlapVirtual <= 0 {
				return errors.New("compute under a posted exchange hid nothing")
			}
			out[me] = account{
				st.Alltoallvs, st.Collectives, st.BytesSent,
				math.Float64bits(st.ExchangeVirtual), math.Float64bits(st.OverlapVirtual),
				math.Float64bits(c.Now()),
			}
			return nil
		}
	}
	mem := make([]account, p)
	if err := RunWithModel(p, scriptModel{}, script(mem)); err != nil {
		t.Fatalf("mem: %v", err)
	}
	tcp := make([]account, p)
	if err := runTCPWorld(t, p, scriptModel{}, script(tcp)); err != nil {
		t.Fatalf("tcp: %v", err)
	}
	for r := range mem {
		if mem[r] != tcp[r] {
			t.Errorf("rank %d accounts differ:\n mem %+v\n tcp %+v", r, mem[r], tcp[r])
		}
	}
	// 1 barrier + 7 gathers; the stream's header is an Alltoallv.
	if mem[0].Collectives != 8 {
		t.Errorf("Collectives = %d, want 8", mem[0].Collectives)
	}
}
