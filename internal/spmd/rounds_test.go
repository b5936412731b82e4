package spmd

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// stamp is what element idx of the row rank src addresses to rank dst in
// global round g carries: every element of every round is distinguishable,
// so a row overwritten early, delivered late or read after its time shows.
func stamp(g, src, dst, idx int) uint64 {
	return uint64(g)<<40 | uint64(src)<<32 | uint64(dst)<<24 | uint64(idx)
}

// stampLen varies the row lengths, empty rows included, under a fixed
// ceiling so that a row sized once never regrows.
func stampLen(g, src, dst int) int { return (g*7 + src*3 + dst) % 41 }

const stampCap = 41

// wide is a 16-byte record, as dht's hash-pass occMsg is: the second pass
// packs it into the memory the first pass's 8-byte records used.
type wide struct{ A, B uint64 }

// ringPass runs one pass of rounds over bufs and checks, inside process,
// every element of every received row, and inside pack, that a set comes
// back with the memory it had 2·depth rounds earlier, overwritten. g0 is the
// global round the pass starts at, fit how many T one record of the widest
// pass holds, and rows where each row's memory starts, by set and
// destination.
func ringPass[T any](c *Comm, bufs *RoundBufs, depth, rounds, g0, fit int, slow bool,
	mk func(uint64) T, val func(T) uint64, rows map[[2]int]*byte) error {

	p, me := c.Size(), c.Rank()
	var failed error
	fail := func(format string, args ...any) {
		if failed == nil {
			failed = fmt.Errorf(format, args...)
		}
	}
	packed, processed := 0, 0
	pack := func(send [][]T) {
		g := g0 + packed
		packed++
		for dst := range send {
			key := [2]int{g % (2 * depth), dst}
			switch first := rows[key]; {
			case cap(send[dst]) == 0:
				if first != nil {
					fail("round %d: row for rank %d lost its memory", g, dst)
				}
				send[dst] = make([]T, 0, stampCap*fit)
				rows[key] = &castToBytes(send[dst][:1])[0]
			case first != &castToBytes(send[dst][:1])[0]:
				fail("round %d: row for rank %d is not the one its set had %d rounds ago", g, dst, 2*depth)
			default:
				for _, b := range castToBytes(send[dst][:cap(send[dst])]) {
					if b != 0xDB {
						fail("round %d: recycled row for rank %d was not overwritten", g, dst)
						break
					}
				}
			}
			if len(send[dst]) != 0 {
				fail("round %d: row for rank %d handed to pack with %d elements", g, dst, len(send[dst]))
			}
			for i := 0; i < stampLen(g, me, dst); i++ {
				send[dst] = append(send[dst], mk(stamp(g, me, dst, i)))
			}
		}
	}
	process := func(recv [][]T) {
		g := g0 + processed
		processed++
		if slow {
			time.Sleep(time.Millisecond) // the others run ahead as far as the window lets them
		}
		for src := 0; src < p; src++ {
			if n := stampLen(g, src, me); len(recv[src]) != n {
				fail("round %d: recv[%d] has %d elements, want %d", g, src, len(recv[src]), n)
				continue
			}
			for i, v := range recv[src] {
				if val(v) != stamp(g, src, me, i) {
					fail("round %d: recv[%d][%d] = %#x, want %#x", g, src, i, val(v), stamp(g, src, me, i))
					break
				}
			}
		}
	}
	Rounds(c, bufs, rounds, pack, process)
	if failed == nil && (packed != rounds || processed != rounds) {
		failed = fmt.Errorf("%d rounds packed, %d processed, want %d of each", packed, processed, rounds)
	}
	return failed
}

// TestRoundsRingReuse is the ring rule under load: two passes over one ring
// — 8-byte records, then 16-byte records in the same memory, as a build's
// are — each several times round it, with one rank slow to process so that
// its peers pack as far ahead of its reads as any schedule lets them. Every
// element is checked where it is consumed; with recycled rows poisoned and
// the race detector on, a set reused one round early fails both ways.
func TestRoundsRingReuse(t *testing.T) {
	const p = 3
	for _, b := range backends {
		for _, depth := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%s/depth=%d", b.name, depth), func(t *testing.T) {
				rounds := 5*depth + 3
				onRanks(t, b.form(t, p), func(tr Transport) error {
					return RunTransport(tr, nil, func(c *Comm) error {
						bufs := NewRoundBufs(depth)
						rows := map[[2]int]*byte{}
						slow := c.Rank() == 1
						err := ringPass(c, bufs, depth, rounds, 0, 2, slow,
							func(s uint64) uint64 { return s }, func(v uint64) uint64 { return v }, rows)
						if err != nil {
							return fmt.Errorf("pass 1: %w", err)
						}
						err = ringPass(c, bufs, depth, rounds, rounds, 1, slow,
							func(s uint64) wide { return wide{s, ^s} },
							func(v wide) uint64 {
								if v.B != ^v.A {
									return 0
								}
								return v.A
							}, rows)
						if err != nil {
							return fmt.Errorf("pass 2: %w", err)
						}
						if got, want := bufs.MemBytes(), int64(2*depth*p*stampCap*16); got < want {
							return fmt.Errorf("MemBytes %d, below the ring's %d", got, want)
						}
						return nil
					})
				})
			})
		}
	}
}

// TestRoundsSteadyStateAllocatesNothing: a pass pays for its ring, its
// handles and its headers once; a round after that allocates nothing on the
// in-process transport — not a handle, not a row header, not an exchange
// slot — so forty times the rounds cost the same objects.
func TestRoundsSteadyStateAllocatesNothing(t *testing.T) {
	mallocs := func(rounds int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Run(2, func(c *Comm) error {
			bufs := NewRoundBufs(2)
			n := 0
			Rounds(c, bufs, rounds, func(send [][]uint64) {
				for dst := range send {
					if cap(send[dst]) == 0 {
						send[dst] = make([]uint64, 0, 64)
					}
					send[dst] = append(send[dst], uint64(n))
				}
				n++
			}, func(recv [][]uint64) {})
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	mallocs(10) // warm: goroutine stacks, the first world's bookkeeping
	short, long := mallocs(10), mallocs(400)
	t.Logf("mallocs: %d for 10 rounds, %d for 400", short, long)
	if long > short+8 {
		t.Errorf("400 rounds took %d allocations against %d for 10: a round allocates", long, short)
	}
}
