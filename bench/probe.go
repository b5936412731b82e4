package main

import (
	"sync"
	"time"
)

// probe times a fixed piece of work on 2 threads and returns the seconds it
// took. The layer ladder runs it before each rung and reports it as
// host.spin_*: how disturbed the host was. Nothing is scaled by it. Each
// thread runs a three-row DP sweep over freshly allocated rows with hash-map
// inserts, shaped like the program's own work, then a register-only
// shift-xor spin. It is the benchmark's own code, so no change to the program
// can move it.
func probe() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < ranks; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probeSink[g] = probeMixed(uint64(g)) + probeSpin(uint64(g))
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

var probeSink [ranks]int // keeps the compiler from dropping the work

func probeMixed(seed uint64) int {
	acc := 0
	counts := make(map[uint64]int32)
	x := seed*2654435761 + 1
	for it := 0; it < 40; it++ {
		const n = 4000
		a, b := make([]int, n+1), make([]int, n+1)
		for row := 0; row < 40; row++ {
			for i := 1; i <= n; i++ {
				v := a[i-1] + 1
				if b[i] > v {
					v = b[i]
				}
				if a[i]-1 > v {
					v = a[i] - 1
				}
				b[i] = v ^ (i & 3)
			}
			a, b = b, a
		}
		acc += a[n]
		for i := 0; i < 20000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			counts[x&0xfffff]++
		}
	}
	return acc + len(counts)
}

func probeSpin(seed uint64) int {
	x := seed + 88172645463325252
	var acc uint64
	for i := 0; i < 80_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x & 7
	}
	return int(acc)
}
