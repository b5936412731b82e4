package align

import (
	"math/rand"
	"syscall"
	"testing"
)

// guardPaged copies b into fresh pages flush against a PROT_NONE page: the
// page after its last byte, or (before) the page before its first. A kernel
// that reads one byte past that end faults at once. The pages are unmapped
// when tb's test ends.
func guardPaged(tb testing.TB, b []byte, before bool) []byte {
	tb.Helper()
	ps := syscall.Getpagesize()
	body := (len(b) + ps - 1) / ps * ps
	mem, err := syscall.Mmap(-1, 0, body+ps, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		tb.Fatalf("mmap: %v", err)
	}
	tb.Cleanup(func() { syscall.Munmap(mem) })
	guard, at := mem[body:], body-len(b)
	if before {
		guard, at = mem[:ps], ps
	}
	if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
		tb.Fatalf("mprotect: %v", err)
	}
	out := mem[at : at+len(b) : at+len(b)]
	copy(out, b)
	return out
}

// Neither kernel reads a base outside the caller's reads: s and t lie flush
// against a page that faults, before them or after them, with seeds at every
// position within k+16 of either end and flanks similar enough to run to
// both ends of both reads, so every window at an edge, with the lanes past
// it, is met on both flanks. Each result is the reference's, on XDrop and on
// XDropBatch, at the pipeline's x and the bench's.
func TestXDropReadsStayInsideTheReads(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, k := range []int{4, 17} {
		tmpl := randomSeq(rng, 90)
		s, u := mutate(rng, tmpl, 0.02), mutate(rng, tmpl, 0.02)
		near := func(l int) (pos []int) { // every seed position within k+16 of either end
			for p := 0; p <= k+16 && p <= l-k; p++ {
				pos = append(pos, p, l-k-p)
			}
			return pos
		}
		var seeds []Seed
		for _, ps := range near(len(s)) {
			for _, pt := range near(len(u)) {
				seeds = append(seeds, Seed{PosS: ps, PosT: pt})
			}
		}
		for _, x := range []int{7, 30} {
			want := make([]Result, len(seeds))
			for i, sd := range seeds {
				want[i] = referenceXDrop(s, u, sd.PosS, sd.PosT, k, DefaultScoring, x)
			}
			for place := range 4 {
				gs, gu := guardPaged(t, s, place&1 == 1), guardPaged(t, u, place&2 == 2)
				for i := range seeds {
					seeds[i].S, seeds[i].T = gs, gu
				}
				check := func(kernel string) {
					got := make([]Result, len(seeds))
					XDropBatch(seeds, k, DefaultScoring, x, got)
					for i, sd := range seeds {
						if one := XDrop(gs, gu, sd.PosS, sd.PosT, k, DefaultScoring, x); one != want[i] || got[i] != want[i] {
							t.Fatalf("k=%d x=%d placement %d seed (%d,%d), %s:\n  XDrop %+v\n  batch %+v\n   want %+v",
								k, x, place, sd.PosS, sd.PosT, kernel, one, got[i], want[i])
						}
					}
				}
				check("kernel as the host selects it")
				if setAssembly(false) {
					check("Go loop alone")
					setAssembly(true)
				}
			}
		}
	}
}
