package spmd

import "sync"

// The in-process transport: ranks are goroutines in one address space.
// Each posted exchange gets its own sequence-numbered slot (the per-rank
// counters agree because SPMD ranks post in program order), so a rank can
// post exchange r+1 while peers are still posting r, and waiting an
// exchange right after posting it is the blocking collective. Payloads
// are delivered zero-copy (receivers alias the sender's memory). A slot is
// reclaimed once every rank has read its column.

// memSlot is one outstanding exchange: per-rank staged rows plus the
// running maxima of the posting clocks and byte counts.
type memSlot struct {
	rows     [][][]byte // rows[src][dst]
	maxClock float64
	maxBytes float64
	posted   int
	taken    int
}

// memWorld is the state shared by all ranks of one in-process world.
type memWorld struct {
	size int

	mu      sync.Mutex
	cond    *sync.Cond
	slots   map[uint64]*memSlot // outstanding exchanges by sequence
	aborted bool
}

func newMemWorld(p int) *memWorld {
	w := &memWorld{size: p, slots: make(map[uint64]*memSlot)}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// rank returns rank r's Transport handle on the world.
func (w *memWorld) rank(r int) Transport { return &memRank{w: w, rank: r} }

// memRank is one rank's handle; it is confined to that rank's goroutine.
// It is also the PendingExchange of every exchange it posts: handles are
// waited in posting order, so Wait completes sequence waited, then the
// next.
type memRank struct {
	w      *memWorld
	rank   int
	posted uint64 // next exchange sequence (consistent by SPMD order)
	waited uint64 // next sequence Wait completes
}

func (m *memRank) Rank() int    { return m.rank }
func (m *memRank) Size() int    { return m.w.size }
func (m *memRank) Shared() bool { return true }
func (m *memRank) Close() error { return nil }

func (m *memRank) Abort() {
	m.w.mu.Lock()
	m.w.aborted = true
	m.w.cond.Broadcast()
	m.w.mu.Unlock()
}

func (m *memRank) IAlltoallv(send [][]byte, clock, sentBytes float64) (PendingExchange, error) {
	w := m.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.aborted {
		return nil, ErrAborted
	}
	sl, ok := w.slots[m.posted]
	if !ok {
		sl = &memSlot{rows: make([][][]byte, w.size), maxClock: clock, maxBytes: sentBytes}
		w.slots[m.posted] = sl
	}
	sl.rows[m.rank] = send
	sl.maxClock = max(sl.maxClock, clock)
	sl.maxBytes = max(sl.maxBytes, sentBytes)
	sl.posted++
	if sl.posted == w.size {
		w.cond.Broadcast()
	}
	m.posted++
	return m, nil
}

func (m *memRank) Wait() ([][]byte, float64, float64, error) {
	w := m.w
	w.mu.Lock()
	sl := w.slots[m.waited]
	for sl.posted < w.size && !w.aborted {
		w.cond.Wait()
	}
	if w.aborted {
		w.mu.Unlock()
		return nil, 0, 0, ErrAborted
	}
	sl.taken++
	if sl.taken == w.size {
		delete(w.slots, m.waited)
	}
	w.mu.Unlock()
	m.waited++
	// Every rank has posted: the slot's rows and maxima are final.
	recv := make([][]byte, w.size)
	for src := range recv {
		recv[src] = sl.rows[src][m.rank]
	}
	return recv, sl.maxClock, sl.maxBytes, nil
}
