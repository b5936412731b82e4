package spmd

import "sync"

// The in-process transport: ranks are goroutines in one address space.
// Each posted exchange gets its own sequence-numbered slot (the per-rank
// counters agree because SPMD ranks post in program order), so a rank can
// post exchange r+1 while peers are still posting r, and waiting an
// exchange right after posting it is the blocking collective. Payloads
// are delivered zero-copy (receivers alias the sender's memory). A slot is
// reclaimed once every rank has read its column, and reused by a later
// exchange: a world in steady state allocates nothing per exchange.

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

	mu   sync.Mutex
	cond *sync.Cond
	// slots[i] is exchange base+i. Every rank waits in posting order, so
	// exchanges are fully taken in sequence order and leave at the front.
	slots   []*memSlot
	base    uint64
	free    []*memSlot // taken slots, rows cleared
	aborted bool
}

func newMemWorld(p int) *memWorld {
	w := &memWorld{size: p}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// rank returns rank r's Transport handle on the world.
func (w *memWorld) rank(r int) Transport {
	return &memRank{w: w, rank: r, recv: make([][]byte, w.size)}
}

// slot returns exchange seq's slot, opening it (and any before it that no
// rank has posted yet) if seq is new. Called with mu held.
func (w *memWorld) slot(seq uint64) *memSlot {
	for seq-w.base >= uint64(len(w.slots)) {
		var sl *memSlot
		if n := len(w.free); n > 0 {
			sl, w.free = w.free[n-1], w.free[:n-1]
		} else {
			sl = &memSlot{rows: make([][][]byte, w.size)}
		}
		w.slots = append(w.slots, sl)
	}
	return w.slots[seq-w.base]
}

// memRank is one rank's handle; it is confined to that rank's goroutine.
// It is also the pendingExchange of every exchange it posts: handles are
// waited in posting order, so wait completes sequence waited, then the
// next.
type memRank struct {
	w      *memWorld
	rank   int
	posted uint64   // next exchange sequence (consistent by SPMD order)
	waited uint64   // next sequence wait completes
	recv   [][]byte // the header wait returns, reused by the next wait
}

func (m *memRank) Rank() int    { return m.rank }
func (m *memRank) Size() int    { return m.w.size }
func (m *memRank) shared() bool { return true }
func (m *memRank) Close() error { return nil }

func (m *memRank) Abort() {
	m.w.mu.Lock()
	m.w.aborted = true
	m.w.cond.Broadcast()
	m.w.mu.Unlock()
}

func (m *memRank) ialltoallv(send [][]byte, clock, sentBytes float64) (pendingExchange, error) {
	w := m.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.aborted {
		return nil, ErrAborted
	}
	sl := w.slot(m.posted)
	sl.rows[m.rank] = send
	if sl.posted == 0 {
		sl.maxClock, sl.maxBytes = clock, sentBytes
	}
	sl.maxClock = max(sl.maxClock, clock)
	sl.maxBytes = max(sl.maxBytes, sentBytes)
	sl.posted++
	if sl.posted == w.size {
		w.cond.Broadcast()
	}
	m.posted++
	return m, nil
}

func (m *memRank) wait() ([][]byte, float64, float64, error) {
	w := m.w
	w.mu.Lock()
	defer w.mu.Unlock()
	sl := w.slot(m.waited)
	for sl.posted < w.size && !w.aborted {
		w.cond.Wait()
	}
	if w.aborted {
		return nil, 0, 0, ErrAborted
	}
	// Every rank has posted: the slot's rows and maxima are final.
	for src := range m.recv {
		m.recv[src] = sl.rows[src][m.rank]
	}
	maxClock, maxBytes := sl.maxClock, sl.maxBytes
	m.waited++
	sl.taken++
	if sl.taken == w.size {
		// The last reader retires the slot: it is the front one.
		clear(sl.rows)
		sl.posted, sl.taken = 0, 0
		w.free = append(w.free, sl)
		w.base++
		w.slots = w.slots[:copy(w.slots, w.slots[1:])]
	}
	return m.recv, maxClock, maxBytes, nil
}
