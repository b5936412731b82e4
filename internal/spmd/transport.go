package spmd

import "slices"

// Transport is the byte-level communication substrate one rank uses to
// participate in an SPMD world: the rank's identity plus one primitive,
// the posted irregular all-to-all. diBELLA moves every byte through
// MPI_Alltoallv between supersteps, and so does this runtime — every typed
// collective in this package (Alltoallv, Barrier, the gathers and
// reductions, the streamed exchange) is derived once, in exchange.go, from
// ialltoallv + wait, so a backend has exactly one thing to get right,
// instrument and fault-inject. Two backends exist:
//
//   - the in-process transport (goroutine ranks over sequence-numbered
//     exchange slots; the default, created by Run/RunWithModel), and
//   - the TCP transport (one OS process per rank, length-prefixed frames
//     over per-peer persistent connections; created by Connect from a
//     Bootstrap describing the world, see bootstrap.go).
//
// The interface is sealed: outside this package a Transport is an identity
// to hand to RunTransport (or FormationAllgather) and a world to abort or
// close. Nothing else can post on one or implement one, so every byte a run
// moves goes through a Comm, which prices it — a new backend, or a wrapper
// around one (fault injection), is written here.
//
// Every exchange doubles as the BSP synchronization point, so alongside
// the payload each post carries this rank's virtual clock and wait returns
// the maximum clock across the world plus the busiest sender's byte count
// — the quantity the communication model prices.
//
// Exchanges must be posted in the same order by every rank; a Transport
// may detect divergence (the TCP backend does, via sequence numbers) but
// is not required to.
type Transport interface {
	// Rank returns this rank's index in [0, Size).
	Rank() int
	// Size returns the number of ranks in the world.
	Size() int

	// Abort poisons the world: ranks blocked in (or later entering) an
	// exchange fail with ErrAborted instead of deadlocking. Safe to call
	// concurrently with exchanges and more than once.
	Abort()

	// Close releases the transport's resources. On a distributed backend
	// it is the graceful shutdown (all ranks have finished the same
	// exchange sequence); it does not abort peers.
	Close() error

	// shared reports whether buffers returned by wait alias the sender's
	// memory (true for the in-process backend). When false the buffers
	// crossed an address-space boundary into 8-byte-aligned memory of the
	// transport's: the typed layer copies a result its caller keeps and
	// reads a round of Rounds where it lies.
	shared() bool

	// ialltoallv posts one irregular all-to-all without blocking — send[dst]
	// is delivered to rank dst (nil for empty contributions) — and returns
	// its completion handle. clock and sentBytes are this rank's BSP
	// contributions at post time, so the maxClock wait returns is the
	// exchange's BSP start time regardless of how much local work ran
	// before wait.
	//
	// Ordering contract (the typed layer enforces it): every rank posts
	// exchanges in the same order and waits outstanding handles in posting
	// order. On shared transports the send buffers are handed off at post
	// time and must not be mutated afterwards.
	ialltoallv(send [][]byte, clock, sentBytes float64) (pendingExchange, error)
}

// pendingExchange is a transport-level handle on one posted all-to-all.
// wait blocks until every rank has posted the matching exchange and all
// payloads are available: recv[src] is the buffer rank src addressed to
// this rank (recv[Rank] is the rank's own send buffer), maxClock and
// maxBytes are the world maxima of the posting clocks and sent-byte
// counts. wait must be called exactly once. The recv header is the
// transport's and stands until the rank's next post or wait — a caller
// that keeps it copies it — and a waited pendingExchange may be the one a
// later post returns.
type pendingExchange interface {
	wait() (recv [][]byte, maxClock, maxBytes float64, err error)
}

// FormationAllgather is the one unpriced exchange in the tree: every rank
// contributes blob over the bare transport and receives every rank's, in
// rank order. It belongs to forming the world, not to a run — cmd/dibella
// agrees the run configuration with it, and one of the values agreed
// (-platform) selects the communication model, so no Comm, clock or model
// exists yet that could price it. Every exchange after formation goes
// through a Comm.
func FormationAllgather(tr Transport, blob []byte) ([][]byte, error) {
	send := make([][]byte, tr.Size())
	for r := range send {
		send[r] = blob
	}
	pe, err := tr.ialltoallv(send, 0, 0)
	if err != nil {
		return nil, err
	}
	recv, _, _, err := pe.wait()
	return slices.Clone(recv), err
}
