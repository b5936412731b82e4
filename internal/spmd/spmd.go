// Package spmd is the distributed-memory substrate of the reproduction: an
// SPMD runtime standing in for MPI.
//
// The paper's diBELLA runs P MPI ranks (one per core) and communicates
// exclusively through bulk-synchronous collectives — MPI_Alltoall,
// MPI_Alltoallv, and reductions. Go has no MPI ecosystem, so this package
// redesigns the layer: typed collectives, all derived from one posted
// all-to-all (exchange.go), run over a pluggable byte-level Transport (see
// transport.go). The default backend keeps each rank as a goroutine and
// moves data through sequence-numbered exchange slots; the TCP backend
// (tcp.go) runs one OS process per rank with length-prefixed frames over
// per-peer connections. Collective semantics (every rank participates,
// data moves only at the collective, happens-before across it) match
// MPI's on both backends, which is all the algorithm depends on.
//
// The typed layer's contract is one rule on every transport: a collective
// carries a pointer-free value (Allgather, Bcast, the reductions) or rows
// of pointer-free elements (Alltoallv, GatherTo, a row handed to Allgather
// or Bcast) — bytes included, and variable-length items through
// AlltoallvPacked. The elements move as their own memory, as diBELLA's
// packed MPI_Alltoallv buffers do; nothing is serialized reflectively. A
// type with pointers panics naming itself, on goroutine ranks exactly as
// over TCP; its owner encodes it to bytes first (internal/wire, or the
// JSON it is already persisted as).
//
// Two clocks are tracked per rank:
//
//   - wall time, i.e. real host time actually spent inside collectives,
//     used for host benchmarking; and
//   - a virtual clock, advanced by Tick for modeled local computation and
//     by a pluggable CommModel for modeled communication. The virtual
//     clock is what regenerates the paper's cross-architecture figures:
//     the same execution, priced under the Cori/Edison/Titan/AWS models.
//
// A collective synchronizes virtual clocks exactly as BSP prescribes:
// everyone advances to the maximum participant clock, then pays the modeled
// cost of the exchange.
package spmd

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"dibella/internal/trace"
)

// Flight-recorder event names and metric names. Registered package-level
// constants, as the tracename analyzer requires.
const (
	traceBarrier   = "spmd.barrier"
	traceAlltoallv = "spmd.alltoallv"
	traceAllgather = "spmd.allgather"
	tracePost      = "spmd.post"
	traceChunkPost = "spmd.chunk_post"
	traceWait      = "spmd.wait"
	traceChunkWait = "spmd.chunk_wait"
	traceExchange  = "spmd.exchange"

	metricInflightExchanges = "dibella_spmd_inflight_exchanges"
	metricExchangesTotal    = "dibella_spmd_exchanges_total"
)

var (
	inflightExchanges = trace.RegisterGauge(metricInflightExchanges,
		"non-blocking exchanges posted but not yet waited, across local ranks")
	exchangesTotal = trace.RegisterCounter(metricExchangesTotal,
		"all-to-all exchanges completed, summed over local ranks")
)

// ErrAborted is delivered (via panic/recover inside Run and RunTransport)
// to ranks blocked in a collective when another rank fails, so a single
// error cannot deadlock the world.
var ErrAborted = errors.New("spmd: world aborted by another rank's failure")

// CommModel prices communication on a modeled platform: every flavour of
// exchange the typed layer runs has its price here. machine.Model is the
// implementation; a nil model runs with zero-cost virtual communication
// (wall time is still measured).
type CommModel interface {
	// AlltoallvTime models one irregular all-to-all exchange in which the
	// busiest rank sends maxSendBytes in total. callIdx counts prior
	// all-to-all calls in this world (the paper observes MPI's first
	// Alltoallv is roughly twice as expensive as later calls; models use
	// callIdx to reproduce that).
	AlltoallvTime(callIdx int64, maxSendBytes float64) float64
	// CollectiveTime models a latency-bound small collective (barrier,
	// allreduce, allgather of scalars).
	CollectiveTime() float64
	// IPostTime models the CPU-side cost of posting a non-blocking
	// exchange, charged on the posting rank's own clock.
	IPostTime() float64
	// ChunkPostTime and StreamChunkTime price one chunk round of a
	// streamed exchange, its posting and its exchange: successive chunks
	// reuse the descriptors and per-peer state the first round set up, so
	// each is a fraction of a full collective's.
	ChunkPostTime() float64
	StreamChunkTime(callIdx int64, maxChunkBytes float64) float64
}

// Stats accumulates one rank's communication accounting.
//
// For non-blocking exchanges (Rounds, AlltoallvDuring, the streamed
// exchange), ExchangeVirtual still carries the full modeled cost of every
// exchange, while OverlapVirtual counts the portion of that cost hidden
// under local computation between post and Wait — so elapsed modeled time
// is Exchange − Overlap. The wall clocks split the same way: ExchangeWall
// is time actually blocked (inside blocking collectives or Wait),
// OverlapWall is compute time that ran while at least the waited exchange
// was in flight.
type Stats struct {
	Alltoallvs      int64         // number of all-to-all exchanges
	Collectives     int64         // number of small collectives
	BytesSent       int64         // payload bytes this rank contributed
	ExchangeVirtual float64       // modeled seconds spent communicating
	OverlapVirtual  float64       // modeled exchange seconds hidden by compute
	ExchangeWall    time.Duration // real host time spent blocked in collectives
	OverlapWall     time.Duration // host compute time overlapping in-flight exchanges
}

// Comm is one rank's handle on the world: a Transport plus the rank's
// virtual clock and accounting. It is confined to that rank's goroutine
// (or process); only the transport synchronizes.
type Comm struct {
	tr    Transport
	model CommModel
	clock float64 // virtual seconds
	stats Stats
	// Exchanges are waited in posting order, so the posted-but-unwaited
	// ones are the ids in [waitedID, nextID).
	nextID   uint64
	waitedID uint64
	// Flight recorder (nil unless tracing is enabled; every emit on a nil
	// recorder is a no-op). postSeq numbers posted exchanges: posts are
	// collectively ordered, so post k on one rank and wait k on another
	// refer to the same exchange — that shared index is the flow id
	// linking them in the trace.
	rec     *trace.Recorder
	postSeq uint64
	// Overlap-wall attribution anchor: the wall instant (and blocked-time
	// watermark) up to which compute has already been credited to
	// Stats.OverlapWall. Valid while handles are pending; advanced at
	// every Wait so back-to-back handles never double-count a window.
	anchorWall     time.Time
	anchorExchWall time.Duration
}

// Rank returns this rank's index in [0, Size).
func (c *Comm) Rank() int { return c.tr.Rank() }

// pending is the number of exchanges posted and not yet waited.
func (c *Comm) pending() int { return int(c.nextID - c.waitedID) }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.tr.Size() }

// Now returns the rank's virtual clock in seconds.
func (c *Comm) Now() float64 { return c.clock }

// Tick advances the virtual clock by d seconds of modeled local compute.
func (c *Comm) Tick(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("spmd: negative tick %v", d))
	}
	c.clock += d
}

// Stats returns a copy of the rank's communication statistics.
func (c *Comm) Stats() Stats { return c.stats }

// Run executes fn on p goroutine ranks with no communication model and
// returns the first error any rank produced.
func Run(p int, fn func(*Comm) error) error { return RunWithModel(p, nil, fn) }

// RunWithModel executes fn on p goroutine ranks over the in-process
// transport, pricing communication with the given model. Panics inside a
// rank are recovered, abort the world (unblocking ranks parked in
// collectives), and surface as errors.
func RunWithModel(p int, model CommModel, fn func(*Comm) error) error {
	if p <= 0 {
		return fmt.Errorf("spmd: world size %d must be positive", p)
	}
	w := newMemWorld(p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(rank int) {
			defer wg.Done()
			errs[rank] = runRank(w.rank(rank), model, fn)
		}(r)
	}
	wg.Wait()
	return firstError(errs)
}

// RunTransport executes fn as one rank of an externally-formed world (for
// the in-process backend use Run, which forms the world itself). A
// returned error or panic aborts the transport so peers blocked in
// collectives unwind instead of deadlocking; ErrAborted from a peer's
// failure is returned as such. The transport is closed on return.
func RunTransport(tr Transport, model CommModel, fn func(*Comm) error) error {
	defer tr.Close()
	return runRank(tr, model, fn)
}

// commError marks a transport-level collective failure (torn connection,
// protocol divergence): an expected distributed failure mode that should
// surface as a one-line error, not a panic stack.
type commError struct{ error }

func (e commError) Unwrap() error { return e.error }

// runRank runs fn on one rank, converting panics (including collective
// aborts) into errors and poisoning the world on failure.
func runRank(tr Transport, model CommModel, fn func(*Comm) error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if e, ok := rec.(error); ok && errors.Is(e, ErrAborted) {
				err = e
				return
			}
			if e, ok := rec.(commError); ok {
				err = e.error
				tr.Abort()
				return
			}
			buf := make([]byte, 8192)
			n := runtime.Stack(buf, false)
			err = fmt.Errorf("spmd: rank %d panicked: %v\n%s", tr.Rank(), rec, buf[:n])
			tr.Abort()
		}
	}()
	c := &Comm{tr: tr, model: model, rec: trace.Rec(tr.Rank())}
	err = fn(c)
	if err == nil && c.pending() > 0 {
		// requireIdle's twin for a rank that issues no further collective:
		// its peers have posted the matching exchanges and would otherwise
		// find out at teardown, or never.
		err = fmt.Errorf("returned with %d non-blocking exchange(s) pending", c.pending())
	}
	if err != nil {
		tr.Abort()
		return fmt.Errorf("spmd: rank %d: %w", tr.Rank(), err)
	}
	return nil
}

// firstError prefers a real failure over the secondary ErrAborted noise.
func firstError(errs []error) error {
	var aborted error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrAborted) {
			aborted = err
			continue
		}
		return err
	}
	return aborted
}

// collectiveFailed unwinds a rank whose transport-level collective failed.
// ErrAborted propagates as-is so Run's recovery recognizes a secondary
// failure; anything else (a torn connection, a protocol violation) is
// wrapped with the rank for diagnosis.
func collectiveFailed(c *Comm, op string, err error) {
	if errors.Is(err, ErrAborted) {
		panic(err)
	}
	panic(commError{fmt.Errorf("spmd: rank %d: %s: %w", c.Rank(), op, err)})
}

// elemSize reports the in-memory size of T's direct representation.
func elemSize[T any]() int {
	var zero T
	return int(unsafe.Sizeof(zero))
}

// podTypes caches which element types are plain old data (pointer-free),
// i.e. safe to ship across an address-space boundary by reinterpreting
// their memory. Keyed by reflect.Type, value bool.
var podTypes sync.Map

func isPOD[T any]() bool { return isPODType(reflect.TypeFor[T]()) }

func isPODType(rt reflect.Type) bool {
	if v, ok := podTypes.Load(rt); ok {
		return v.(bool)
	}
	pod := rt.Size() > 0 && !hasPointers(rt)
	podTypes.Store(rt, pod)
	return pod
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32,
		reflect.Int64, reflect.Uint, reflect.Uint8, reflect.Uint16,
		reflect.Uint32, reflect.Uint64, reflect.Uintptr, reflect.Float32,
		reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// castToBytes reinterprets a []T as its raw bytes without copying.
func castToBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*elemSize[T]())
}

// rowLen is how many T the bytes rank src sent hold. A payload that is not
// a whole number of them is a peer's protocol violation — mismatched
// binaries, a corrupted stream — and fails the collective as a torn
// connection does: a rank-attributed error that aborts the world, not a
// panic's stack trace.
func rowLen[T any](c *Comm, op string, src int, b []byte) int {
	size := elemSize[T]()
	if len(b)%size != 0 {
		collectiveFailed(c, op, fmt.Errorf("rank %d sent %d bytes, not a multiple of element size %d", src, len(b), size))
	}
	return len(b) / size
}

// viewRow reinterprets received bytes as the n T they hold, in place. The
// bytes are a sender's own []T (a shared transport, or this rank's own
// column) or a frame-pool buffer, and aligned for T either way.
func viewRow[T any](b []byte, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// emptyRow is the zero-length []T over all of b's memory, or nil when that
// memory holds no T or is not aligned for one (it was last some other
// element type's row).
func emptyRow[T any](b []byte) []T {
	var zero T
	n := cap(b) / int(unsafe.Sizeof(zero))
	p := unsafe.Pointer(unsafe.SliceData(b))
	if n == 0 || uintptr(p)%unsafe.Alignof(zero) != 0 {
		return nil
	}
	return unsafe.Slice((*T)(p), n)[:0]
}

// poisonRecycled makes every row that goes round — a send row handed back
// to pack, a received frame returned to the pool — be overwritten first, so
// that a reader that kept an alias past its time reads 0xDB and not
// plausible stale data.
var poisonRecycled bool

// PoisonRecycledRows arms the overwrite for the life of the process. It is
// for TestMain: the packages whose tests run Rounds arm it before any world
// exists, and nothing else may call it.
func PoisonRecycledRows() { poisonRecycled = true }

func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}

// Alltoall delivers exactly one element to every rank: rank i's send[j]
// becomes rank j's recv[i]. It matches MPI_Alltoall with count 1 and is
// how the pipeline exchanges per-destination counts before an Alltoallv.
func Alltoall[T any](c *Comm, send []T) []T {
	if len(send) != c.Size() {
		panic(fmt.Sprintf("spmd: Alltoall send length %d != world size %d", len(send), c.Size()))
	}
	per := make([][]T, c.Size())
	for i, v := range send {
		per[i] = []T{v}
	}
	parts := Alltoallv(c, per)
	out := make([]T, c.Size())
	for i, p := range parts {
		out[i] = p[0]
	}
	return out
}

// Op selects a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

// gatherVals runs the allgather underlying the small collectives and
// returns this rank's view of all contributed values, in rank order: every
// rank sends its one value to every rank. T is a pointer-free value, or a
// row ([]E) of pointer-free elements — []byte included, which is how
// structured values travel: their owner encodes them (internal/wire, JSON)
// and the typed layer ships the bytes. The value moves as its own memory
// and is copied out on receipt, on every transport alike; any other T
// panics, naming it.
func gatherVals[T any](c *Comm, v T) []T {
	c.rec.Begin(traceAllgather, c.clock)
	rt := reflect.TypeFor[T]()
	size := int(rt.Size()) // of the value, or of one row element
	row := false
	var raw []byte
	switch {
	case isPODType(rt):
		raw = unsafe.Slice((*byte)(unsafe.Pointer(&v)), size)
	case rt.Kind() == reflect.Slice && isPODType(rt.Elem()):
		row, size = true, int(rt.Elem().Size())
		if rv := reflect.ValueOf(v); rv.Len() > 0 {
			raw = unsafe.Slice((*byte)(rv.UnsafePointer()), rv.Len()*size)
		}
	default:
		panic(fmt.Sprintf("spmd: allgather of %T: not a pointer-free value or a row of pointer-free elements; encode it to bytes first", v))
	}
	out := make([]T, c.Size())
	for i, b := range post(c, replicate(c, raw), &priceAllgather).Wait() {
		if len(b)%size != 0 || !row && len(b) != size {
			collectiveFailed(c, priceAllgather.op, fmt.Errorf("allgather of %T: rank %d sent %d bytes, element size %d", v, i, len(b), size))
		}
		dst := unsafe.Pointer(&out[i])
		if row {
			rv := reflect.MakeSlice(rt, len(b)/size, len(b)/size)
			out[i] = rv.Interface().(T)
			dst = rv.UnsafePointer()
		}
		if len(b) > 0 {
			copy(unsafe.Slice((*byte)(dst), len(b)), b)
		}
	}
	c.rec.End(traceAllgather, c.clock, 0)
	return out
}

// replicate addresses the same row to every rank.
func replicate[T any](c *Comm, row []T) [][]T {
	send := make([][]T, c.Size())
	for i := range send {
		send[i] = row
	}
	return send
}

// reduce folds the gathered values in rank order, so a floating-point sum
// is the same on every rank.
func reduce[T int64 | float64](vals []T, op Op) T {
	acc := vals[0]
	for _, x := range vals[1:] {
		switch op {
		case OpSum:
			acc += x
		case OpMax:
			if x > acc {
				acc = x
			}
		case OpMin:
			if x < acc {
				acc = x
			}
		}
	}
	return acc
}

// AllreduceI64 reduces one int64 across ranks; every rank gets the result.
func AllreduceI64(c *Comm, v int64, op Op) int64 { return reduce(gatherVals(c, v), op) }

// AllreduceF64 reduces one float64 across ranks; every rank gets the result.
func AllreduceF64(c *Comm, v float64, op Op) float64 { return reduce(gatherVals(c, v), op) }

// Allgather collects one value (see gatherVals for what may travel) from
// every rank, ordered by rank.
func Allgather[T any](c *Comm, v T) []T { return gatherVals(c, v) }

// Bcast distributes root's value to all ranks.
func Bcast[T any](c *Comm, v T, root int) T {
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("spmd: Bcast root %d out of range", root))
	}
	return gatherVals(c, v)[root]
}

// ExclusiveScanI64 returns the sum of v over ranks strictly below this one
// (0 on rank 0), the standard prefix used to assign global IDs.
func ExclusiveScanI64(c *Comm, v int64) int64 {
	vals := gatherVals(c, v)
	var sum int64
	for r := 0; r < c.Rank(); r++ {
		sum += vals[r]
	}
	return sum
}

// GatherTo collects one row of pointer-free elements from every rank on
// root (MPI_Gatherv): root receives all rows in rank order, other ranks
// receive nil. Unlike Allgather, the rows travel only to root — on a
// distributed backend that is 1x the payload over the wire instead of
// (P-1)x. It is one irregular all-to-all with only the root column
// filled, so its accounting and its aliasing rule are Alltoallv's.
func GatherTo[E any](c *Comm, row []E, root int) [][]E {
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("spmd: GatherTo root %d out of range", root))
	}
	send := make([][]E, c.Size())
	send[root] = row
	recv := Alltoallv(c, send)
	if c.Rank() != root {
		return nil
	}
	return recv
}
