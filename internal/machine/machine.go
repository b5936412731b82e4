// Package machine models the four platforms of the paper's Table 1 — the
// Cori Cray XC40, Edison Cray XC30, Titan Cray XK7 (CPU partition), and an
// AWS c3.8xlarge cluster — so that one real execution of the pipeline can
// be priced under each platform and the paper's cross-architecture figures
// regenerated.
//
// The substitution (docs/BENCH.md, "What machine.Model prices"): we cannot
// run on the paper's hardware, so the pipeline counts its real work —
// k-mers parsed and inserted, bytes packed and exchanged, alignment DP
// cells computed — and this package converts counts into modeled seconds
// using
//
//   - a per-core compute rate (frequency × architecture factor) with a
//     cache multiplier that speeds up strong-scaled working sets as they
//     begin to fit in the last-level cache (the paper's observed
//     superlinear local speedups, Figs. 4–5);
//   - a LogGP-style cost for irregular all-to-all exchanges, split into
//     intra-node and inter-node parts, with per-peer message overheads and
//     a shared per-node injection bandwidth (Table 1's measured BW/node at
//     8 KB messages); and
//   - a first-call penalty on the earliest Alltoallv, reproducing the MPI
//     internal-setup effect the paper measures ("the first call ... is
//     almost twice as expensive ... as the second", §10).
//
// All constants are calibration parameters, not measurements;
// internal/figures' TestSweepShapeClaims holds the resulting curve shapes
// to the paper's.
package machine

import (
	"fmt"
	"math"
)

// Platform holds one machine's characteristics (Table 1 plus calibration
// constants).
type Platform struct {
	Name         string
	CoresPerNode int
	FreqGHz      float64
	// ArchFactor is per-core instructions-per-cycle efficiency relative to
	// Cori's Haswell cores.
	ArchFactor float64
	// LLCBytes is the last-level cache per node.
	LLCBytes float64
	// MemBytes is DRAM per node (Table 1).
	MemBytes float64
	// IntraLat / InterLat are hardware message latencies for on-node and
	// off-node peers (seconds), used for small latency-bound collectives.
	// Table 1 reports the 128-byte Get latency; AWS is estimated.
	IntraLat float64
	InterLat float64
	// PeerOverhead is the effective per-peer software cost one rank pays
	// per irregular all-to-all (seconds). At high rank counts Alltoallv
	// degenerates to ~P pairwise rounds whose per-round cost is dominated
	// by MPI software overhead and skew, tens of microseconds in practice
	// — this term, not the wire latency, is what makes the low-intensity
	// workload stop scaling (§10).
	PeerOverhead float64
	// IntraPeerOverhead is the same cost for on-node peers (shared-memory
	// transport).
	IntraPeerOverhead float64
	// BWNode is the effective per-node injection bandwidth achieved by
	// bulk all-to-all exchanges (bytes/s). Table 1's 8 KB-message
	// measurements fix the platforms' relative order; absolute values are
	// calibrated against the paper's stage rates.
	BWNode float64
	// BWIntra is the aggregate intra-node exchange bandwidth (bytes/s).
	BWIntra float64
	// BWRankCap bounds what a single rank's MPI stack can inject
	// (bytes/s); it binds only in low-density jobs such as the paper's
	// 1-rank-per-node breakdown runs (Figs. 9-10), where one process
	// cannot saturate the NIC.
	BWRankCap float64
	// CkptBW is the effective per-node checkpoint write bandwidth to the
	// machine's parallel file system (bytes/s), shared by the node's ranks
	// when a stage-boundary snapshot is written collectively. Lustre-class
	// file systems sustain on the order of 1 GB/s per client node; AWS's
	// EBS-backed cluster far less. 0 falls back to a conservative default.
	CkptBW float64
	// FirstCallFactor multiplies the cost of the very first Alltoallv —
	// MPI's internal setup of communication buffers and per-peer state.
	// The paper measures the first call at ~2x the second (§10) and Fig. 9
	// shows the Bloom stage's *total* exchange exceeding the hash-table
	// stage's despite 2.5x less volume, which requires the setup cost to
	// outweigh the volume ratio; the factors here are calibrated to that
	// stronger observation.
	FirstCallFactor float64
	// CacheBoost is the additional speedup factor when a working set fits
	// entirely in LLC (rate multiplier ranges over [1, 1+CacheBoost]).
	CacheBoost float64
}

// CoreSpeed returns the per-core compute-rate multiplier relative to a
// Cori Haswell core.
func (p Platform) CoreSpeed() float64 { return p.FreqGHz / 2.3 * p.ArchFactor }

// NodeSpeed returns the per-node compute-rate multiplier.
func (p Platform) NodeSpeed() float64 { return p.CoreSpeed() * float64(p.CoresPerNode) }

// The four evaluated platforms. Network figures derive from Table 1; AWS
// publishes only "10 Gigabit" injection, and the paper notes its node
// performs like a Titan CPU node, which fixes its compute calibration.
var (
	Cori = Platform{
		Name: "Cori (XC40)", CoresPerNode: 32, FreqGHz: 2.3, ArchFactor: 1.0,
		LLCBytes: 80e6, MemBytes: 128e9,
		IntraLat: 2.7e-6, InterLat: 2.7e-6,
		PeerOverhead: 3.5e-6, IntraPeerOverhead: 2e-6,
		BWNode: 2.0e9, BWIntra: 6e9, BWRankCap: 65e6, CkptBW: 1.5e9,
		FirstCallFactor: 4.0, CacheBoost: 1.3,
	}
	Edison = Platform{
		Name: "Edison (XC30)", CoresPerNode: 24, FreqGHz: 2.4, ArchFactor: 0.85,
		LLCBytes: 60e6, MemBytes: 64e9,
		IntraLat: 0.8e-6, InterLat: 0.8e-6,
		PeerOverhead: 5e-6, IntraPeerOverhead: 1.5e-6,
		BWNode: 1.2e9, BWIntra: 5e9, BWRankCap: 80e6, CkptBW: 1.0e9,
		FirstCallFactor: 3.5, CacheBoost: 1.3,
	}
	Titan = Platform{
		Name: "Titan (XK7)", CoresPerNode: 16, FreqGHz: 2.2, ArchFactor: 0.50,
		LLCBytes: 16e6, MemBytes: 32e9,
		IntraLat: 1.1e-6, InterLat: 1.1e-6,
		PeerOverhead: 8e-6, IntraPeerOverhead: 2e-6,
		BWNode: 0.5e9, BWIntra: 3e9, BWRankCap: 60e6, CkptBW: 0.8e9,
		FirstCallFactor: 3.0, CacheBoost: 1.2,
	}
	AWS = Platform{
		Name: "AWS", CoresPerNode: 16, FreqGHz: 2.8, ArchFactor: 0.40,
		LLCBytes: 50e6, MemBytes: 60e9,
		IntraLat: 3.0e-6, InterLat: 35e-6,
		PeerOverhead: 30e-6, IntraPeerOverhead: 4e-6,
		BWNode: 0.3e9, BWIntra: 2e9, BWRankCap: 40e6, CkptBW: 0.2e9,
		FirstCallFactor: 5.0, CacheBoost: 1.25,
	}
)

// Platforms lists the evaluated machines in the paper's plotting order.
var Platforms = []Platform{Cori, Edison, Titan, AWS}

// PlatformByName returns the platform with the given name prefix
// ("cori", "edison", "titan", "aws"), case-insensitively.
func PlatformByName(name string) (Platform, error) {
	for _, p := range Platforms {
		if len(name) > 0 && len(p.Name) >= len(name) &&
			equalFold(p.Name[:len(name)], name) {
			return p, nil
		}
	}
	return Platform{}, fmt.Errorf("machine: unknown platform %q", name)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Model binds a platform to a job shape (node count and ranks per node)
// and implements spmd.CommModel plus compute pricing.
//
// The modeled job has Nodes × RanksPerNode MPI ranks. The *simulation*
// executing the algorithm may use fewer goroutine ranks (SimRanks); the
// model then treats each goroutine as a group of RealRanks/SimRanks MPI
// ranks operating in parallel: compute is divided by the group size,
// per-group exchange bytes are split across the group's ranks, and cache
// working sets shrink accordingly. With SimRanks == RealRanks the model is
// exact in its own terms; scaling keeps figure regeneration tractable at
// 32-node × 32-core shapes.
type Model struct {
	Plat         Platform
	Nodes        int
	RanksPerNode int
	SimRanks     int
}

// NewModel validates and builds a job model with one goroutine per modeled
// rank. RanksPerNode must not exceed the platform's cores per node (the
// paper pins one rank per core).
func NewModel(p Platform, nodes, ranksPerNode int) (*Model, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("machine: node count %d must be positive", nodes)
	}
	if ranksPerNode <= 0 {
		return nil, fmt.Errorf("machine: ranks per node %d must be positive", ranksPerNode)
	}
	if ranksPerNode > p.CoresPerNode {
		return nil, fmt.Errorf("machine: %d ranks per node exceeds %s's %d cores",
			ranksPerNode, p.Name, p.CoresPerNode)
	}
	return &Model{Plat: p, Nodes: nodes, RanksPerNode: ranksPerNode,
		SimRanks: nodes * ranksPerNode}, nil
}

// NewModelScaled builds a model of the paper's full-density job (one rank
// per core on every node) that will be *executed* by simRanks goroutines.
func NewModelScaled(p Platform, nodes, simRanks int) (*Model, error) {
	m, err := NewModel(p, nodes, p.CoresPerNode)
	if err != nil {
		return nil, err
	}
	if simRanks <= 0 {
		return nil, fmt.Errorf("machine: sim rank count %d must be positive", simRanks)
	}
	m.SimRanks = simRanks
	return m, nil
}

// Ranks returns the number of goroutine ranks the simulation must run
// with (the spmd world size this model is shaped for).
func (m *Model) Ranks() int { return m.SimRanks }

// RealRanks returns the modeled MPI job's rank count.
func (m *Model) RealRanks() int { return m.Nodes * m.RanksPerNode }

// groupSize returns how many modeled ranks each goroutine represents.
func (m *Model) groupSize() float64 {
	return float64(m.RealRanks()) / float64(m.SimRanks)
}

// peerLatency returns the per-peer software overhead one modeled rank pays
// across all its peers in one irregular all-to-all.
func (m *Model) peerLatency() float64 {
	rpn := m.RanksPerNode
	p := m.RealRanks()
	return float64(rpn-1)*m.Plat.IntraPeerOverhead + float64(p-rpn)*m.Plat.PeerOverhead
}

// wireTime returns the bandwidth term of moving maxSendBytes (counted on
// one simulation rank) through one irregular all-to-all.
func (m *Model) wireTime(maxSendBytes float64) float64 {
	maxSendBytes /= m.groupSize()
	p := m.RealRanks()
	rpn := m.RanksPerNode
	if p <= 1 {
		return 0
	}
	onPeers := float64(rpn - 1)
	offPeers := float64(p - rpn)
	intraBytes := maxSendBytes * onPeers / float64(p)
	interBytes := maxSendBytes * offPeers / float64(p)
	// Intra-node copies share the node's memory-side bandwidth across
	// the ranks of the node; off-node traffic shares the injection
	// bandwidth the same way, additionally capped by what one rank's
	// MPI stack can push.
	offBW := m.Plat.BWNode / float64(rpn)
	if m.Plat.BWRankCap > 0 && offBW > m.Plat.BWRankCap {
		offBW = m.Plat.BWRankCap
	}
	return intraBytes/(m.Plat.BWIntra/float64(rpn)) + interBytes/offBW
}

// AlltoallvTime implements spmd.CommModel. maxSendBytes is the total
// payload the busiest *simulation* rank contributes to one exchange; it is
// first converted to per-modeled-rank bytes.
func (m *Model) AlltoallvTime(callIdx int64, maxSendBytes float64) float64 {
	t := m.peerLatency() + m.wireTime(maxSendBytes)
	if callIdx == 0 {
		t *= m.Plat.FirstCallFactor
	}
	return t
}

// iPostFraction is the share of an exchange's per-peer software overhead
// paid up front when *posting* a non-blocking all-to-all (descriptor setup
// and buffer registration run on the caller's core; the rest of the
// per-peer cost is progressed in the background and stays in
// AlltoallvTime). MPI implementations report nonblocking-collective
// initiation at a modest fraction of the blocking call's software cost.
const iPostFraction = 0.2

// IPostTime implements spmd.CommModel: the CPU-side cost of posting one
// non-blocking irregular all-to-all, charged on the posting rank's own
// clock rather than the exchange's. Without this term an
// overlapped exchange would look entirely free whenever local work covers
// it, which no real MPI_Ialltoallv achieves.
func (m *Model) IPostTime() float64 {
	return m.peerLatency() * iPostFraction
}

// streamChunkFraction is the share of the full per-peer software overhead
// one chunk round of an already-posted streamed exchange pays: the first
// round sets up descriptors and per-peer state, and successive chunks
// reuse them, leaving progression and completion-queue handling. It is
// what makes chunking a real trade-off in the model — halving the chunk
// size doubles how often this overhead is paid while the wire term stays
// fixed, so an over-fine stream prices itself out of its own overlap win.
const streamChunkFraction = 0.15

// StreamChunkTime implements spmd.CommModel: one chunk round of a
// streamed (chunked) irregular all-to-all in which the busiest rank
// contributes maxChunkBytes. The sum over a stream's rounds
// approaches AlltoallvTime of the whole payload as chunks grow, and
// degenerates to latency-bound as they shrink. The first-exchange factor
// applies exactly as for a regular exchange (MPI's internal setup does not
// care how the first payload is sliced).
func (m *Model) StreamChunkTime(callIdx int64, maxChunkBytes float64) float64 {
	t := m.peerLatency()*streamChunkFraction + m.wireTime(maxChunkBytes)
	if callIdx == 0 {
		t *= m.Plat.FirstCallFactor
	}
	return t
}

// ChunkPostTime implements spmd.CommModel: the CPU-side cost of posting
// one chunk round, the per-chunk analogue of IPostTime.
// Streaming is therefore never modeled as free — every extra round costs
// the posting rank real (unhideable) clock time.
func (m *Model) ChunkPostTime() float64 {
	return m.peerLatency() * streamChunkFraction * iPostFraction
}

const (
	// ckptLatency is the fixed per-segment cost of one rank's checkpoint
	// write: file create, metadata commit, and fsync round-trip on a
	// parallel file system (milliseconds in practice).
	ckptLatency = 2e-3
	// defaultCkptBW stands in for platforms that don't specify a
	// checkpoint bandwidth.
	defaultCkptBW = 500e6
)

// SnapshotTime prices one rank's stage-boundary checkpoint write of the
// given payload (counted on one simulation rank): fixed per-segment
// latency plus the bytes through the rank's share of the node's parallel
// file system bandwidth. Charged on the writing rank's own clock, so a
// checkpointed run is never modeled as free — the overhead shows up in
// virtual_seconds exactly as the snapshot I/O would on the machine.
func (m *Model) SnapshotTime(bytes float64) float64 {
	bw := m.Plat.CkptBW
	if bw <= 0 {
		bw = defaultCkptBW
	}
	if bytes < 0 {
		bytes = 0
	}
	return ckptLatency + (bytes/m.groupSize())/(bw/float64(m.RanksPerNode))
}

const (
	// serveAdmitLatency is the fixed software cost of admitting one query
	// request on the frontend rank: frame decode dispatch, tenant lookup,
	// admission bookkeeping, and the queue insert (tens of microseconds of
	// RPC-ingress path, far below a collective but never free).
	serveAdmitLatency = 20e-6
	// serveDecodeBW is the rate at which the frontend ingests and decodes
	// a query batch's payload bytes (gob decode plus copy-in).
	serveDecodeBW = 200e6
)

// QueryAdmitTime prices the serve frontend's handling of one query
// request of reqBytes payload: fixed admission latency plus the batch
// bytes through the ingress decode bandwidth. Charged on the frontend
// rank's clock before the batch's collectives begin, so served query
// traffic is never modeled as free.
func (m *Model) QueryAdmitTime(reqBytes float64) float64 {
	if reqBytes < 0 {
		reqBytes = 0
	}
	return serveAdmitLatency + reqBytes/serveDecodeBW
}

// CollectiveTime implements spmd.CommModel: a latency-bound tree
// collective over nodes, plus an on-node combine.
func (m *Model) CollectiveTime() float64 {
	t := m.Plat.IntraLat * math.Ceil(log2(float64(m.RanksPerNode)))
	if m.Nodes > 1 {
		t += m.Plat.InterLat * math.Ceil(log2(float64(m.Nodes)))
	}
	return t
}

func log2(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log2(x)
}

// cacheMultiplier returns the compute-rate multiplier in
// [1, 1+CacheBoost] based on how much of a modeled rank's working set fits
// in its share of the LLC. This is the mechanism behind the paper's
// observed superlinear strong-scaling of local processing.
func (m *Model) cacheMultiplier(workingSetBytes float64) float64 {
	if workingSetBytes <= 0 {
		return 1 + m.Plat.CacheBoost
	}
	cachePerRank := m.Plat.LLCBytes / float64(m.RanksPerNode)
	frac := cachePerRank / workingSetBytes
	if frac > 1 {
		frac = 1
	}
	return 1 + m.Plat.CacheBoost*frac
}

// ComputeTime prices ops operations (counted on one simulation rank)
// against a Haswell-baseline rate of opsPerSec per core.
// workingSetBytes is the simulation rank's working set; both it and the
// work are split across the goroutine's modeled rank group.
func (m *Model) ComputeTime(ops, opsPerSec, workingSetBytes float64) float64 {
	if ops <= 0 {
		return 0
	}
	g := m.groupSize()
	rate := opsPerSec * m.Plat.CoreSpeed() * m.cacheMultiplier(workingSetBytes/g)
	return ops / g / rate
}

// Baseline per-core processing rates (operations per second on a Cori
// Haswell core with an out-of-cache working set). These are the model's
// calibration constants; internal/figures' TestSweepShapeClaims is the
// shape validation.
const (
	// RateParse: k-mers parsed+hashed from reads per second.
	RateParse = 8e6
	// RateBloomInsert: Bloom filter insert-and-test operations per second
	// (h hash probes and bit updates per op).
	RateBloomInsert = 4e6
	// RateHTInsert: hash-table occurrence inserts per second (one probe
	// plus an append; lighter than a Bloom insert-and-test, which is how
	// the hash-table stage sustains roughly double the Bloom stage's rate,
	// Figs. 3 vs 5).
	RateHTInsert = 12e6
	// RateHTPrune: hash-table entries scanned per second in the prune pass.
	RateHTPrune = 30e6
	// RatePack: bytes packed into send buffers per second.
	RatePack = 400e6
	// RateOverlapScan: retained k-mers scanned per second in Algorithm 1.
	RateOverlapScan = 10e6
	// RatePairGen: read-pair tasks generated/buffered per second.
	RatePairGen = 10e6
	// RateCell: alignment DP cells computed per second (x-drop kernel).
	RateCell = 300e6
	// RateSeedPrep: alignment seeds prepared (sorted/filtered) per second.
	RateSeedPrep = 8e6
)
