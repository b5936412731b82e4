package machine

import (
	"math"
	"testing"

	"dibella/internal/spmd"
)

var _ spmd.CommModel = (*Model)(nil)

func mustModel(t *testing.T, p Platform, nodes, rpn int) *Model {
	t.Helper()
	m, err := NewModel(p, nodes, rpn)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(Cori, 0, 1); err == nil {
		t.Error("nodes=0 accepted")
	}
	if _, err := NewModel(Cori, 1, 0); err == nil {
		t.Error("rpn=0 accepted")
	}
	if _, err := NewModel(Titan, 1, 17); err == nil {
		t.Error("rpn above core count accepted")
	}
	m := mustModel(t, Cori, 4, 32)
	if m.Ranks() != 128 {
		t.Errorf("Ranks = %d", m.Ranks())
	}
}

func TestPlatformByName(t *testing.T) {
	for _, name := range []string{"cori", "Edison", "TITAN", "aws"} {
		if _, err := PlatformByName(name); err != nil {
			t.Errorf("PlatformByName(%q): %v", name, err)
		}
	}
	if _, err := PlatformByName("summit"); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := PlatformByName(""); err == nil {
		t.Error("empty platform accepted")
	}
}

func TestNodeSpeedRanking(t *testing.T) {
	// Paper: Cori's nodes are the most capable, Edison next; AWS is
	// comparable to a Titan CPU node.
	if !(Cori.NodeSpeed() > Edison.NodeSpeed() &&
		Edison.NodeSpeed() > Titan.NodeSpeed()) {
		t.Errorf("node speeds: cori=%.1f edison=%.1f titan=%.1f",
			Cori.NodeSpeed(), Edison.NodeSpeed(), Titan.NodeSpeed())
	}
	ratio := AWS.NodeSpeed() / Titan.NodeSpeed()
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("AWS/Titan node speed ratio %.2f, want ~1", ratio)
	}
}

func TestAlltoallvTimeMonotoneInBytes(t *testing.T) {
	m := mustModel(t, Cori, 8, 32)
	prev := 0.0
	for _, b := range []float64{0, 1e3, 1e5, 1e7, 1e9} {
		cur := m.AlltoallvTime(5, b)
		if cur < prev {
			t.Errorf("AlltoallvTime not monotone at %v bytes", b)
		}
		prev = cur
	}
}

func TestFirstCallPenalty(t *testing.T) {
	for _, p := range Platforms {
		m := mustModel(t, p, 4, p.CoresPerNode)
		first := m.AlltoallvTime(0, 1e6)
		second := m.AlltoallvTime(1, 1e6)
		ratio := first / second
		if ratio < 1.3 || ratio > 6.0 {
			t.Errorf("%s: first/second call ratio %.2f", p.Name, ratio)
		}
	}
}

func TestSingleNodeExchangeCheaper(t *testing.T) {
	// Intra-node exchange must beat the same exchange spread over nodes.
	for _, p := range Platforms {
		one := mustModel(t, p, 1, p.CoresPerNode)
		many := mustModel(t, p, 8, p.CoresPerNode)
		bytesPerRank := 1e6
		if one.AlltoallvTime(3, bytesPerRank) >= many.AlltoallvTime(3, bytesPerRank) {
			t.Errorf("%s: intra-node exchange not cheaper", p.Name)
		}
	}
}

func TestAWSExchangeWorst(t *testing.T) {
	// Paper: all-to-all scales poorly everywhere but especially on AWS.
	const nodes = 16
	aws := mustModel(t, AWS, nodes, 16)
	tAWS := aws.AlltoallvTime(3, 1e6)
	for _, p := range []Platform{Cori, Edison, Titan} {
		m := mustModel(t, p, nodes, 16)
		if tAWS <= m.AlltoallvTime(3, 1e6) {
			t.Errorf("AWS exchange (%v) not slower than %s", tAWS, p.Name)
		}
	}
}

func TestEdisonLatencyAdvantage(t *testing.T) {
	// Table 1 measures Edison's 128-byte Get latency at 0.8 us vs Cori's
	// 2.7 us; that shows up in latency-bound collectives. Cori's newer
	// Aries wins on the bulk all-to-alls (it must, to lead Fig. 13
	// overall — a calibration choice, held by figures.TestSweepShapeClaims).
	cori := mustModel(t, Cori, 16, Cori.CoresPerNode)
	edison := mustModel(t, Edison, 16, Edison.CoresPerNode)
	if edison.CollectiveTime() >= cori.CollectiveTime() {
		t.Error("Edison latency-bound collectives should beat Cori")
	}
	if cori.AlltoallvTime(3, 1e9) >= edison.AlltoallvTime(3, 1e9) {
		t.Error("Cori bulk exchange should beat Edison at full rank density")
	}
}

func TestRankCapBindsOnlyAtLowDensity(t *testing.T) {
	// The single-rank injection cap must not perturb full-density jobs
	// (the cross-architecture sweeps) but must slow 1-rank-per-node jobs
	// (the Figs. 9-10 shape) relative to an uncapped NIC.
	full := mustModel(t, Cori, 8, Cori.CoresPerNode)
	uncapped := *full
	uncapped.Plat.BWRankCap = 0
	if full.AlltoallvTime(3, 1e6) != uncapped.AlltoallvTime(3, 1e6) {
		t.Error("cap perturbed a full-density exchange")
	}
	sparse := mustModel(t, Cori, 8, 1)
	sparseUncapped := *sparse
	sparseUncapped.Plat.BWRankCap = 0
	if sparse.AlltoallvTime(3, 1e8) <= sparseUncapped.AlltoallvTime(3, 1e8) {
		t.Error("cap did not bind for a 1-rank-per-node bulk exchange")
	}
}

func TestCacheMultiplierBounds(t *testing.T) {
	m := mustModel(t, Cori, 1, 32)
	lo := m.cacheMultiplier(1e12) // way out of cache
	hi := m.cacheMultiplier(1)    // fully cached
	if lo < 1 || lo > 1.05 {
		t.Errorf("out-of-cache multiplier %v", lo)
	}
	if hi < 2.0 || hi > 2.5 {
		t.Errorf("in-cache multiplier %v", hi)
	}
	if m.cacheMultiplier(0) != hi {
		t.Error("zero working set should be fully cached")
	}
}

func TestComputeTimeSuperlinearStrongScaling(t *testing.T) {
	// Halving both ops and working set must more than halve time once the
	// set nears cache size: that is the superlinear effect.
	m := mustModel(t, Cori, 1, 32)
	ws := m.Plat.LLCBytes / 32 * 4 // 4x a rank's cache share
	t1 := m.ComputeTime(1e8, RateParse, ws)
	t2 := m.ComputeTime(1e8/4, RateParse, ws/4)
	if t2 >= t1/4 {
		t.Errorf("no superlinear effect: t1=%v t2=%v", t1, t2)
	}
}

func TestComputeTimeZeroOps(t *testing.T) {
	m := mustModel(t, Cori, 1, 1)
	if m.ComputeTime(0, RateParse, 100) != 0 {
		t.Error("zero ops should cost zero")
	}
}

func TestComputeTimePlatformOrdering(t *testing.T) {
	// Per-core: a Titan Opteron core should be about half a Haswell core.
	coriM := mustModel(t, Cori, 1, 1)
	titanM := mustModel(t, Titan, 1, 1)
	tc := coriM.ComputeTime(1e8, RateParse, 1e12)
	tt := titanM.ComputeTime(1e8, RateParse, 1e12)
	if ratio := tt / tc; ratio < 1.7 || ratio > 2.6 {
		t.Errorf("Titan/Cori per-core time ratio %.2f, want ~2.1", ratio)
	}
}

func TestCollectiveTimeGrowsWithNodes(t *testing.T) {
	m1 := mustModel(t, Cori, 1, 32)
	m32 := mustModel(t, Cori, 32, 32)
	if m32.CollectiveTime() <= m1.CollectiveTime() {
		t.Error("collective time should grow with node count")
	}
}

func TestScaledModelConsistency(t *testing.T) {
	// A scaled model (fewer goroutines than modeled ranks) must price the
	// same *global* work identically to the full-density model.
	full, err := NewModel(Cori, 2, 32) // 64 ranks
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := NewModelScaled(Cori, 2, 8) // 8 goroutines for 64 ranks
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Ranks() != 8 || scaled.RealRanks() != 64 {
		t.Fatalf("shape: sim=%d real=%d", scaled.Ranks(), scaled.RealRanks())
	}
	// Global work W split evenly: full rank does W/64, scaled goroutine
	// does W/8 (8x more), with 8x the working set.
	const W = 1e9
	const WS = 64e6 // global working set bytes
	tFull := full.ComputeTime(W/64, RateParse, WS/64)
	tScaled := scaled.ComputeTime(W/8, RateParse, WS/8)
	if diff := (tScaled - tFull) / tFull; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("compute pricing differs: full %v scaled %v", tFull, tScaled)
	}
	// Same for exchanges: global payload B, per-participant share.
	const B = 1e8
	eFull := full.AlltoallvTime(3, B/64)
	eScaled := scaled.AlltoallvTime(3, B/8)
	if diff := (eScaled - eFull) / eFull; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("exchange pricing differs: full %v scaled %v", eFull, eScaled)
	}
}

func TestNewModelScaledValidation(t *testing.T) {
	if _, err := NewModelScaled(Cori, 0, 4); err == nil {
		t.Error("nodes=0 accepted")
	}
	if _, err := NewModelScaled(Cori, 2, 0); err == nil {
		t.Error("simRanks=0 accepted")
	}
	if _, err := NewModelScaled(Platform{}, 1, 1); err == nil {
		t.Error("zero platform accepted")
	}
}

func TestExchangeLatencyDominanceAtScale(t *testing.T) {
	// With tiny payloads and many ranks the latency term dominates, so
	// doubling nodes roughly doubles exchange time — the scaling wall the
	// paper observes for low-intensity workloads.
	m16 := mustModel(t, AWS, 16, 16)
	m32 := mustModel(t, AWS, 32, 16)
	t16 := m16.AlltoallvTime(3, 1e3)
	t32 := m32.AlltoallvTime(3, 1e3)
	if ratio := t32 / t16; ratio < 1.6 || ratio > 2.4 {
		t.Errorf("latency-bound scaling ratio %.2f, want ~2", ratio)
	}
}

func TestStreamChunkPricing(t *testing.T) {
	m := mustModel(t, Cori, 8, 32)
	const bytes = 256 << 10
	full := m.AlltoallvTime(3, bytes)
	chunk := m.StreamChunkTime(3, bytes)
	// One chunk round carries the same wire cost but only a fraction of
	// the per-peer software overhead, so it must be strictly cheaper than
	// a full exchange of the same bytes...
	if chunk >= full {
		t.Errorf("chunk round %v not cheaper than full exchange %v", chunk, full)
	}
	// ...while never being free: even an empty chunk pays its overhead.
	if m.StreamChunkTime(3, 0) <= 0 {
		t.Error("empty chunk round modeled as free")
	}
	// Splitting a payload into N chunks keeps the wire term and multiplies
	// the per-chunk overhead, so the chunked sum exceeds one full exchange
	// once N is large — the pipelining trade-off the chunk knob explores.
	const n = 64
	sum := float64(n) * m.StreamChunkTime(3, bytes/n)
	if sum <= full {
		t.Errorf("%d-way chunked sum %v does not exceed full exchange %v", n, sum, full)
	}
	// The first-exchange setup factor applies to chunk rounds as well.
	if first, later := m.StreamChunkTime(0, bytes), m.StreamChunkTime(3, bytes); first <= later {
		t.Errorf("first chunk round %v not dearer than later %v", first, later)
	}
}

func TestChunkPostTime(t *testing.T) {
	m := mustModel(t, Cori, 8, 32)
	cp := m.ChunkPostTime()
	if cp <= 0 {
		t.Error("chunk posting modeled as free")
	}
	if ip := m.IPostTime(); cp >= ip {
		t.Errorf("chunk post %v not cheaper than full non-blocking post %v", cp, ip)
	}
}

func TestSnapshotTimePricing(t *testing.T) {
	m, err := NewModel(Cori, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Never free: even a zero-byte snapshot pays the per-segment latency.
	if got := m.SnapshotTime(0); got <= 0 {
		t.Errorf("zero-byte snapshot priced at %v", got)
	}
	// Monotone in bytes.
	small, big := m.SnapshotTime(1<<20), m.SnapshotTime(64<<20)
	if big <= small {
		t.Errorf("64 MB snapshot (%v) not costlier than 1 MB (%v)", big, small)
	}
	// The bandwidth term dominates at size: 64 MB through a per-rank share
	// of 1.5 GB/s / 8 ranks is ~0.34 s.
	if big < 0.1 || big > 10 {
		t.Errorf("64 MB snapshot priced at %v s, outside plausible range", big)
	}
	// A platform without CkptBW falls back to the default instead of
	// dividing by zero.
	custom := Cori
	custom.CkptBW = 0
	mc, err := NewModel(custom, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := mc.SnapshotTime(1 << 20); got <= 0 || math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("default-bandwidth snapshot priced at %v", got)
	}
	// AWS's slower file system must price the same snapshot higher.
	ma, err := NewModel(AWS, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ma.SnapshotTime(64<<20) <= m.SnapshotTime(64<<20) {
		t.Error("AWS snapshot not costlier than Cori's")
	}
}
