package dht

import (
	"fmt"

	"dibella/internal/bella"
	"dibella/internal/bloom"
	"dibella/internal/kmer"
	"dibella/internal/machine"
	"dibella/internal/spmd"
	"dibella/internal/stats"
	"dibella/internal/trace"
	"dibella/internal/walltime"
)

// Flight-recorder span names for the two construction passes.
const (
	traceBloomPass = "stage.bloom"
	traceHashPass  = "stage.hash"
)

// LocalReads is one rank's block of the read set: sequences with global
// IDs IDStart, IDStart+1, ...
type LocalReads struct {
	IDStart uint32
	Seqs    [][]byte
}

// Config controls hash-table construction.
type Config struct {
	K       int // k-mer length
	MaxFreq int // high-frequency cutoff m

	// MaxKmersPerRound bounds per-rank memory per exchange round
	// (default 1<<16: a round's 1 MiB of hash-pass records stays in cache
	// between pack and send; the package comment has the measurements).
	MaxKmersPerRound int

	// BloomFP is the Bloom filter's target false-positive rate
	// (default 0.01).
	BloomFP float64

	// DistinctRatio estimates |distinct k-mers| / |k-mer bag| when sizing
	// the Bloom filter from Equation 2 (default from bella theory given
	// ErrorRate; fallback 0.75).
	DistinctRatio float64
	ErrorRate     float64 // used to derive DistinctRatio when set

	// MinimizerWindow > 1 ships only (w,k)-minimizers instead of every
	// k-mer (the Minimap2-style compaction of §11's related work),
	// cutting exchange volume by ~(w+1)/2 at a small recall cost.
	// 0 or 1 disables.
	MinimizerWindow int

	// Async schedules each pass's exchanges as non-blocking collectives:
	// round r+1 is packed and posted while round r's exchange is still in
	// flight and round r's received k-mers are inserted after it lands, so
	// exchange cost is hidden under local work (modeled as max rather than
	// sum). The inserted data is identical to the blocking schedule.
	Async bool

	// BuildDepth is how many exchanges the Async round pipeline keeps in
	// flight per pass (default 2 — the schedule the repo has always run;
	// capped at spmd.MaxStreamDepth). Depth 1 degenerates to the blocking
	// schedule. The inserted data is identical at every depth.
	BuildDepth int

	// KeepSingletons retains k-mers seen only once: the Bloom admission
	// heuristic is bypassed (every received key gets a table entry) and
	// the prune drops only the high-frequency tail. Serve mode needs this
	// — a query read's occurrence can lift an indexed singleton to count 2
	// in the combined run the house invariant compares against, so the
	// resident index must keep singletons to reproduce those pairs.
	KeepSingletons bool
}

func (cfg *Config) setDefaults() error {
	if !kmer.ValidK(cfg.K) {
		return fmt.Errorf("dht: invalid k %d", cfg.K)
	}
	if cfg.MaxFreq < 2 {
		return fmt.Errorf("dht: max frequency %d must be >= 2", cfg.MaxFreq)
	}
	if cfg.MaxKmersPerRound <= 0 {
		cfg.MaxKmersPerRound = 1 << 16
	}
	if cfg.BloomFP == 0 {
		cfg.BloomFP = 0.01
	}
	if cfg.BloomFP < 0 || cfg.BloomFP >= 1 {
		return fmt.Errorf("dht: bloom false-positive rate %v out of (0,1)", cfg.BloomFP)
	}
	if cfg.DistinctRatio == 0 {
		if cfg.ErrorRate > 0 {
			// Erroneous instances are distinct with near certainty.
			cfg.DistinctRatio = 1 - bella.ProbKmerCorrect(cfg.ErrorRate, cfg.K) + 0.05
		} else {
			cfg.DistinctRatio = 0.75
		}
	}
	if cfg.MinimizerWindow < 0 {
		return fmt.Errorf("dht: minimizer window %d must be non-negative", cfg.MinimizerWindow)
	}
	if cfg.BuildDepth == 0 {
		cfg.BuildDepth = 2
	}
	if cfg.BuildDepth < 1 || cfg.BuildDepth > spmd.MaxStreamDepth {
		return fmt.Errorf("dht: build depth %d out of [1,%d]", cfg.BuildDepth, spmd.MaxStreamDepth)
	}
	if !cfg.Async {
		cfg.BuildDepth = 1 // the paper's bulk-synchronous pack → exchange → process
	}
	return nil
}

// StageStats is the per-rank accounting of one pipeline stage, split the
// way the paper's Fig. 4 splits efficiency: packing (send-buffer
// construction), local processing, and exchange.
type StageStats struct {
	Rounds        int
	KmersParsed   int64
	KmersReceived int64
	BytesPacked   int64
	stats.Breakdown
}

// BuildStats reports both construction stages plus sizing diagnostics.
type BuildStats struct {
	Bloom            StageStats
	Hash             StageStats
	BloomBits        uint64
	DistinctEstimate float64
	TableEntries     int   // keys resident after the Bloom pass
	Retained         int   // keys surviving the prune
	PrunedSingleton  int   // Bloom false positives removed
	PrunedHighFreq   int   // repeat k-mers removed (count > m)
	BloomMemBytes    int64 // resident bytes at the Bloom pass's end (filter + nascent table + exchange buffers)
	// ExchangeMemBytes is what the two passes' exchanges hold, the hash
	// pass's wider records included: the ring of send rows both pack into
	// and, on a transport that does not share memory, the received frames
	// borrowed from its pool.
	ExchangeMemBytes int64
}

// pricer converts counted operations into virtual time on c's clock; a nil
// model prices everything at zero (wall time is still measured).
type pricer struct {
	c     *spmd.Comm
	model *machine.Model
}

func (p pricer) tick(ops, rate, workingSet float64) float64 {
	if p.model == nil || ops <= 0 {
		return 0
	}
	d := p.model.ComputeTime(ops, rate, workingSet)
	p.c.Tick(d)
	return d
}

// Build constructs this rank's hash-table partition from its local reads,
// running both passes. All ranks must call it collectively.
func Build(c *spmd.Comm, model *machine.Model, reads LocalReads, cfg Config) (*Partition, BuildStats, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, BuildStats{}, err
	}
	pr := pricer{c: c, model: model}
	stats := BuildStats{}

	// Agree on the global round count from what each rank will actually
	// stream: a minimizer run ships only the (w,k)-minimizers, so sizing
	// rounds by the full k-mer count would schedule ~(w+1)/2 empty
	// all-to-all rounds per pass. The full bag count still sizes the Bloom
	// filter (Eq. 2 is stated over k-mer instances).
	localKmers := int64(0)
	for _, s := range reads.Seqs {
		localKmers += int64(kmer.Count(len(s), cfg.K))
	}
	localUnits := localKmers
	if cfg.MinimizerWindow > 1 {
		localUnits = 0
		for _, s := range reads.Seqs {
			localUnits += int64(kmer.MinimizerCount(s, cfg.K, cfg.MinimizerWindow))
		}
	}
	rounds := int(spmd.AllreduceI64(c,
		(localUnits+int64(cfg.MaxKmersPerRound)-1)/int64(cfg.MaxKmersPerRound),
		spmd.OpMax))
	globalBag := spmd.AllreduceI64(c, localKmers, spmd.OpSum)

	// Size the Bloom filter. A minimizer run inserts only ~2/(w+1) of the
	// bag, so the Eq. 2 estimate scales by the minimizer density. Sizing
	// never affects output — a Bloom false positive creates a table entry
	// whose count stays below 2 and is pruned — only memory and modeled
	// insert time.
	stats.DistinctEstimate = float64(globalBag) * cfg.DistinctRatio *
		kmer.MinimizerDensity(cfg.MinimizerWindow)
	perRank := uint64(stats.DistinctEstimate/float64(c.Size())*1.1) + 64
	filter := bloom.NewWithEstimate(perRank, cfg.BloomFP)
	stats.BloomBits = filter.NumBits()

	part := &Partition{K: cfg.K, MaxFreq: cfg.MaxFreq}
	if cfg.KeepSingletons {
		// Every distinct key gets an entry, and perRank is the Eq. 2
		// estimate of how many this rank will see: size the table once.
		part.reserve(int(perRank))
	}

	// Both passes exchange out of one ring of send rows.
	bufs := spmd.NewRoundBufs(cfg.BuildDepth)

	// Pass 1: Bloom filter construction.
	rec := trace.Rec(c.Rank())
	rec.Begin(traceBloomPass, c.Now())
	stats.Bloom = bloomPass(c, pr, reads, cfg, bufs, rounds, localUnits, filter, part)
	stats.TableEntries = part.n
	// The Bloom stage's peak footprint is the filter plus the nascent
	// table — both alive this one instant, the filter freed just below —
	// plus what it exchanged through.
	stats.BloomMemBytes = part.MemBytes() + int64(filter.NumBits()/8) + bufs.MemBytes()
	rec.End(traceBloomPass, c.Now(), stats.Bloom.BytesPacked)
	// The paper frees the Bloom filter here; dropping the reference is the
	// Go equivalent.
	filter = nil
	_ = filter

	// Pass 2: occurrence accumulation and pruning.
	rec.Begin(traceHashPass, c.Now())
	stats.Hash = hashPass(c, pr, reads, cfg, bufs, rounds, localUnits, part)
	stats.ExchangeMemBytes = bufs.MemBytes()
	t0 := walltime.Now()
	prunedS, prunedH := part.prune(cfg.KeepSingletons)
	stats.Hash.LocalVirtual += pr.tick(float64(stats.TableEntries),
		machine.RateHTPrune, float64(stats.TableEntries)*64)
	stats.Hash.LocalWall += walltime.Since(t0)
	stats.PrunedSingleton, stats.PrunedHighFreq = prunedS, prunedH
	stats.Retained = part.n
	rec.End(traceHashPass, c.Now(), stats.Hash.BytesPacked)
	return part, stats, nil
}

// stream walks a rank's reads emitting k-mers (or minimizers) in batches
// across rounds. It also counts the k-mers *scanned* to produce what it
// emits: a minimizer stream still reads every k-mer to find each window's
// minimum, so local parse time is priced on the scanned count while
// packing and exchange scale with the emitted count.
type stream struct {
	reads   LocalReads
	k       int
	w       int // minimizer window; <=1 streams every k-mer
	idx     int
	sc      kmer.Scanner // over the current read, held by value: no allocation per read
	inRead  bool
	mins    []kmer.Extracted // current read's minimizers (w > 1)
	mIdx    int
	scanned int64 // k-mers scanned since the last takeScanned
}

func newStream(reads LocalReads, k, w int) *stream {
	return &stream{reads: reads, k: k, w: w}
}

// takeScanned returns and resets the count of k-mers scanned since the
// previous call. In exact mode it equals the emitted count; in minimizer
// mode it is larger by ~(w+1)/2.
func (s *stream) takeScanned() int64 {
	n := s.scanned
	s.scanned = 0
	return n
}

// next returns the next extracted k-mer, ok=false at end of all reads.
func (s *stream) next() (kmer.Extracted, bool) {
	if s.w > 1 {
		for {
			if s.mIdx < len(s.mins) {
				ex := s.mins[s.mIdx]
				s.mIdx++
				return ex, true
			}
			if s.idx >= len(s.reads.Seqs) {
				return kmer.Extracted{}, false
			}
			seq := s.reads.Seqs[s.idx]
			s.mins = kmer.Minimizers(seq, s.k, s.w, s.reads.IDStart+uint32(s.idx))
			s.scanned += int64(kmer.Count(len(seq), s.k))
			s.mIdx = 0
			s.idx++
		}
	}
	for {
		if !s.inRead {
			if s.idx >= len(s.reads.Seqs) {
				return kmer.Extracted{}, false
			}
			s.sc, s.inRead = *kmer.NewScanner(s.reads.Seqs[s.idx], s.k, s.reads.IDStart+uint32(s.idx)), true
			s.idx++
		}
		ex, ok := s.sc.Next()
		if ok {
			s.scanned++
			return ex, true
		}
		s.inRead = false
	}
}

// addComm accumulates one collective's exchange and overlap cost into the
// stage breakdown from Comm stats snapshots taken around it.
func (st *StageStats) addComm(pre, post spmd.Stats) {
	st.ExchangeVirtual += post.ExchangeVirtual - pre.ExchangeVirtual
	st.OverlapVirtual += post.OverlapVirtual - pre.OverlapVirtual
	st.ExchangeWall += post.ExchangeWall - pre.ExchangeWall
	st.OverlapWall += post.OverlapWall - pre.OverlapWall
}

// runRounds drives one pass's exchange rounds through spmd.Rounds: pack
// fills the next round's send rows (charging parse/pack time to st), process
// consumes one round's received batches. bufs carries the window: with
// cfg.Async up to cfg.BuildDepth exchanges are in flight (default 2),
// without it one, the paper's bulk-synchronous pack → exchange → process.
// The process calls see identical data in identical order either way.
//
// Exchange/overlap accounting snapshots Comm stats once around the whole
// pass: pack and process only tick local time, so every stats delta in
// the window belongs to the pass's exchanges (including posting costs).
func runRounds[T any](c *spmd.Comm, st *StageStats, bufs *spmd.RoundBufs, rounds int,
	pack func([][]T), process func([][]T)) {

	pre := c.Stats()
	spmd.Rounds(c, bufs, rounds, pack, process)
	st.addComm(pre, c.Stats())
}

// sizeRows gives every send row of a set that has not been round the ring
// yet its memory, once. A round ships at most MaxKmersPerRound records and
// Owner spreads them uniformly, so n/p plus a sixteenth (dozens of standard
// deviations at any n that matters) does not regrow; append's doubling
// remains the fallback for a stream skewed by one very frequent k-mer, and
// the ring keeps what it grew. Rows are sized for the hash pass's records
// whichever pass meets them first: the Bloom pass, whose keys are half as
// wide, asks for fit = 2 of them per record and packs into the same memory.
func sizeRows[T any](send [][]T, cfg Config, left, fit int64) {
	p := int64(len(send))
	n := max(0, min(left, int64(cfg.MaxKmersPerRound)))
	per := min(n, n/p+n/(16*p)+32) * fit
	for dst := range send {
		if cap(send[dst]) == 0 && per > 0 {
			send[dst] = make([]T, 0, per)
		}
	}
}

// bloomPass streams k-mer keys to their owners and populates the Bloom
// filter, seeding the table with keys seen (probably) more than once. left
// is how many keys this rank's stream will emit (an upper bound when reads
// contain non-ACGT bytes).
func bloomPass(c *spmd.Comm, pr pricer, reads LocalReads, cfg Config, bufs *spmd.RoundBufs, rounds int, left int64,
	filter *bloom.Filter, part *Partition) StageStats {

	st := StageStats{Rounds: rounds}
	p := c.Size()
	str := newStream(reads, cfg.K, cfg.MinimizerWindow)
	ws := func() float64 {
		return float64(filter.SizeBytes()) + float64(part.n)*48
	}
	pack := func(send [][]kmer.Kmer) {
		t0 := walltime.Now()
		sizeRows(send, cfg, left, 2)
		parsed := int64(0)
		for parsed < int64(cfg.MaxKmersPerRound) {
			ex, ok := str.next()
			if !ok {
				break
			}
			dst := ex.Kmer.Owner(p)
			send[dst] = append(send[dst], ex.Kmer)
			parsed++
		}
		left -= parsed
		st.KmersParsed += parsed
		// Parse time covers every k-mer scanned, not just those shipped:
		// a minimizer stream reads the full bag to select its windows'
		// minima, and nothing is modeled as free.
		st.LocalVirtual += pr.tick(float64(str.takeScanned()), machine.RateParse, ws())
		st.LocalWall += walltime.Since(t0)
		t0 = walltime.Now()
		st.BytesPacked += parsed * 8
		st.PackVirtual += pr.tick(float64(parsed*8), machine.RatePack, ws())
		st.PackWall += walltime.Since(t0)
	}
	process := func(recv [][]kmer.Kmer) {
		t0 := walltime.Now()
		received := int64(0)
		for _, batch := range recv {
			for _, km := range batch {
				// Serve-mode index: every distinct key gets an entry — a
				// later query occurrence may be its second sighting.
				if cfg.KeepSingletons || filter.InsertAndTest(km.Hash()) {
					part.admit(km)
				}
				received++
			}
		}
		st.KmersReceived += received
		st.LocalVirtual += pr.tick(float64(received), machine.RateBloomInsert, ws())
		st.LocalWall += walltime.Since(t0)
	}
	runRounds(c, &st, bufs, rounds, pack, process)
	return st
}

// occMsg is the pass-2 wire record: 16 bytes per occurrence.
type occMsg struct {
	Km kmer.Kmer
	O  Occ
}

// hashPass streams occurrences to owners, accumulating counts and
// locations for resident keys. left is as in bloomPass.
func hashPass(c *spmd.Comm, pr pricer, reads LocalReads, cfg Config, bufs *spmd.RoundBufs, rounds int, left int64,
	part *Partition) StageStats {

	st := StageStats{Rounds: rounds}
	p := c.Size()
	str := newStream(reads, cfg.K, cfg.MinimizerWindow)
	ws := func() float64 { return float64(part.n) * 64 }
	// The Bloom pass counted what each resident key will receive: allocate
	// every occurrence span now, once.
	t0 := walltime.Now()
	part.layOut(cfg.KeepSingletons)
	st.LocalWall += walltime.Since(t0)
	pack := func(send [][]occMsg) {
		t0 := walltime.Now()
		sizeRows(send, cfg, left, 1)
		parsed := int64(0)
		for parsed < int64(cfg.MaxKmersPerRound) {
			ex, ok := str.next()
			if !ok {
				break
			}
			dst := ex.Kmer.Owner(p)
			send[dst] = append(send[dst], occMsg{Km: ex.Kmer, O: MakeOcc(ex.Occ.ReadID, ex.Occ.Pos, ex.Occ.Forward)})
			parsed++
		}
		left -= parsed
		st.KmersParsed += parsed
		// Full scan priced, as in bloomPass: minimizer selection is not
		// free even though only the minima travel.
		st.LocalVirtual += pr.tick(float64(str.takeScanned()), machine.RateParse, ws())
		st.LocalWall += walltime.Since(t0)
		t0 = walltime.Now()
		st.BytesPacked += parsed * 16
		st.PackVirtual += pr.tick(float64(parsed*16), machine.RatePack, ws())
		st.PackWall += walltime.Since(t0)
	}
	process := func(recv [][]occMsg) {
		t0 := walltime.Now()
		received := int64(0)
		for _, batch := range recv {
			for _, msg := range batch {
				if s := part.find(msg.Km); s != nil {
					part.record(s, msg.O)
				}
				received++
			}
		}
		st.KmersReceived += received
		st.LocalVirtual += pr.tick(float64(received), machine.RateHTInsert, ws())
		st.LocalWall += walltime.Since(t0)
	}
	runRounds(c, &st, bufs, rounds, pack, process)
	return st
}
