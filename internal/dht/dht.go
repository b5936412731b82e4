package dht

import (
	"context"

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

	// ErrorRate, when set, derives the share of distinct k-mers in the bag
	// the Bloom filter is sized for (Equation 2); unset, it is 0.75.
	ErrorRate float64

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
	if cfg.MinimizerWindow < 0 {
		return fmt.Errorf("dht: minimizer window %d must be non-negative", cfg.MinimizerWindow)
	}
	return nil
}

// buildDepth is how many exchanges the Async round pipeline keeps in flight
// per pass: each round is posted one ahead of the round being processed.
// Depths 4 and 8 built no faster than 2 on the benchmark's inputs, and
// depth 1, the blocking schedule, is what Async off selects.
const buildDepth = 2

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
	TableEntries     int    // keys resident after the Bloom pass
	Retained         int    // keys surviving the prune
	PrunedSingleton  int    // Bloom false positives removed
	PrunedHighFreq   int    // repeat k-mers removed (count > m)
	BloomMemBytes    int64  // resident bytes at the Bloom pass's end (filter + nascent table + exchange buffers)
	OwnerBits        uint64 // every owner-filter segment together, at most BloomBits; 0 without owner filters
	// ExchangeMemBytes is what the two passes' exchanges hold, the hash
	// pass's wider records included: the ring of send rows both pack into
	// and, on a transport that does not share memory, the received frames
	// borrowed from its pool.
	ExchangeMemBytes int64
}

// Build constructs this rank's hash-table partition from its local reads,
// running both passes. All ranks must call it collectively.
func Build(c *spmd.Comm, model *machine.Model, reads LocalReads, cfg Config) (*Partition, BuildStats, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, BuildStats{}, err
	}
	bs := BuildStats{}

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
	distinct := 0.75 // |distinct k-mers| / |k-mer bag|
	if cfg.ErrorRate > 0 {
		// Erroneous instances are distinct with near certainty.
		distinct = 1 - bella.ProbKmerCorrect(cfg.ErrorRate, cfg.K) + 0.05
	}
	bs.DistinctEstimate = float64(globalBag) * distinct *
		kmer.MinimizerDensity(cfg.MinimizerWindow)
	perRank := uint64(bs.DistinctEstimate/float64(c.Size())*1.1) + 64
	filter := bloom.NewWithEstimate(perRank, cfg.BloomFP)
	bs.BloomBits = filter.NumBits()

	part := &Partition{K: cfg.K, MaxFreq: cfg.MaxFreq}
	if cfg.KeepSingletons {
		// Every distinct key gets an entry, and perRank is the Eq. 2
		// estimate of how many this rank will see: size the table once.
		part.reserve(int(perRank))
	}

	// Both passes exchange out of one ring of send rows.
	depth := 1 // without Async: the paper's bulk-synchronous schedule
	if cfg.Async {
		depth = buildDepth
	}
	bufs := spmd.NewRoundBufs(depth)

	// Pass 1: Bloom filter construction.
	rec := trace.Rec(c.Rank())
	rec.Begin(traceBloomPass, c.Now())
	trace.Do(context.Background(), traceBloomPass, c.Rank(), func(context.Context) {
		bs.Bloom = bloomPass(c, model, reads, cfg, bufs, rounds, localUnits, filter, part)
	})
	bs.TableEntries = part.n
	// The Bloom stage's peak footprint is the filter plus the nascent
	// table — both alive this one instant, the filter freed just below —
	// plus what it exchanged through.
	bs.BloomMemBytes = part.MemBytes() + int64(filter.NumBits()/8) + bufs.MemBytes()
	rec.End(traceBloomPass, c.Now(), bs.Bloom.BytesPacked)
	// The paper frees the Bloom filter here; dropping the reference is the
	// Go equivalent. Its bits are the owner filters' budget.
	freedBits := filter.NumBits()
	filter = nil
	_ = filter

	// Pass 2: occurrence accumulation and pruning, each occurrence shipped
	// only if its owner's table may hold its key. A KeepSingletons table
	// holds every key, so it has no owner filters, as it has no Bloom test.
	rec.Begin(traceHashPass, c.Now())
	bs.Hash = StageStats{Rounds: rounds}
	var err error
	trace.Do(context.Background(), traceHashPass, c.Rank(), func(context.Context) {
		var owners *bloom.Owners
		if !cfg.KeepSingletons {
			if owners, err = ownerFilters(c, model, cfg, part, freedBits, &bs.Hash); err != nil {
				return
			}
			if owners != nil {
				bs.OwnerBits = uint64(owners.SizeBytes()) * 8
			}
		}
		hashPass(c, model, reads, cfg, bufs, localUnits, part, owners, &bs.Hash)
		bs.ExchangeMemBytes = bufs.MemBytes()
		t0 := walltime.Now()
		bs.PrunedSingleton, bs.PrunedHighFreq = part.prune(cfg.KeepSingletons)
		bs.Hash.LocalVirtual += stats.Price(c, model, float64(bs.TableEntries),
			machine.RateHTPrune, float64(bs.TableEntries)*64)
		bs.Hash.LocalWall += walltime.Since(t0)
	})
	if err != nil {
		return nil, BuildStats{}, err
	}
	bs.Retained = part.n
	rec.End(traceHashPass, c.Now(), bs.Hash.BytesPacked)
	return part, bs, nil
}

// ownerFilters builds the world's owner filters: this rank inserts its table
// keys into its segment, and one Alltoallv gives every rank every segment.
// The segments are one size, for the largest table at cfg.BloomFP, and
// together take at most freedBits — past that the rate rises, not the
// memory; nil if freedBits cannot hold a block per rank. The work and the
// exchange are booked to st. A segment received at another size fails the
// build on every rank.
func ownerFilters(c *spmd.Comm, model *machine.Model, cfg Config, part *Partition, freedBits uint64, st *StageStats) (*bloom.Owners, error) {
	pre := c.Stats()
	defer func() { st.AddComm(pre, c.Stats()) }()
	keys := spmd.AllreduceI64(c, int64(part.n), spmd.OpMax)
	seg := bloom.NewCapped(uint64(keys), cfg.BloomFP, freedBits/uint64(c.Size()))
	if seg == nil {
		return nil, nil
	}
	t0 := walltime.Now()
	for i, ctrl := range part.used() {
		if ctrl != 0 {
			seg.InsertAndTest(part.slots[i].key.Hash())
		}
	}
	st.LocalVirtual += stats.Price(c, model, float64(part.n), machine.RateBloomInsert, float64(seg.SizeBytes()))
	st.LocalWall += walltime.Since(t0)
	st.BytesPacked += int64(seg.SizeBytes() * c.Size())
	return exchangeOwners(c, seg.Words(), len(seg.Words()))
}

// exchangeOwners sends mine, this rank's segment, to every rank and returns
// the owner filters of the segments received. Every rank sized its segment
// from the same agreed key count, so each must arrive at words words: one
// that does not is an error on every rank, naming the rank that sent it.
func exchangeOwners(c *spmd.Comm, mine []uint64, words int) (*bloom.Owners, error) {
	send := make([][]uint64, c.Size())
	for dst := range send {
		send[dst] = mine
	}
	recv := spmd.Alltoallv(c, send)
	if bad := spmd.AllreduceI64(c, int64(badSegment(recv, words)), spmd.OpMax); bad >= 0 {
		return nil, fmt.Errorf("dht: rank %d sent an owner-filter segment that is not the agreed %d words", bad, words)
	}
	return bloom.NewOwners(recv), nil
}

// badSegment returns the first rank whose segment is not words long, or -1.
func badSegment(segs [][]uint64, words int) int {
	for src, s := range segs {
		if len(s) != words {
			return src
		}
	}
	return -1
}

// stream walks a rank's reads emitting k-mers (or minimizers) in blocks
// across rounds. It also counts the k-mers *scanned* to produce what it
// emits: a minimizer stream still reads every k-mer to find each window's
// minimum, so local parse time is priced on the scanned count while
// packing and exchange scale with the emitted count.
type stream struct {
	reads   LocalReads
	k       int
	w       int // minimizer window; <=1 streams every k-mer
	idx     int
	sc      kmer.Scanner          // over the current read (exact), reset per read: no allocation per read
	mz      kmer.MinimizerScanner // over the current read (w > 1), its deque reused across reads
	inRead  bool
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

// fill writes the stream's next k-mers and their locations into keys and
// locs, crossing from read to read, and returns how many: len(keys) unless
// the reads ran out. The records and their order are those of the reads
// scanned one after another, however the calls cut them. A minimizer read
// is charged its whole scan when it starts.
func (s *stream) fill(keys []kmer.Kmer, locs []kmer.Loc) int {
	n := 0
	for n < len(keys) {
		if !s.inRead {
			if s.idx >= len(s.reads.Seqs) {
				break
			}
			seq, id := s.reads.Seqs[s.idx], s.reads.IDStart+uint32(s.idx)
			if s.w > 1 {
				s.mz.Reset(seq, s.k, s.w, id)
				s.scanned += int64(kmer.Count(len(seq), s.k))
			} else {
				s.sc.Reset(seq, s.k, id)
			}
			s.inRead = true
			s.idx++
		}
		var got int
		if s.w > 1 {
			got = s.mz.Fill(keys[n:], locs[n:])
		} else {
			got = s.sc.Fill(keys[n:], locs[n:])
			s.scanned += int64(got)
		}
		// A short fill means the read is done.
		s.inRead = got == len(keys)-n
		n += got
	}
	return n
}

// routeChunk is how many k-mers a pass's pack takes from its stream per
// fill and routes per call of the owner filters' kernel: 10 KiB of keys,
// locations and owners, on pack's stack.
const routeChunk = 512

// routeOwners writes the owner rank of each key among p.
func routeOwners(keys []kmer.Kmer, owner []int32, p int) {
	owner = owner[:len(keys)]
	for i, km := range keys {
		owner[i] = int32(km.Owner(p))
	}
}

// runRounds drives one pass's exchange rounds through spmd.Rounds: pack
// fills the next round's send rows (charging parse/pack time to st), process
// consumes one round's received batches. bufs carries the window: with
// cfg.Async up to buildDepth exchanges are in flight, without it one, the
// paper's bulk-synchronous pack → exchange → process.
// The process calls see identical data in identical order either way.
//
// Exchange/overlap accounting snapshots Comm stats once around the whole
// pass: pack and process only tick local time, so every stats delta in
// the window belongs to the pass's exchanges (including posting costs).
func runRounds[T any](c *spmd.Comm, st *StageStats, bufs *spmd.RoundBufs, rounds int,
	pack func([][]T), process func([][]T)) {

	pre := c.Stats()
	spmd.Rounds(c, bufs, rounds, pack, process)
	st.AddComm(pre, c.Stats())
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

// insertSlice is how many of a received row's keys bloomPass hands the
// Bloom filter at once, so that seen and hashes hold one slice's answer
// (48 KB at most), not a row's: grown to a row's (384 KB a rank), they
// raised the median peak RSS of a two-rank longread_align process by 4 MiB.
const insertSlice = 4096

// bloomPass streams k-mer keys to their owners and populates the Bloom
// filter, seeding the table with keys seen (probably) more than once. left
// is how many keys this rank's stream will emit (an upper bound when reads
// contain non-ACGT bytes).
func bloomPass(c *spmd.Comm, model *machine.Model, reads LocalReads, cfg Config, bufs *spmd.RoundBufs, rounds int, left int64,
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
		var (
			keys  [routeChunk]kmer.Kmer
			locs  [routeChunk]kmer.Loc
			owner [routeChunk]int32
		)
		parsed := int64(0)
		for parsed < int64(cfg.MaxKmersPerRound) {
			want := int(min(routeChunk, int64(cfg.MaxKmersPerRound)-parsed))
			n := str.fill(keys[:want], locs[:want])
			routeOwners(keys[:n], owner[:n], p)
			for i, dst := range owner[:n] {
				send[dst] = append(send[dst], keys[i])
			}
			parsed += int64(n)
			if n < want {
				break
			}
		}
		left -= parsed
		st.KmersParsed += parsed
		// Parse time covers every k-mer scanned, not just those shipped:
		// a minimizer stream reads the full bag to select its windows'
		// minima, and nothing is modeled as free.
		st.LocalVirtual += stats.Price(c, model, float64(str.takeScanned()), machine.RateParse, ws())
		st.LocalWall += walltime.Since(t0)
		t0 = walltime.Now()
		st.BytesPacked += parsed * 8
		st.PackVirtual += stats.Price(c, model, float64(parsed*8), machine.RatePack, ws())
		st.PackWall += walltime.Since(t0)
	}
	var (
		seen   []uint32 // indices of a slice's keys the filter had seen
		hashes []uint64 // and their hashes
	)
	process := func(recv [][]kmer.Kmer) {
		t0 := walltime.Now()
		received := int64(0)
		for _, batch := range recv {
			received += int64(len(batch))
			// Serve-mode index: every distinct key gets an entry — a
			// later query occurrence may be its second sighting.
			if cfg.KeepSingletons {
				for _, km := range batch {
					part.admit(km, km.Hash())
				}
				continue
			}
			for len(batch) > 0 {
				keys := batch[:min(len(batch), insertSlice)]
				batch = batch[len(keys):]
				seen, hashes = filter.InsertAndTestKmers(keys, seen[:0], hashes[:0])
				for j, i := range seen {
					part.admit(keys[i], hashes[j])
				}
			}
		}
		st.KmersReceived += received
		st.LocalVirtual += stats.Price(c, model, float64(received), machine.RateBloomInsert, ws())
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

// hashPass streams occurrences to owners, accumulating counts and locations
// for resident keys, into st. With owner filters (owners non-nil) an
// occurrence is shipped only if its owner's segment may hold its key; the
// filters have no false negatives, so every occurrence of a resident key
// still arrives, in the order it would have. left is as in bloomPass.
func hashPass(c *spmd.Comm, model *machine.Model, reads LocalReads, cfg Config, bufs *spmd.RoundBufs, left int64,
	part *Partition, owners *bloom.Owners, st *StageStats) {

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
		var (
			keys  [routeChunk]kmer.Kmer
			locs  [routeChunk]kmer.Loc
			owner [routeChunk]int32
		)
		parsed, shipped := int64(0), int64(0)
		for parsed < int64(cfg.MaxKmersPerRound) {
			want := int(min(routeChunk, int64(cfg.MaxKmersPerRound)-parsed))
			n := str.fill(keys[:want], locs[:want])
			if owners != nil {
				owners.Route(keys[:n], owner[:n])
			} else {
				routeOwners(keys[:n], owner[:n], p)
			}
			for i, dst := range owner[:n] {
				if dst >= 0 {
					send[dst] = append(send[dst], occMsg{Km: keys[i], O: LocOcc(locs[i])})
					shipped++
				}
			}
			parsed += int64(n)
			if n < want {
				break
			}
		}
		left -= parsed
		st.KmersParsed += parsed
		// Full scan priced, as in bloomPass: minimizer selection is not
		// free even though only the minima travel. So is the sender's probe
		// of the owner filters, one lookup per scanned k-mer.
		st.LocalVirtual += stats.Price(c, model, float64(str.takeScanned()), machine.RateParse, ws())
		if owners != nil {
			st.LocalVirtual += stats.Price(c, model, float64(parsed), machine.RateHTInsert, float64(owners.SizeBytes()))
		}
		st.LocalWall += walltime.Since(t0)
		t0 = walltime.Now()
		st.BytesPacked += shipped * 16
		st.PackVirtual += stats.Price(c, model, float64(shipped*16), machine.RatePack, ws())
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
		st.LocalVirtual += stats.Price(c, model, float64(received), machine.RateHTInsert, ws())
		st.LocalWall += walltime.Since(t0)
	}
	runRounds(c, st, bufs, st.Rounds, pack, process)
}
