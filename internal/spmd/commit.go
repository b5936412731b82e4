package spmd

import (
	"fmt"
	"strconv"
	"strings"

	"dibella/internal/wire"
)

// Collective commit: the epoch-agreement primitive under checkpoint
// snapshots. A snapshot is only valid when every rank durably wrote its
// segment; a rank that failed (disk full, permission, torn write) must
// veto the whole epoch, or a later restart would resume from a partial
// world. AgreeCommit is the barrier that turns P independent write
// outcomes into one world-wide decision, with every rank seeing the same
// votes (digests included) so rank 0 can record them in the manifest.

// CommitVote is one rank's contribution to an epoch commit: whether its
// local side effect (segment write) succeeded, and the digest and size of
// what it wrote, for the committing rank's manifest.
type CommitVote struct {
	OK     bool
	Err    string // non-empty only when !OK; surfaced in the agreed error
	Digest uint64
	Bytes  int64
}

// AgreeCommit gathers every rank's vote for the current epoch and returns
// all votes in rank order plus the agreed decision: commit only if every
// rank voted OK. All ranks receive identical votes and decision, so the
// commit point (rank 0 publishing the manifest) and every rank's
// success/failure path stay in lockstep — the epoch-barrier semantics the
// checkpoint subsystem's crash consistency rests on.
func AgreeCommit(c *Comm, v CommitVote) ([]CommitVote, bool) {
	var ok uint8
	if v.OK {
		ok = 1
	}
	mine := wire.U64(wire.U64(wire.Bytes(wire.U8(nil, ok), v.Err), v.Digest), uint64(v.Bytes))
	votes, agreed := make([]CommitVote, c.Size()), true
	for rank, b := range Allgather(c, mine) {
		r := wire.NewReader(b)
		votes[rank] = CommitVote{OK: r.U8() == 1, Err: r.String(), Digest: r.U64(), Bytes: int64(r.U64())}
		if err := r.Finish(); err != nil {
			panic(fmt.Sprintf("spmd: commit vote from rank %d: %v", rank, err))
		}
		agreed = agreed && votes[rank].OK
	}
	return votes, agreed
}

// CommitFailure renders the veto(s) of a failed epoch, one line per
// failed rank.
func CommitFailure(votes []CommitVote) string {
	var b strings.Builder
	for rank, vote := range votes {
		if vote.OK {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		b.WriteString("rank ")
		b.WriteString(strconv.Itoa(rank))
		b.WriteString(": ")
		if vote.Err == "" {
			b.WriteString("write failed")
		} else {
			b.WriteString(vote.Err)
		}
	}
	return b.String()
}
