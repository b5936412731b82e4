package spmd

import (
	"cmp"
	"fmt"
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
// checkpoint subsystem's crash consistency rests on. A vote that does not
// decode is a peer's protocol violation, failed like a malformed row.
func AgreeCommit(c *Comm, v CommitVote) ([]CommitVote, bool) {
	votes, agreed := make([]CommitVote, c.Size()), true
	for rank, b := range Allgather(c, encodeVote(v)) {
		var err error
		if votes[rank], err = decodeVote(b); err != nil {
			collectiveFailed(c, "agree commit", fmt.Errorf("commit vote from rank %d: %w", rank, err))
		}
		agreed = agreed && votes[rank].OK
	}
	return votes, agreed
}

// encodeVote is a vote's wire form: the OK flag as one byte (0 or 1), the
// error string, the digest and the byte count.
func encodeVote(v CommitVote) []byte {
	var ok uint8
	if v.OK {
		ok = 1
	}
	return wire.U64(wire.U64(wire.Bytes(wire.U8(nil, ok), v.Err), v.Digest), uint64(v.Bytes))
}

// decodeVote reads what encodeVote wrote, and nothing else: an OK byte
// other than 0 or 1, a short input or trailing bytes are refused.
func decodeVote(b []byte) (CommitVote, error) {
	r := wire.NewReader(b)
	ok := r.U8()
	if ok > 1 {
		r.Fail(fmt.Errorf("OK flag %d is neither 0 nor 1", ok))
	}
	return CommitVote{OK: ok == 1, Err: r.String(), Digest: r.U64(), Bytes: int64(r.U64())}, r.Finish()
}

// CommitFailure renders the veto(s) of a failed epoch, one line per
// failed rank.
func CommitFailure(votes []CommitVote) string {
	var vetoes []string
	for rank, vote := range votes {
		if !vote.OK {
			msg := cmp.Or(vote.Err, "write failed")
			vetoes = append(vetoes, fmt.Sprintf("rank %d: %s", rank, msg))
		}
	}
	return strings.Join(vetoes, "; ")
}
