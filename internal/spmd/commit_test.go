package spmd

import (
	"bytes"
	"strings"
	"testing"
)

func TestAgreeCommitUnanimous(t *testing.T) {
	const p = 4
	err := Run(p, func(c *Comm) error {
		votes, ok := AgreeCommit(c, CommitVote{
			OK: true, Digest: uint64(c.Rank()) + 100, Bytes: int64(c.Rank()) * 10,
		})
		if !ok {
			t.Errorf("rank %d: unanimous commit rejected", c.Rank())
		}
		if len(votes) != p {
			t.Errorf("rank %d: %d votes, want %d", c.Rank(), len(votes), p)
		}
		for r, v := range votes {
			if v.Digest != uint64(r)+100 || v.Bytes != int64(r)*10 {
				t.Errorf("rank %d: vote[%d] = %+v", c.Rank(), r, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAgreeCommitVetoed(t *testing.T) {
	const p = 3
	err := Run(p, func(c *Comm) error {
		v := CommitVote{OK: true}
		if c.Rank() == 1 {
			v = CommitVote{OK: false, Err: "disk full"}
		}
		votes, ok := AgreeCommit(c, v)
		if ok {
			t.Errorf("rank %d: vetoed epoch committed", c.Rank())
		}
		msg := CommitFailure(votes)
		if !strings.Contains(msg, "rank 1") || !strings.Contains(msg, "disk full") {
			t.Errorf("rank %d: failure message %q", c.Rank(), msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeCommitVote: arbitrary bytes from a peer never panic the vote
// decoder, and a vote it accepts re-encodes to exactly the bytes it came
// from — the decoder reads nothing the encoder does not write.
func FuzzDecodeCommitVote(f *testing.F) {
	f.Add(encodeVote(CommitVote{OK: true, Digest: 0xC0FFEE, Bytes: 4096}))
	f.Add(encodeVote(CommitVote{Err: "disk full", Digest: 7, Bytes: -1}))
	// An error string that claims 2^32-1 bytes and delivers none.
	f.Add([]byte{0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := decodeVote(b)
		if err != nil {
			return
		}
		if back := encodeVote(v); !bytes.Equal(back, b) {
			t.Fatalf("re-encoding differs: %x -> %+v -> %x", b, v, back)
		}
	})
}

func TestCommitFailureDefaultMessage(t *testing.T) {
	msg := CommitFailure([]CommitVote{{OK: true}, {OK: false}})
	if !strings.Contains(msg, "rank 1: write failed") {
		t.Errorf("got %q", msg)
	}
}
