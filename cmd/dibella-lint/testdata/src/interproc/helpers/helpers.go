// Package helpers is the support package of the interproc fixture: the
// functions here are deliberately clean on their own — the bugs live in
// the callers, which the engine can only see by flowing these summaries
// across the package boundary. lint_test.go checks this package stays
// diagnostic-free.
package helpers

import "dibella/internal/spmd"

// DoExchange wraps a collective. A caller that guards it on the rank
// diverges the collective schedule even though no spmd call appears in
// the caller's body.
func DoExchange(c *spmd.Comm, v int64) []int64 {
	return spmd.Allgather(c, v)
}

// MyRank is a rank wrapper: its result carries the rank label out of
// the package.
func MyRank(c *spmd.Comm) int {
	return c.Rank()
}

// Half forwards its parameter's label to its result (a splitter shape:
// rank in, rank-derived bound out).
func Half(n int) int {
	return n / 2
}

// RunRounds runs one barrier per round: the parameter bounds the
// collective trip count, so a rank-derived argument gives different
// ranks different schedules.
func RunRounds(c *spmd.Comm, rounds int) {
	for i := 0; i < rounds; i++ {
		c.Barrier()
	}
}
