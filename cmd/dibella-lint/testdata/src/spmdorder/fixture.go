// Package spmdorder is a dibella-lint test fixture: collectives that are
// (and are not) control-dependent on the rank. Expected diagnostics are
// encoded in the // want comments (see lint_test.go).
package spmdorder

import "dibella/internal/spmd"

// BadRankBranch puts a collective under a rank test: the classic SPMD
// divergence bug — rank 0 enters the barrier, the rest never arrive.
func BadRankBranch(c *spmd.Comm) {
	if c.Rank() == 0 {
		c.Barrier() // want spmdorder:"control-dependent on the rank"
	}
}

// BadTaintedGuard reaches the collective through a variable derived from
// the rank, exercising the taint fixpoint.
func BadTaintedGuard(c *spmd.Comm) int64 {
	leader := c.Rank() == 0
	var total int64
	if leader {
		total = spmd.AllreduceI64(c, 1, spmd.OpSum) // want spmdorder:"AllreduceI64"
	}
	return total
}

// BadRankLoop runs a rank-dependent trip count around a collective, so
// different ranks issue different collective sequences.
func BadRankLoop(c *spmd.Comm) {
	for i := 0; i < c.Rank(); i++ {
		c.Barrier() // want spmdorder:"Comm.Barrier"
	}
}

// GoodComputeThenShare is the sanctioned idiom: rank-conditional *local*
// work, then an unconditional collective shares the result.
func GoodComputeThenShare(c *spmd.Comm) int {
	v := 0
	if c.Rank() == 0 {
		v = 42
	}
	return spmd.Bcast(c, v, 0)
}

// GoodUnconditional collectives are never flagged.
func GoodUnconditional(c *spmd.Comm) int64 {
	c.Barrier()
	return spmd.AllreduceI64(c, 1, spmd.OpMax)
}

// BadRankElse puts the collective in the else arm: the ranks that fail
// the test are the ones that diverge.
func BadRankElse(c *spmd.Comm) int {
	v := 0
	if c.Rank() == 0 {
		v = 1
	} else {
		c.Barrier() // want spmdorder:"control-dependent"
	}
	return v
}

// BadLaterCallee calls, under a rank test, a helper declared below it.
// The fixpoint's first sweep reaches this call before the helper's
// summary says it collects, so only sites kept from the final sweep,
// under the final summaries, report it.
func BadLaterCallee(c *spmd.Comm) {
	if c.Rank() == 0 {
		syncAll(c) // want spmdorder:"call to spmdorder.syncAll"
	}
}

// syncAll collects unconditionally: clean itself.
func syncAll(c *spmd.Comm) { c.Barrier() }
