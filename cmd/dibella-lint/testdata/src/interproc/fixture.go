// Package interproc is a dibella-lint test fixture for the
// interprocedural engine: every violation here reaches its collective
// (or its rank value) through the helpers package, so catching it
// requires the cross-package call-graph summaries. Expected diagnostics
// are encoded in the // want comments (see lint_test.go).
package interproc

import (
	"dibella/cmd/dibella-lint/testdata/src/interproc/helpers"
	"dibella/internal/spmd"
)

// BadHelperCollective guards a collective-bearing helper on the rank:
// no spmd call in sight, but rank 0 runs an Allgather the other ranks
// never join.
func BadHelperCollective(c *spmd.Comm) {
	if c.Rank() == 0 {
		helpers.DoExchange(c, 1) // want spmdorder:"helpers.DoExchange"
	}
}

// BadHelperRank derives its guard from the rank through two helper
// layers: MyRank's result is rank-labeled and Half forwards it.
func BadHelperRank(c *spmd.Comm) {
	half := helpers.Half(helpers.MyRank(c))
	if half == 0 {
		c.Barrier() // want spmdorder:"control-dependent on the rank"
	}
}

// BadRankTripCount passes a rank-derived trip count to a helper whose
// parameter bounds a collective loop: ranks issue different numbers of
// barriers.
func BadRankTripCount(c *spmd.Comm) {
	helpers.RunRounds(c, c.Rank()) // want spmdorder:"controls how many collectives"
}

// GoodUnconditionalHelper sends rank-derived *data* through an
// unconditional collective-bearing helper: every rank runs the same
// exchange, only the payload differs. Never flagged.
func GoodUnconditionalHelper(c *spmd.Comm) []int64 {
	return helpers.DoExchange(c, int64(c.Rank()))
}

// GoodSanitized launders a rank-derived decision through a Bcast before
// branching on it: after the broadcast every rank holds the same value,
// so the guarded barrier cannot diverge.
func GoodSanitized(c *spmd.Comm) {
	leader := helpers.MyRank(c) == 0
	decision := spmd.Bcast(c, leader, 0)
	if decision {
		c.Barrier()
	}
}

// GoodRankLocalLoop runs a rank-bounded loop with no collective inside:
// rank-dependent local work is the whole point of SPMD.
func GoodRankLocalLoop(c *spmd.Comm) int {
	sum := 0
	for i := 0; i < helpers.MyRank(c); i++ {
		sum += i
	}
	return sum
}

// SuppressedHelper shows the interprocedural finding riding the same
// suppression machinery as the direct ones.
func SuppressedHelper(c *spmd.Comm) {
	if c.Rank() == 0 {
		//lint:ignore spmdorder fixture exercising suppression of a via-helper finding
		helpers.DoExchange(c, 2) // wantsup spmdorder:"helpers.DoExchange"
	}
}

// StaleDirective carries a well-formed directive that excuses nothing:
// the barrier below is unconditional, so the directive itself is
// reported (as analyzer "suppress", which cannot be suppressed).
func StaleDirective(c *spmd.Comm) {
	//lint:ignore spmdorder this barrier used to be rank-guarded
	// want(-1) suppress:"suppresses nothing"
	c.Barrier()
}
