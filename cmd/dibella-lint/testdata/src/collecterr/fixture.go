// Package collecterr is a dibella-lint test fixture: dropped and
// consumed results of collective / checkpoint operations. Expected
// diagnostics are encoded in the // want comments (see lint_test.go).
package collecterr

import (
	"dibella/internal/ckpt"
	"dibella/internal/spmd"
)

// BadDroppedDecision ignores whether the world agreed to commit.
func BadDroppedDecision(c *spmd.Comm, v spmd.CommitVote) {
	spmd.AgreeCommit(c, v) // want collecterr:"commit decision"
}

// BadBlankDecision reads the votes but blanks the decision.
func BadBlankDecision(c *spmd.Comm, v spmd.CommitVote) []spmd.CommitVote {
	votes, _ := spmd.AgreeCommit(c, v) // want collecterr:"assigned to _"
	return votes
}

// BadDroppedError discards a world-runner error.
func BadDroppedError(fn func(*spmd.Comm) error) {
	spmd.Run(2, fn) // want collecterr:"error of spmd.Run is dropped"
}

// BadDeferredManifest defers a call whose error vanishes.
func BadDeferredManifest(dir string) {
	defer ckpt.ReadManifest(dir) // want collecterr:"deferred ckpt.ReadManifest"
}

// GoodChecked consumes the decision.
func GoodChecked(c *spmd.Comm, v spmd.CommitVote) bool {
	_, ok := spmd.AgreeCommit(c, v)
	return ok
}

// GoodError propagates the runner error.
func GoodError(fn func(*spmd.Comm) error) error {
	return spmd.Run(2, fn)
}

// GoodTeardown: Close and Abort are exempt teardown — deferring Close is
// the idiom, and neither can desynchronize a world already unwinding.
func GoodTeardown(tr spmd.Transport) {
	defer tr.Close()
	tr.Abort()
}
