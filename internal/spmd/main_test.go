package spmd

import (
	"os"
	"testing"
)

// Every test in the package runs with recycled rows poisoned: a callback
// that keeps a row past its time reads 0xDB, not stale data that happens to
// pass.
func TestMain(m *testing.M) {
	PoisonRecycledRows()
	os.Exit(m.Run())
}
