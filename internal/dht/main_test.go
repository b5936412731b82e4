package dht

import (
	"os"
	"testing"

	"dibella/internal/spmd"
)

// Every build in the package's tests runs with recycled exchange rows
// poisoned: a pass that kept a received row past its process call, or a send
// row past its pack call, reads 0xDB and fails the equivalence tests.
func TestMain(m *testing.M) {
	spmd.PoisonRecycledRows()
	os.Exit(m.Run())
}
