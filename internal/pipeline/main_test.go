package pipeline

import (
	"os"
	"testing"

	"dibella/internal/spmd"
)

// Every run in the package's tests exchanges with recycled rows poisoned,
// so the byte-identity tests also hold the build to the row lifetimes
// spmd.Rounds states.
func TestMain(m *testing.M) {
	spmd.PoisonRecycledRows()
	os.Exit(m.Run())
}
