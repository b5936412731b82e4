//go:build race

package align

// raceEnabled: under -race sync.Pool drops a share of what is Put, so the
// zero-allocation test has nothing steady to measure.
const raceEnabled = true
