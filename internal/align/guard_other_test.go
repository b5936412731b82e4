//go:build !linux

package align

import "testing"

// guardPaged is a plain copy where no page is made to fault: the fuzz
// target still runs, without the fault that finds a stray read.
func guardPaged(_ testing.TB, b []byte, _ bool) []byte {
	return append([]byte(nil), b...)
}
