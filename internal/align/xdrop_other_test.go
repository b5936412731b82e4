//go:build !amd64

package align

// setLeaf has nothing to switch off amd64: the Go loop is the kernel.
func setLeaf(bool) (was bool) { return false }
