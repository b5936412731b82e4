//go:build !amd64

package align

// setAssembly has nothing to switch off amd64: the Go loop is the kernel.
func setAssembly(bool) (was bool) { return false }
