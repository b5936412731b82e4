//go:build !amd64

package align

// useAVX2 is false off amd64: the Go loop in advance is the kernel.
const useAVX2 = false

func (w *workspace) runFronts(b *batch) {
	panic("align: no assembly kernel on this architecture")
}
