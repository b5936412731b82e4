//go:build !amd64

package align

// useAVX2 is false off amd64: the Go loop in advance is the kernel.
const useAVX2 = false

func (w *workspace) steady(a, brev []byte) (alive bool) {
	panic("align: no assembly kernel on this architecture")
}
