//go:build !amd64

package align

// useAVX2 is false off amd64: the Go loop in antidiagonal is the kernel.
const useAVX2 = false

func antidiagonalAVX2(c, p1, p2 *int32, ai, bj *byte, width int, k *[4]int32) int32 {
	panic("align: no vector leaf on this architecture")
}
