//go:build !amd64

// Package cpuid reports the instruction-set extensions the assembly kernels
// of this module need. Each kernel package reads it once, at start-up, into
// the variable that selects its kernel.
package cpuid

// AVX2 is false off amd64, where no kernel is written in assembly.
func AVX2() bool { return false }
