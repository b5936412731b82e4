// Package cpuid reports the instruction-set extensions the assembly kernels
// of this module need. Each kernel package reads it once, at start-up, into
// the variable that selects its kernel.
package cpuid

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM registers
// (cpuid_amd64.s), and LZCNT, which every CPU with AVX2 has and the x-drop
// routine uses.
func AVX2() bool
