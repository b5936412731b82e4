#include "textflag.h"

// func AVX2() bool
//
// AVX2 is usable when the CPU has it (leaf 7 EBX bit 5) and AVX (leaf 1 ECX
// bit 28), and the OS saves the YMM state: OSXSAVE (leaf 1 ECX bit 27) and
// XCR0 bits 1 and 2.
TEXT ·AVX2(SB), NOSPLIT, $0-1
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX
	JCC   no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
