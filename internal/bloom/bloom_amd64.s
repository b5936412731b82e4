#include "textflag.h"

// VEX encodings only, down to the move from a general register (VMOVQ): one
// legacy-SSE instruction among the AVX ones makes every call pay the state
// transition.

// The right shifts that bring each word's six bits of y to the bottom: words
// 0-3, then words 4-7.
DATA shifts<>+0(SB)/8, $0
DATA shifts<>+8(SB)/8, $6
DATA shifts<>+16(SB)/8, $12
DATA shifts<>+24(SB)/8, $18
DATA shifts<>+32(SB)/8, $24
DATA shifts<>+40(SB)/8, $30
DATA shifts<>+48(SB)/8, $36
DATA shifts<>+56(SB)/8, $42
GLOBL shifts<>(SB), RODATA|NOPTR, $64

DATA sixtythree<>+0(SB)/8, $63
GLOBL sixtythree<>(SB), RODATA|NOPTR, $8

DATA one<>+0(SB)/8, $1
GLOBL one<>(SB), RODATA|NOPTR, $8

// SETUP loads the constants both routines keep for the whole call:
//	R12 fmix64's first multiplier  R13 its second, which is also mixProbe
//	R14 mixBlock
//	Y15 shifts for words 0-3  Y14 for words 4-7  Y13 63s  Y12 1s
#define SETUP \
	MOVQ         $0xff51afd7ed558ccd, R12 \
	MOVQ         $0xc4ceb9fe1a85ec53, R13 \
	MOVQ         $0x9e3779b97f4a7c15, R14 \
	VMOVDQU      shifts<>+0(SB), Y15      \
	VMOVDQU      shifts<>+32(SB), Y14     \
	VPBROADCASTQ sixtythree<>(SB), Y13    \
	VPBROADCASTQ one<>(SB), Y12

// LOCATE hashes the k-mer in AX as kmer.Hash does (fmix64), and then locates
// it as locate does in a filter of R8 blocks: DX is the block's byte offset,
// Y1 and Y2 its bit in each of words 0-3 and 4-7. BX keeps the hash, CX
// holds x; AX and Y0 are clobbered.
#define LOCATE \
	MOVQ         AX, BX           \
	SHRQ         $33, BX          \
	XORQ         BX, AX           \
	IMULQ        R12, AX          \
	MOVQ         AX, BX           \
	SHRQ         $33, BX          \
	XORQ         BX, AX           \
	IMULQ        R13, AX          \
	MOVQ         AX, BX           \
	SHRQ         $33, BX          \
	XORQ         AX, BX           \
	MOVQ         BX, AX           \
	IMULQ        R14, AX          \
	MOVQ         AX, CX           \
	MULQ         R8               \
	SHLQ         $6, DX           \
	MOVQ         CX, AX           \
	SHRQ         $32, AX          \
	XORQ         CX, AX           \
	IMULQ        R13, AX          \
	VMOVQ        AX, X0           \
	VPBROADCASTQ X0, Y0           \
	VPSRLVQ      Y15, Y0, Y1      \
	VPSRLVQ      Y14, Y0, Y2      \
	VPAND        Y13, Y1, Y1      \
	VPAND        Y13, Y2, Y2      \
	VPSLLVQ      Y1, Y12, Y1      \
	VPSLLVQ      Y2, Y12, Y2

// func insertAVX2(words []uint64, blocks uint64, keys []kmer.Kmer, seen []uint32) int
//
// Key after key: locate, test the eight bits (Y5 gathers those missing, so
// ZF says present), set them, and write the key's index to seen[n], n
// advancing only for a present key. Keys are independent but for the block
// they may share, which goes through memory, so one key's misses overlap the
// next's.
//	DI words  R8 blocks  SI keys  R9 seen  R10 i  R11 n  R15 len(keys)
TEXT ·insertAVX2(SB), NOSPLIT, $0-88
	MOVQ words_base+0(FP), DI
	MOVQ blocks+24(FP), R8
	MOVQ keys_base+32(FP), SI
	MOVQ keys_len+40(FP), R15
	MOVQ seen_base+56(FP), R9
	XORQ R10, R10
	XORQ R11, R11
	TESTQ R15, R15
	JEQ  idone
	SETUP

iloop:
	MOVQ    (SI)(R10*8), AX
	LOCATE
	VMOVDQU (DI)(DX*1), Y3
	VMOVDQU 32(DI)(DX*1), Y4
	VPANDN  Y1, Y3, Y5
	VPANDN  Y2, Y4, Y6
	VPOR    Y1, Y3, Y3
	VPOR    Y2, Y4, Y4
	VMOVDQU Y3, (DI)(DX*1)
	VMOVDQU Y4, 32(DI)(DX*1)
	VPOR    Y5, Y6, Y5
	MOVL    R10, (R9)(R11*4)
	XORL    AX, AX
	VPTEST  Y5, Y5
	SETEQ   AX
	ADDQ    AX, R11
	INCQ    R10
	CMPQ    R10, R15
	JLT     iloop
	VZEROUPPER

idone:
	MOVQ R11, ret+80(FP)
	RET

// func routeAVX2(segs [][]uint64, blocks uint64, keys []kmer.Kmer, owner []int32)
//
// Key after key: kmer.Owner from the hash's top half, locate in that owner's
// segment, and write the owner if all eight bits are set, else -1. Nothing
// is written to a segment.
//	DI segs  R8 blocks  SI keys  R9 owner  R10 i  R11 len(segs)  R15 len(keys)
TEXT ·routeAVX2(SB), NOSPLIT, $0-80
	MOVQ segs_base+0(FP), DI
	MOVQ segs_len+8(FP), R11
	MOVQ blocks+24(FP), R8
	MOVQ keys_base+32(FP), SI
	MOVQ keys_len+40(FP), R15
	MOVQ owner_base+56(FP), R9
	XORQ R10, R10
	TESTQ R15, R15
	JEQ  rdone
	SETUP

rloop:
	MOVQ    (SI)(R10*8), AX
	LOCATE
	SHRQ    $32, BX
	IMULQ   R11, BX
	SHRQ    $32, BX
	LEAQ    (BX)(BX*2), CX
	ADDQ    (DI)(CX*8), DX
	VMOVDQU (DX), Y3
	VMOVDQU 32(DX), Y4
	VPANDN  Y1, Y3, Y5
	VPANDN  Y2, Y4, Y6
	VPOR    Y5, Y6, Y5
	MOVL    $-1, AX
	VPTEST  Y5, Y5
	CMOVLEQ BX, AX
	MOVL    AX, (R9)(R10*4)
	INCQ    R10
	CMPQ    R10, R15
	JLT     rloop
	VZEROUPPER

rdone:
	RET
