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

// MULTIPLIERS loads LOCATE's constants: R12 fmix64's first multiplier, R13
// its second, which is also mixProbe, and R14 mixBlock.
#define MULTIPLIERS \
	MOVQ $0xff51afd7ed558ccd, R12 \
	MOVQ $0xc4ceb9fe1a85ec53, R13 \
	MOVQ $0x9e3779b97f4a7c15, R14

// VECTORS loads BITS's constants, which both routines keep for the whole
// call: Y15 the shifts for words 0-3, Y14 for words 4-7, Y13 63s, Y12 1s.
#define VECTORS \
	VMOVDQU      shifts<>+0(SB), Y15   \
	VMOVDQU      shifts<>+32(SB), Y14  \
	VPBROADCASTQ sixtythree<>(SB), Y13 \
	VPBROADCASTQ one<>(SB), Y12

// LOCATE hashes the k-mer in AX as kmer.Hash does (fmix64), and then locates
// it as locate does in a filter of R8 blocks: BX is the hash, DX the block's
// byte offset and AX y. CX is clobbered.
#define LOCATE \
	MOVQ  AX, BX  \
	SHRQ  $33, BX \
	XORQ  BX, AX  \
	IMULQ R12, AX \
	MOVQ  AX, BX  \
	SHRQ  $33, BX \
	XORQ  BX, AX  \
	IMULQ R13, AX \
	MOVQ  AX, BX  \
	SHRQ  $33, BX \
	XORQ  AX, BX  \
	MOVQ  BX, AX  \
	IMULQ R14, AX \
	MOVQ  AX, CX  \
	MULQ  R8      \
	SHLQ  $6, DX  \
	MOVQ  CX, AX  \
	SHRQ  $32, AX \
	XORQ  CX, AX  \
	IMULQ R13, AX

// BITS cuts the key's bit in each of words 0-3 and 4-7 into Y1 and Y2 from
// y broadcast in Y0.
#define BITS \
	VPSRLVQ Y15, Y0, Y1 \
	VPSRLVQ Y14, Y0, Y2 \
	VPAND   Y13, Y1, Y1 \
	VPAND   Y13, Y2, Y2 \
	VPSLLVQ Y1, Y12, Y1 \
	VPSLLVQ Y2, Y12, Y2

// Both routines take keys a group at a time: GROUP keys' blocks (the
// insert's as offsets into the words, the route's as addresses), their y
// and the insert's hashes or the route's owners sit in the frame, at OFFS,
// YS and HASHES or OWNERS.
#define GROUP 64
#define OFFS 0
#define YS 512
#define HASHES 1024
#define OWNERS 1024

// func insertAVX2(words []uint64, blocks uint64, keys []kmer.Kmer, seen []uint32, hashes []uint64) int
//
// A group of keys at a time, in two phases. Phase A locates every key of the
// group, keeps its block offset, y and hash in the frame, and prefetches its
// block: nothing it does waits on a block, so the group's misses are in
// flight together. Phase B then takes the keys in row order: it tests the
// eight bits (Y5 gathers those missing; VPTEST against the zero Y11 sets CF
// when there are none, and ADCQ counts it), sets them, and writes the key's
// index to seen[n] and its hash to hashes[n], n advancing only for a present
// key. Row order is what keeps the answers InsertAndTest's: a key repeated
// inside a group sees the bits its earlier copy set.
//	phase A: DI words  R8 blocks  SI &keys[i0]  R10 j (counting down)
//	         R12 R13 R14 the multipliers
//	phase B: DI words  R9 seen  R11 n  R10 j  R12 group length  R13 hashes
//	both:    R15 i0, the group's first index
TEXT ·insertAVX2(SB), 0, $1536-112
	MOVQ words_base+0(FP), DI
	MOVQ blocks+24(FP), R8
	MOVQ keys_base+32(FP), SI
	MOVQ seen_base+56(FP), R9
	XORQ R15, R15
	XORQ R11, R11
	CMPQ keys_len+40(FP), $0
	JEQ  idone
	VECTORS
	VPXOR Y11, Y11, Y11

igroup:
	MOVQ    keys_len+40(FP), R10
	SUBQ    R15, R10
	MOVQ    $GROUP, AX
	CMPQ    R10, AX
	CMOVQGT AX, R10
	DECQ    R10
	MULTIPLIERS

ilocate:
	MOVQ       (SI)(R10*8), AX
	LOCATE
	PREFETCHT0 (DI)(DX*1)
	MOVQ       DX, OFFS(SP)(R10*8)
	MOVQ       AX, YS(SP)(R10*8)
	MOVQ       BX, HASHES(SP)(R10*8)
	DECQ       R10
	JGE        ilocate
	XORQ       R10, R10

	MOVQ    keys_len+40(FP), R12
	SUBQ    R15, R12
	MOVQ    $GROUP, AX
	CMPQ    R12, AX
	CMOVQGT AX, R12
	MOVQ    hashes_base+80(FP), R13

iset:
	MOVQ         OFFS(SP)(R10*8), DX
	VPBROADCASTQ YS(SP)(R10*8), Y0
	BITS
	VMOVDQU      (DI)(DX*1), Y3
	VMOVDQU      32(DI)(DX*1), Y4
	VPANDN       Y1, Y3, Y5
	VPANDN       Y2, Y4, Y6
	VPOR         Y1, Y3, Y3
	VPOR         Y2, Y4, Y4
	VMOVDQU      Y3, (DI)(DX*1)
	VMOVDQU      Y4, 32(DI)(DX*1)
	VPOR         Y5, Y6, Y5
	LEAQ         (R15)(R10*1), AX
	MOVL         AX, (R9)(R11*4)
	MOVQ         HASHES(SP)(R10*8), BX
	MOVQ         BX, (R13)(R11*8)
	VPTEST       Y5, Y11
	ADCQ         $0, R11
	INCQ         R10
	CMPQ         R10, R12
	JLT          iset

	LEAQ (SI)(R12*8), SI
	ADDQ R12, R15
	CMPQ R15, keys_len+40(FP)
	JLT  igroup
	VZEROUPPER

idone:
	MOVQ R11, ret+104(FP)
	RET

// func routeAVX2(segs [][]uint64, blocks uint64, keys []kmer.Kmer, owner []int32)
//
// A group of keys at a time, as the insert goes. Phase A takes each key's
// kmer.Owner from the hash's top half, locates the key in that owner's
// segment, keeps the block's address, y and the owner in the frame, and
// prefetches the block. Phase B writes each key's owner if all eight bits
// are set, else -1. Nothing is written to a segment, so phase B's order is
// free; it keeps the insert's.
//	phase A: DI segs  R8 blocks  R11 len(segs)  SI &keys[i0]  R10 j (down)
//	         R12 R13 R14 the multipliers
//	phase B: R9 &owner[i0]  R10 j  R12 group length
//	both:    R15 i0
TEXT ·routeAVX2(SB), 0, $1536-80
	MOVQ segs_base+0(FP), DI
	MOVQ segs_len+8(FP), R11
	MOVQ blocks+24(FP), R8
	MOVQ keys_base+32(FP), SI
	MOVQ owner_base+56(FP), R9
	XORQ R15, R15
	CMPQ keys_len+40(FP), $0
	JEQ  rdone
	VECTORS

rgroup:
	MOVQ    keys_len+40(FP), R10
	SUBQ    R15, R10
	MOVQ    $GROUP, AX
	CMPQ    R10, AX
	CMOVQGT AX, R10
	DECQ    R10
	MULTIPLIERS

rlocate:
	MOVQ       (SI)(R10*8), AX
	LOCATE
	SHRQ       $32, BX
	IMULQ      R11, BX
	SHRQ       $32, BX
	LEAQ       (BX)(BX*2), CX
	ADDQ       (DI)(CX*8), DX
	PREFETCHT0 (DX)
	MOVQ       DX, OFFS(SP)(R10*8)
	MOVQ       AX, YS(SP)(R10*8)
	MOVQ       BX, OWNERS(SP)(R10*8)
	DECQ       R10
	JGE        rlocate
	XORQ       R10, R10

	MOVQ    keys_len+40(FP), R12
	SUBQ    R15, R12
	MOVQ    $GROUP, AX
	CMPQ    R12, AX
	CMOVQGT AX, R12

rtest:
	MOVQ         OFFS(SP)(R10*8), DX
	VPBROADCASTQ YS(SP)(R10*8), Y0
	BITS
	MOVQ         OWNERS(SP)(R10*8), BX
	VMOVDQU      (DX), Y3
	VMOVDQU      32(DX), Y4
	VPANDN       Y1, Y3, Y5
	VPANDN       Y2, Y4, Y6
	VPOR         Y5, Y6, Y5
	MOVL         $-1, AX
	VPTEST       Y5, Y5
	CMOVLEQ      BX, AX
	MOVL         AX, (R9)(R10*4)
	INCQ         R10
	CMPQ         R10, R12
	JLT          rtest

	LEAQ (SI)(R12*8), SI
	LEAQ (R9)(R12*4), R9
	ADDQ R12, R15
	CMPQ R15, keys_len+40(FP)
	JLT  rgroup
	VZEROUPPER

rdone:
	RET
