#include "textflag.h"

// VEX encodings only, down to the move from a general register (VMOVQ): one
// legacy-SSE instruction among the AVX ones makes every call pay the state
// transition.

// Per-lane constants for the k-mers a group of eight bases completes, lanes
// 0-3 (lo) and 4-7 (hi): lane j shifts the k-mers before the group by
// 2(j+1) bases' bits, keeps the group's first j+1 bases (big-endian codes
// shifted right by 2(7-j), little-endian complements masked to 2(j+1) bits),
// and is 2j past the group's first location.
DATA shlLo<>+0(SB)/8, $2
DATA shlLo<>+8(SB)/8, $4
DATA shlLo<>+16(SB)/8, $6
DATA shlLo<>+24(SB)/8, $8
GLOBL shlLo<>(SB), RODATA|NOPTR, $32
DATA shlHi<>+0(SB)/8, $10
DATA shlHi<>+8(SB)/8, $12
DATA shlHi<>+16(SB)/8, $14
DATA shlHi<>+24(SB)/8, $16
GLOBL shlHi<>(SB), RODATA|NOPTR, $32
DATA shrLo<>+0(SB)/8, $14
DATA shrLo<>+8(SB)/8, $12
DATA shrLo<>+16(SB)/8, $10
DATA shrLo<>+24(SB)/8, $8
GLOBL shrLo<>(SB), RODATA|NOPTR, $32
DATA shrHi<>+0(SB)/8, $6
DATA shrHi<>+8(SB)/8, $4
DATA shrHi<>+16(SB)/8, $2
DATA shrHi<>+24(SB)/8, $0
GLOBL shrHi<>(SB), RODATA|NOPTR, $32
DATA keepLo<>+0(SB)/8, $0x3
DATA keepLo<>+8(SB)/8, $0xf
DATA keepLo<>+16(SB)/8, $0x3f
DATA keepLo<>+24(SB)/8, $0xff
GLOBL keepLo<>(SB), RODATA|NOPTR, $32
DATA keepHi<>+0(SB)/8, $0x3ff
DATA keepHi<>+8(SB)/8, $0xfff
DATA keepHi<>+16(SB)/8, $0x3fff
DATA keepHi<>+24(SB)/8, $0xffff
GLOBL keepHi<>(SB), RODATA|NOPTR, $32
DATA posLo<>+0(SB)/8, $0
DATA posLo<>+8(SB)/8, $2
DATA posLo<>+16(SB)/8, $4
DATA posLo<>+24(SB)/8, $6
GLOBL posLo<>(SB), RODATA|NOPTR, $32
DATA posHi<>+0(SB)/8, $8
DATA posHi<>+8(SB)/8, $10
DATA posHi<>+16(SB)/8, $12
DATA posHi<>+24(SB)/8, $14
GLOBL posHi<>(SB), RODATA|NOPTR, $32

// Four copies of one qword each: byte and word patterns for the 2-bit
// encode and the packing of eight codes into 16 bits.
#define QUAD(name, v) \
	DATA name<>+0(SB)/8, v  \
	DATA name<>+8(SB)/8, v  \
	DATA name<>+16(SB)/8, v \
	DATA name<>+24(SB)/8, v \
	GLOBL name<>(SB), RODATA|NOPTR, $32

QUAD(sixteen, $16)
QUAD(ones, $1)
QUAD(low16, $0xffff)
QUAD(fold, $0x2020202020202020)
QUAD(lowerA, $0x6161616161616161)
QUAD(lowerC, $0x6363636363636363)
QUAD(lowerG, $0x6767676767676767)
QUAD(lowerT, $0x7474747474747474)
QUAD(threes, $0x0303030303030303)
QUAD(pairBE, $0x0104010401040104)
QUAD(pairLE, $0x0401040104010401)
QUAD(quadBE, $0x0001001000010010)
QUAD(quadLE, $0x0010000100100001)

// HALF writes the four k-mers of lanes lo or hi of the group: Y0 holds the
// forward k-mer before the group, Y1 its reverse complement, Y2 the group's
// big-endian codes, Y3 its little-endian complements (all broadcast).
//	fwd = (Y0 << shl | Y2 >> shr) & mask    rc = Y1 >> shl | (Y3 & keep) << shk
//	key = fwd > rc ? rc : fwd               loc = base | fwd <= rc
#define HALF(shl, shr, keep, shk, base, off) \
	VPSLLVQ   shl<>(SB), Y0, Y4    \
	VPSRLVQ   shr<>(SB), Y2, Y5    \
	VPOR      Y5, Y4, Y4           \
	VPAND     Y15, Y4, Y4          \
	VPSRLVQ   shl<>(SB), Y1, Y5    \
	VPAND     keep<>(SB), Y3, Y6   \
	VPSLLVQ   shk, Y6, Y6          \
	VPOR      Y6, Y5, Y5           \
	VPCMPGTQ  Y5, Y4, Y6           \
	VPBLENDVB Y6, Y5, Y4, Y7       \
	VMOVDQU   Y7, off(DI)(R10*8)   \
	VPANDN    Y12, Y6, Y6          \
	VPOR      base, Y6, Y6         \
	VMOVDQU   Y6, off(R8)(R10*8)

// GROUP writes the eight k-mers of the next group, whose packed codes are
// at boff(SP) and complements at coff(SP), and rolls AX and BX past it.
#define GROUP(boff, coff) \
	VMOVQ        AX, X0                          \
	VPBROADCASTQ X0, Y0                          \
	VMOVQ        BX, X1                          \
	VPBROADCASTQ X1, Y1                          \
	VPBROADCASTQ boff(SP), Y2                    \
	VPBROADCASTQ coff(SP), Y3                    \
	HALF(shlLo, shrLo, keepLo, Y14, Y11, 0)      \
	HALF(shlHi, shrHi, keepHi, Y13, Y10, 32)     \
	SHLQ         $16, AX                         \
	ORQ          boff(SP), AX                    \
	ANDQ         R9, AX                          \
	SHRQ         $16, BX                         \
	MOVQ         coff(SP), R11                   \
	SHLQ         CX, R11                         \
	ORQ          R11, BX                         \
	VPADDQ       sixteen<>(SB), Y11, Y11         \
	VPADDQ       sixteen<>(SB), Y10, Y10         \
	ADDQ         $8, R10

// func rollAVX2(chunk []byte, keys []Kmer, locs []Loc, k int, cur, rc uint64, l Loc) (n int, curOut, rcOut uint64)
//
// roll over chunk's leading 32-byte windows while every byte of one is ACGT
// in either case, for 8 <= k <= 31: a window's 2-bit codes and its validity
// come from byte compares, and each group of eight bases is packed into 16
// bits twice, big-endian codes and little-endian complements, by multiply-
// adds. The forward and reverse-complement k-mers roll a group at a time in
// AX and BX; the eight k-mers inside a group are shifted out of them in
// lanes. k <= 31 keeps every k-mer below 2^62, so a signed compare orders
// them.
//	SI chunk  DX len(chunk)  DI keys  R8 locs  R9 mask  CX 2k-16
//	R10 bases rolled  Y15 mask  Y14 Y13 shk  Y12 ones  Y11 Y10 locations
TEXT ·rollAVX2(SB), NOSPLIT, $64-128
	MOVQ chunk_base+0(FP), SI
	MOVQ chunk_len+8(FP), DX
	MOVQ keys_base+24(FP), DI
	MOVQ locs_base+48(FP), R8
	MOVQ k+72(FP), CX
	MOVQ cur+80(FP), AX
	MOVQ rc+88(FP), BX
	XORQ R10, R10
	SHLQ $1, CX
	MOVQ $1, R9
	SHLQ CX, R9
	DECQ R9
	VMOVQ        R9, X15
	VPBROADCASTQ X15, Y15
	LEAQ         -2(CX), R11
	VMOVQ        R11, X14
	VPBROADCASTQ X14, Y14
	VPSUBQ       posHi<>(SB), Y14, Y13
	VPSUBQ       posLo<>(SB), Y14, Y14
	SUBQ         $16, CX
	VMOVDQU      ones<>(SB), Y12
	MOVQ         l+96(FP), R11
	VMOVQ        R11, X11
	VPBROADCASTQ X11, Y11
	VPADDQ       posHi<>(SB), Y11, Y10
	VPADDQ       posLo<>(SB), Y11, Y11

window:
	LEAQ 32(R10), R11
	CMPQ R11, DX
	JGT  done
	VMOVDQU (SI)(R10*1), Y0
	VPOR      fold<>(SB), Y0, Y1
	VPCMPEQB  lowerA<>(SB), Y1, Y2
	VPCMPEQB  lowerC<>(SB), Y1, Y3
	VPOR      Y3, Y2, Y2
	VPCMPEQB  lowerG<>(SB), Y1, Y3
	VPOR      Y3, Y2, Y2
	VPCMPEQB  lowerT<>(SB), Y1, Y3
	VPOR      Y3, Y2, Y2
	VPMOVMSKB Y2, R11
	CMPL      R11, $-1
	JNE       done

	// A=0 C=1 G=2 T=3, either case: ((b >> 1) ^ (b >> 2)) & 3.
	VPSRLW     $1, Y0, Y1
	VPSRLW     $2, Y0, Y2
	VPXOR      Y2, Y1, Y1
	VPAND      threes<>(SB), Y1, Y1
	// Big-endian codes: pairs 4a+b, quads 16p+q, groups of eight
	// q0<<8 | q1 in each qword's low 16 bits.
	VPMADDUBSW pairBE<>(SB), Y1, Y2
	VPMADDWD   quadBE<>(SB), Y2, Y2
	VPSLLQ     $8, Y2, Y3
	VPSRLQ     $32, Y2, Y2
	VPOR       Y3, Y2, Y2
	VPAND      low16<>(SB), Y2, Y2
	VMOVDQU    Y2, 0(SP)
	// Little-endian complements: pairs a+4b, quads p+16q, groups
	// q0 | q1<<8.
	VPXOR      threes<>(SB), Y1, Y1
	VPMADDUBSW pairLE<>(SB), Y1, Y3
	VPMADDWD   quadLE<>(SB), Y3, Y3
	VPSRLQ     $24, Y3, Y4
	VPOR       Y4, Y3, Y3
	VPAND      low16<>(SB), Y3, Y3
	VMOVDQU    Y3, 32(SP)

	GROUP(0, 32)
	GROUP(8, 40)
	GROUP(16, 48)
	GROUP(24, 56)
	JMP window

done:
	VZEROUPPER
	MOVQ R10, n+104(FP)
	MOVQ AX, curOut+112(FP)
	MOVQ BX, rcOut+120(FP)
	RET
