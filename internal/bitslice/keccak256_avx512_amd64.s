// AVX-512VL form of the fused wide Keccak round: identical structure
// and gather constants to the AVX2 form in keccak256_amd64.s, with
// VPTERNLOGQ doing the 3-input work in one ALU op - chi's ANDN+XOR pair
// becomes a single instruction (truth table 0xD2 = a ^ (~b & c)) and the
// 5-way parity xor chain becomes two 3-way xors (0x96). The theta D pass
// walks contiguous memory, so it runs at full 512-bit width (two bit
// columns per ZMM); the chi gather keeps 256-bit registers because its
// rotated source offsets wrap at single-column granularity. The theta
// parity pass runs once as a primer (keccakParity256AVX512); every round
// after that inherits its input parities from the previous round's chi
// store loop, cutting one full read of the 50KB state per round.
//
// The round keeps the five-plane loop structure of the AVX2 form rather
// than fusing all 25 output lanes into one loop: a fused loop walks ~60
// memory streams at once, which defeats the L2 prefetcher and measures
// ~1.8x slower than the ~15 streams of the per-plane loops.

#include "textflag.h"

// func keccakRound256AVX512(nxt, cur *KeccakState256, c, d *[5]Slice256)
//
// Parity-carrying contract: on entry c must hold the column parities of
// cur (keccakParity256AVX512 primes it for round 0); on return c holds
// the column parities of nxt. The next round's theta parity pass - a
// full 50KB read of the state - is folded into this round's chi store
// loop: the five chi outputs of one column are exactly one lane of each
// of the five column parities, so plane 0 initializes c and planes 1-4
// xor-accumulate into it. c is 10KB and stays L1-resident, so the extra
// accumulation traffic is cheap; the 50KB parity pass it replaced read
// from L2. Callers that flip state bits between rounds (iota) must
// apply the same flips to the parities.
TEXT ·keccakRound256AVX512(SB), NOSPLIT, $0-32
	MOVQ nxt+0(FP), DI
	MOVQ cur+8(FP), SI
	MOVQ c+16(FP), R8
	MOVQ d+24(FP), R9

	// ---- theta D: d[x] = c[(x+4)%5] ^ ROTL(c[(x+1)%5], 1). Column 0
	// wraps to the rotated lane's column 63 (offset 2016); columns 1-63
	// read linearly one column behind. Unrolled over x.

	// x = 0: cm = c[4] (+8192), cp = c[1] (+2048), dx = d[0] (+0)
	VMOVDQU 8192(R8), Y0
	VPXOR   4064(R8), Y0, Y0
	VMOVDQU Y0, (R9)
	LEAQ 8224(R8), R10
	LEAQ 2048(R8), R11
	LEAQ 32(R9), R12
	MOVQ $31, CX

dx0512:
	VMOVDQU64 (R10), Z0
	VPXORQ    (R11), Z0, Z0
	VMOVDQU64 Z0, (R12)
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $64, R12
	DECQ CX
	JNE  dx0512
	VMOVDQU (R10), Y0
	VPXOR   (R11), Y0, Y0
	VMOVDQU Y0, (R12)

	// x = 1: cm = c[0] (+0), cp = c[2] (+4096), dx = d[1] (+2048)
	VMOVDQU (R8), Y0
	VPXOR   6112(R8), Y0, Y0
	VMOVDQU Y0, 2048(R9)
	LEAQ 32(R8), R10
	LEAQ 4096(R8), R11
	LEAQ 2080(R9), R12
	MOVQ $31, CX

dx1512:
	VMOVDQU64 (R10), Z0
	VPXORQ    (R11), Z0, Z0
	VMOVDQU64 Z0, (R12)
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $64, R12
	DECQ CX
	JNE  dx1512
	VMOVDQU (R10), Y0
	VPXOR   (R11), Y0, Y0
	VMOVDQU Y0, (R12)

	// x = 2: cm = c[1] (+2048), cp = c[3] (+6144), dx = d[2] (+4096)
	VMOVDQU 2048(R8), Y0
	VPXOR   8160(R8), Y0, Y0
	VMOVDQU Y0, 4096(R9)
	LEAQ 2080(R8), R10
	LEAQ 6144(R8), R11
	LEAQ 4128(R9), R12
	MOVQ $31, CX

dx2512:
	VMOVDQU64 (R10), Z0
	VPXORQ    (R11), Z0, Z0
	VMOVDQU64 Z0, (R12)
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $64, R12
	DECQ CX
	JNE  dx2512
	VMOVDQU (R10), Y0
	VPXOR   (R11), Y0, Y0
	VMOVDQU Y0, (R12)

	// x = 3: cm = c[2] (+4096), cp = c[4] (+8192), dx = d[3] (+6144)
	VMOVDQU 4096(R8), Y0
	VPXOR   10208(R8), Y0, Y0
	VMOVDQU Y0, 6144(R9)
	LEAQ 4128(R8), R10
	LEAQ 8192(R8), R11
	LEAQ 6176(R9), R12
	MOVQ $31, CX

dx3512:
	VMOVDQU64 (R10), Z0
	VPXORQ    (R11), Z0, Z0
	VMOVDQU64 Z0, (R12)
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $64, R12
	DECQ CX
	JNE  dx3512
	VMOVDQU (R10), Y0
	VPXOR   (R11), Y0, Y0
	VMOVDQU Y0, (R12)

	// x = 4: cm = c[3] (+6144), cp = c[0] (+0), dx = d[4] (+8192)
	VMOVDQU 6144(R8), Y0
	VPXOR   2016(R8), Y0, Y0
	VMOVDQU Y0, 8192(R9)
	LEAQ 6176(R8), R10
	MOVQ R8, R11
	LEAQ 8224(R9), R12
	MOVQ $31, CX

dx4512:
	VMOVDQU64 (R10), Z0
	VPXORQ    (R11), Z0, Z0
	VMOVDQU64 Z0, (R12)
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $64, R12
	DECQ CX
	JNE  dx4512
	VMOVDQU (R10), Y0
	VPXOR   (R11), Y0, Y0
	VMOVDQU Y0, (R12)

	// ---- fused rho+pi+chi, one output plane per block. Per column:
	// five gathered source loads (rotation = per-lane running offset,
	// wrapped at 2048), chi = VPANDN+VPXOR, five stores. Offset
	// constants generated from rhoPi; see file header.

	// plane 0: out lanes 0-4, srcs 0,6,12,18,24
	MOVQ $0, R10
	MOVQ $640, R11
	MOVQ $672, R12
	MOVQ $1376, R13
	MOVQ $1600, R14
	MOVQ DI, R15
	MOVQ R8, BX
	MOVQ $64, CX

chi0512:
	VMOVDQU (SI)(R10*1), Y0
	VPXOR   (R9)(R10*1), Y0, Y0
	VMOVDQU 12288(SI)(R11*1), Y1
	VPXOR   2048(R9)(R11*1), Y1, Y1
	VMOVDQU 24576(SI)(R12*1), Y2
	VPXOR   4096(R9)(R12*1), Y2, Y2
	VMOVDQU 36864(SI)(R13*1), Y3
	VPXOR   6144(R9)(R13*1), Y3, Y3
	VMOVDQU 49152(SI)(R14*1), Y4
	VPXOR   8192(R9)(R14*1), Y4, Y4
	VMOVDQA    Y0, Y5
	VPTERNLOGQ $0xD2, Y2, Y1, Y5
	VMOVDQU    Y5, (R15)
	VMOVDQA    Y1, Y6
	VPTERNLOGQ $0xD2, Y3, Y2, Y6
	VMOVDQU    Y6, 2048(R15)
	VPTERNLOGQ $0xD2, Y4, Y3, Y2
	VMOVDQU    Y2, 4096(R15)
	VPTERNLOGQ $0xD2, Y0, Y4, Y3
	VMOVDQU    Y3, 6144(R15)
	VPTERNLOGQ $0xD2, Y1, Y0, Y4
	VMOVDQU    Y4, 8192(R15)
	VMOVDQU    Y5, (BX)
	VMOVDQU    Y6, 2048(BX)
	VMOVDQU    Y2, 4096(BX)
	VMOVDQU    Y3, 6144(BX)
	VMOVDQU    Y4, 8192(BX)
	ADDQ $32, R10
	ANDQ $2047, R10
	ADDQ $32, R11
	ANDQ $2047, R11
	ADDQ $32, R12
	ANDQ $2047, R12
	ADDQ $32, R13
	ANDQ $2047, R13
	ADDQ $32, R14
	ANDQ $2047, R14
	ADDQ $32, R15
	ADDQ $32, BX
	DECQ CX
	JNE  chi0512

	// plane 1: out lanes 5-9, srcs 3,9,10,16,22
	MOVQ $1152, R10
	MOVQ $1408, R11
	MOVQ $1952, R12
	MOVQ $608, R13
	MOVQ $96, R14
	LEAQ 10240(DI), R15
	MOVQ R8, BX
	MOVQ $64, CX

chi1512:
	VMOVDQU 6144(SI)(R10*1), Y0
	VPXOR   6144(R9)(R10*1), Y0, Y0
	VMOVDQU 18432(SI)(R11*1), Y1
	VPXOR   8192(R9)(R11*1), Y1, Y1
	VMOVDQU 20480(SI)(R12*1), Y2
	VPXOR   (R9)(R12*1), Y2, Y2
	VMOVDQU 32768(SI)(R13*1), Y3
	VPXOR   2048(R9)(R13*1), Y3, Y3
	VMOVDQU 45056(SI)(R14*1), Y4
	VPXOR   4096(R9)(R14*1), Y4, Y4
	VMOVDQA    Y0, Y5
	VPTERNLOGQ $0xD2, Y2, Y1, Y5
	VMOVDQU    Y5, (R15)
	VMOVDQA    Y1, Y6
	VPTERNLOGQ $0xD2, Y3, Y2, Y6
	VMOVDQU    Y6, 2048(R15)
	VPTERNLOGQ $0xD2, Y4, Y3, Y2
	VMOVDQU    Y2, 4096(R15)
	VPTERNLOGQ $0xD2, Y0, Y4, Y3
	VMOVDQU    Y3, 6144(R15)
	VPTERNLOGQ $0xD2, Y1, Y0, Y4
	VMOVDQU    Y4, 8192(R15)
	VPXOR      (BX), Y5, Y5
	VMOVDQU    Y5, (BX)
	VPXOR      2048(BX), Y6, Y6
	VMOVDQU    Y6, 2048(BX)
	VPXOR      4096(BX), Y2, Y2
	VMOVDQU    Y2, 4096(BX)
	VPXOR      6144(BX), Y3, Y3
	VMOVDQU    Y3, 6144(BX)
	VPXOR      8192(BX), Y4, Y4
	VMOVDQU    Y4, 8192(BX)
	ADDQ $32, R10
	ANDQ $2047, R10
	ADDQ $32, R11
	ANDQ $2047, R11
	ADDQ $32, R12
	ANDQ $2047, R12
	ADDQ $32, R13
	ANDQ $2047, R13
	ADDQ $32, R14
	ANDQ $2047, R14
	ADDQ $32, R15
	ADDQ $32, BX
	DECQ CX
	JNE  chi1512

	// plane 2: out lanes 10-14, srcs 1,7,13,19,20
	MOVQ $2016, R10
	MOVQ $1856, R11
	MOVQ $1248, R12
	MOVQ $1792, R13
	MOVQ $1472, R14
	LEAQ 20480(DI), R15
	MOVQ R8, BX
	MOVQ $64, CX

chi2512:
	VMOVDQU 2048(SI)(R10*1), Y0
	VPXOR   2048(R9)(R10*1), Y0, Y0
	VMOVDQU 14336(SI)(R11*1), Y1
	VPXOR   4096(R9)(R11*1), Y1, Y1
	VMOVDQU 26624(SI)(R12*1), Y2
	VPXOR   6144(R9)(R12*1), Y2, Y2
	VMOVDQU 38912(SI)(R13*1), Y3
	VPXOR   8192(R9)(R13*1), Y3, Y3
	VMOVDQU 40960(SI)(R14*1), Y4
	VPXOR   (R9)(R14*1), Y4, Y4
	VMOVDQA    Y0, Y5
	VPTERNLOGQ $0xD2, Y2, Y1, Y5
	VMOVDQU    Y5, (R15)
	VMOVDQA    Y1, Y6
	VPTERNLOGQ $0xD2, Y3, Y2, Y6
	VMOVDQU    Y6, 2048(R15)
	VPTERNLOGQ $0xD2, Y4, Y3, Y2
	VMOVDQU    Y2, 4096(R15)
	VPTERNLOGQ $0xD2, Y0, Y4, Y3
	VMOVDQU    Y3, 6144(R15)
	VPTERNLOGQ $0xD2, Y1, Y0, Y4
	VMOVDQU    Y4, 8192(R15)
	VPXOR      (BX), Y5, Y5
	VMOVDQU    Y5, (BX)
	VPXOR      2048(BX), Y6, Y6
	VMOVDQU    Y6, 2048(BX)
	VPXOR      4096(BX), Y2, Y2
	VMOVDQU    Y2, 4096(BX)
	VPXOR      6144(BX), Y3, Y3
	VMOVDQU    Y3, 6144(BX)
	VPXOR      8192(BX), Y4, Y4
	VMOVDQU    Y4, 8192(BX)
	ADDQ $32, R10
	ANDQ $2047, R10
	ADDQ $32, R11
	ANDQ $2047, R11
	ADDQ $32, R12
	ANDQ $2047, R12
	ADDQ $32, R13
	ANDQ $2047, R13
	ADDQ $32, R14
	ANDQ $2047, R14
	ADDQ $32, R15
	ADDQ $32, BX
	DECQ CX
	JNE  chi2512

	// plane 3: out lanes 15-19, srcs 4,5,11,17,23
	MOVQ $1184, R10
	MOVQ $896, R11
	MOVQ $1728, R12
	MOVQ $1568, R13
	MOVQ $256, R14
	LEAQ 30720(DI), R15
	MOVQ R8, BX
	MOVQ $64, CX

chi3512:
	VMOVDQU 8192(SI)(R10*1), Y0
	VPXOR   8192(R9)(R10*1), Y0, Y0
	VMOVDQU 10240(SI)(R11*1), Y1
	VPXOR   (R9)(R11*1), Y1, Y1
	VMOVDQU 22528(SI)(R12*1), Y2
	VPXOR   2048(R9)(R12*1), Y2, Y2
	VMOVDQU 34816(SI)(R13*1), Y3
	VPXOR   4096(R9)(R13*1), Y3, Y3
	VMOVDQU 47104(SI)(R14*1), Y4
	VPXOR   6144(R9)(R14*1), Y4, Y4
	VMOVDQA    Y0, Y5
	VPTERNLOGQ $0xD2, Y2, Y1, Y5
	VMOVDQU    Y5, (R15)
	VMOVDQA    Y1, Y6
	VPTERNLOGQ $0xD2, Y3, Y2, Y6
	VMOVDQU    Y6, 2048(R15)
	VPTERNLOGQ $0xD2, Y4, Y3, Y2
	VMOVDQU    Y2, 4096(R15)
	VPTERNLOGQ $0xD2, Y0, Y4, Y3
	VMOVDQU    Y3, 6144(R15)
	VPTERNLOGQ $0xD2, Y1, Y0, Y4
	VMOVDQU    Y4, 8192(R15)
	VPXOR      (BX), Y5, Y5
	VMOVDQU    Y5, (BX)
	VPXOR      2048(BX), Y6, Y6
	VMOVDQU    Y6, 2048(BX)
	VPXOR      4096(BX), Y2, Y2
	VMOVDQU    Y2, 4096(BX)
	VPXOR      6144(BX), Y3, Y3
	VMOVDQU    Y3, 6144(BX)
	VPXOR      8192(BX), Y4, Y4
	VMOVDQU    Y4, 8192(BX)
	ADDQ $32, R10
	ANDQ $2047, R10
	ADDQ $32, R11
	ANDQ $2047, R11
	ADDQ $32, R12
	ANDQ $2047, R12
	ADDQ $32, R13
	ANDQ $2047, R13
	ADDQ $32, R14
	ANDQ $2047, R14
	ADDQ $32, R15
	ADDQ $32, BX
	DECQ CX
	JNE  chi3512

	// plane 4: out lanes 20-24, srcs 2,8,14,15,21
	MOVQ $64, R10
	MOVQ $288, R11
	MOVQ $800, R12
	MOVQ $736, R13
	MOVQ $1984, R14
	LEAQ 40960(DI), R15
	MOVQ R8, BX
	MOVQ $64, CX

chi4512:
	VMOVDQU 4096(SI)(R10*1), Y0
	VPXOR   4096(R9)(R10*1), Y0, Y0
	VMOVDQU 16384(SI)(R11*1), Y1
	VPXOR   6144(R9)(R11*1), Y1, Y1
	VMOVDQU 28672(SI)(R12*1), Y2
	VPXOR   8192(R9)(R12*1), Y2, Y2
	VMOVDQU 30720(SI)(R13*1), Y3
	VPXOR   (R9)(R13*1), Y3, Y3
	VMOVDQU 43008(SI)(R14*1), Y4
	VPXOR   2048(R9)(R14*1), Y4, Y4
	VMOVDQA    Y0, Y5
	VPTERNLOGQ $0xD2, Y2, Y1, Y5
	VMOVDQU    Y5, (R15)
	VMOVDQA    Y1, Y6
	VPTERNLOGQ $0xD2, Y3, Y2, Y6
	VMOVDQU    Y6, 2048(R15)
	VPTERNLOGQ $0xD2, Y4, Y3, Y2
	VMOVDQU    Y2, 4096(R15)
	VPTERNLOGQ $0xD2, Y0, Y4, Y3
	VMOVDQU    Y3, 6144(R15)
	VPTERNLOGQ $0xD2, Y1, Y0, Y4
	VMOVDQU    Y4, 8192(R15)
	VPXOR      (BX), Y5, Y5
	VMOVDQU    Y5, (BX)
	VPXOR      2048(BX), Y6, Y6
	VMOVDQU    Y6, 2048(BX)
	VPXOR      4096(BX), Y2, Y2
	VMOVDQU    Y2, 4096(BX)
	VPXOR      6144(BX), Y3, Y3
	VMOVDQU    Y3, 6144(BX)
	VPXOR      8192(BX), Y4, Y4
	VMOVDQU    Y4, 8192(BX)
	ADDQ $32, R10
	ANDQ $2047, R10
	ADDQ $32, R11
	ANDQ $2047, R11
	ADDQ $32, R12
	ANDQ $2047, R12
	ADDQ $32, R13
	ANDQ $2047, R13
	ADDQ $32, R14
	ANDQ $2047, R14
	ADDQ $32, R15
	ADDQ $32, BX
	DECQ CX
	JNE  chi4512

	VZEROUPPER
	RET

// func keccakParity256AVX512(c *[5]Slice256, cur *KeccakState256)
// Column parities of cur into c: c[x] = cur[x]^cur[x+5]^cur[x+10]^
// cur[x+15]^cur[x+20]. Runs once to prime the parity-carrying round
// below; after that each round leaves the next round's parities behind
// as a side effect of its chi stores.
TEXT ·keccakParity256AVX512(SB), NOSPLIT, $0-16
	MOVQ c+0(FP), R8
	MOVQ cur+8(FP), SI

	// One flat loop: as the cursor walks the 5*64 columns of lanes 0-4,
	// the +5 lanes sit at fixed +10240-byte displacements.
	MOVQ SI, R10
	MOVQ R8, R11
	MOVQ $160, CX

parity512:
	VMOVDQU64  (R10), Z0
	VMOVDQU64  10240(R10), Z1
	VPTERNLOGQ $0x96, 20480(R10), Z1, Z0
	VMOVDQU64  30720(R10), Z2
	VPTERNLOGQ $0x96, 40960(R10), Z2, Z0
	VMOVDQU64  Z0, (R11)
	ADDQ $64, R10
	ADDQ $64, R11
	DECQ CX
	JNE  parity512

	VZEROUPPER
	RET
