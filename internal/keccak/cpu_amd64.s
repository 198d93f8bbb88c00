#include "textflag.h"

// func cpuSupportsAVX512() bool
TEXT ·cpuSupportsAVX512(SB), NOSPLIT, $0-1
	// OSXSAVE (bit 27) in CPUID.1:ECX
	MOVL $1, AX
	CPUID
	MOVL CX, AX
	ANDL $(1<<27), AX
	JZ   notsup512

	// OS enabled SSE+AVX and the AVX-512 state triple:
	// XCR0 bits 1,2 (XMM,YMM) and 5,6,7 (opmask, ZMM lo/hi) = 0xE6
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  notsup512

	// AVX512F (bit 16) and AVX512VL (bit 31) in CPUID.(7,0):EBX
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, AX
	SHRL $16, AX
	MOVL BX, DX
	SHRL $31, DX
	ANDL DX, AX
	ANDL $1, AX
	MOVB AX, ret+0(FP)
	RET

notsup512:
	MOVB $0, ret+0(FP)
	RET
