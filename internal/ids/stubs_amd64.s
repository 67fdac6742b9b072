#include "textflag.h"

// func gword(off uintptr) uint64
//
// The 8-byte word at byte offset off of the running goroutine's g, which the
// runtime keeps in thread-local storage. The two-instruction TLS form is the
// one the linker can rewrite for every amd64 OS and link mode.
TEXT ·gword(SB), NOSPLIT, $0-16
	MOVQ	TLS, CX
	MOVQ	0(CX)(TLS*1), AX
	MOVQ	off+0(FP), CX
	MOVQ	(AX)(CX*1), AX
	MOVQ	AX, ret+8(FP)
	RET

// func fpChain(pcs *[maxChain]uintptr, n int) int
//
// Stores up to n return addresses, innermost first, starting with the one
// that returns into the caller of the Go function calling fpChain, and
// returns how many it stored. A Go frame on amd64 keeps its caller's frame
// pointer at 0(BP) and its return address at 8(BP); the chain ends at a nil
// frame pointer (a goroutine's entry frame). This function has no frame of
// its own and Go code of the same package calls it directly, without an ABI
// wrapper in between, so BP on entry is still the calling function's. Being
// assembly, the walk cannot be preempted and the stack cannot move under it.
TEXT ·fpChain(SB), NOSPLIT, $0-24
	MOVQ	pcs+0(FP), DI
	MOVQ	n+8(FP), CX
	XORQ	AX, AX
	MOVQ	BP, DX
loop:
	CMPQ	AX, CX
	JGE	done
	TESTQ	DX, DX
	JZ	done
	MOVQ	8(DX), BX
	MOVQ	BX, (DI)(AX*8)
	MOVQ	0(DX), DX
	INCQ	AX
	JMP	loop
done:
	MOVQ	AX, ret+16(FP)
	RET
