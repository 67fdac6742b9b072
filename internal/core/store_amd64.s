//go:build amd64 && !race

#include "textflag.h"

// func storeRelease(p *atomic.Int64, v int64)
//
// A plain store: under x86-TSO it is a release store, and no LOCK prefix or
// XCHG makes it wait for the TSC read in front of it. The value sits at
// offset 0 of atomic.Int64.
TEXT ·storeRelease(SB), NOSPLIT, $0-16
	MOVQ	p+0(FP), AX
	MOVQ	v+8(FP), BX
	MOVQ	BX, (AX)
	RET
