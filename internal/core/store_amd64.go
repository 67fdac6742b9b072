//go:build amd64 && !race

package core

import "sync/atomic"

// storeRelease stores v into p as a release store: one plain MOVQ, which
// x86-TSO already orders after every earlier store. It is not the locked XCHG
// that p.Store compiles to, so a reader may see v a few cycles late — the one
// relaxation the phase verdict allows (§3.4.3, runtime.concurrent).
// Implemented in store_amd64.s.
//
//go:noescape
func storeRelease(p *atomic.Int64, v int64)
