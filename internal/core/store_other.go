//go:build !amd64 || race

package core

import "sync/atomic"

// storeRelease stores v into p. Off amd64 p.Store is already the cheapest
// ordered store (an STLR on arm64); under the race detector it is the store
// the detector can see.
func storeRelease(p *atomic.Int64, v int64) { p.Store(v) }
