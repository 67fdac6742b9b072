//go:build amd64

package ids

const haveStubs = true

// gword and fpChain are implemented in stubs_amd64.s.
func gword(off uintptr) uint64

//go:noescape
func fpChain(pcs *[maxChain]uintptr, n int) int
