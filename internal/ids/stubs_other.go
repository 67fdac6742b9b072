//go:build !amd64

package ids

const haveStubs = false

// gword and fpChain have no implementation on this architecture; selfCheck
// never runs them because haveStubs is false, so every call takes the
// portable path.
func gword(off uintptr) uint64 { return 0 }

func fpChain(pcs *[maxChain]uintptr, n int) int { return 0 }
