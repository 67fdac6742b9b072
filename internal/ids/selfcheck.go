package ids

import (
	"runtime"
	"sync"
)

// goidOffset is the byte offset of goid inside the runtime's g, or 0 when
// CurrentThreadID must parse; fpChainOK reports whether CallerSite may key its
// cache by the frame-pointer chain. Both are decided once, here, from what
// this process's runtime was observed to do — not from a table of Go versions
// and not from anything a user sets.
var (
	goidOffset uintptr
	fpChainOK  bool
)

func init() {
	if haveStubs {
		goidOffset = findGoidOffset()
		fpChainOK = fpChainAgrees()
	}
}

// gScan is how many bytes of g findGoidOffset looks at. goid has sat between
// byte 128 and byte 160 since Go 1.5 and g has been larger than this for as
// long.
const gScan = 256

// findGoidOffset returns the one word offset inside g at which every sampled
// goroutine — the calling one and four fresh ones — holds the id the parser
// reads for it, or 0 if there is no such offset or more than one.
func findGoidOffset() uintptr {
	type sample struct {
		id    ThreadID
		words [gScan / 8]uint64
	}
	take := func(s *sample) {
		s.id = parseThreadID()
		for i := range s.words {
			s.words[i] = gword(uintptr(i) * 8)
		}
	}
	var samples [5]sample
	take(&samples[0])
	var wg sync.WaitGroup
	for i := 1; i < len(samples); i++ {
		wg.Add(1)
		go func(s *sample) {
			defer wg.Done()
			take(s)
		}(&samples[i])
	}
	wg.Wait()

	found := uintptr(0)
	// Word 0 is the stack's low bound, never an id; starting at 1 leaves 0
	// free to mean "not found".
	for i := 1; i < gScan/8; i++ {
		holdsID := true
		for _, s := range samples {
			holdsID = holdsID && s.id > 0 && s.words[i] == uint64(s.id)
		}
		if !holdsID {
			continue
		}
		if found != 0 {
			return 0
		}
		found = uintptr(i) * 8
	}
	return found
}

// fpChainAgrees reports whether, three non-inlined calls deep, fpChain reads
// the same three return addresses runtime.Callers reports — which also
// settles that this package still calls its assembly without a wrapper frame
// in between, the assumption fpChain's starting point makes.
func fpChainAgrees() bool {
	var got, want [maxChain]uintptr
	return fpNest(2, &got, &want) == 3 && got == want
}

//go:noinline
func fpNest(depth int, got, want *[maxChain]uintptr) int {
	if depth > 0 {
		return fpNest(depth-1, got, want)
	}
	// 2: runtime.Callers itself and this frame.
	runtime.Callers(2, want[:3])
	return fpChain(got, 3)
}
