package ids

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCurrentThreadIDStable(t *testing.T) {
	a := CurrentThreadID()
	b := CurrentThreadID()
	if a <= 0 {
		t.Fatalf("thread id = %d, want > 0", a)
	}
	if a != b {
		t.Fatalf("thread id changed within one goroutine: %d != %d", a, b)
	}
}

func TestCurrentThreadIDDistinctAcrossGoroutines(t *testing.T) {
	const n = 50
	var mu sync.Mutex
	seen := map[ThreadID]bool{}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := CurrentThreadID()
			mu.Lock()
			seen[id] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("saw %d distinct ids for %d goroutines", len(seen), n)
	}
	if seen[CurrentThreadID()] {
		t.Fatal("a child goroutine shares the parent's id")
	}
}

func TestNewObjectIDUnique(t *testing.T) {
	const n = 1000
	seen := map[ObjectID]bool{}
	for i := 0; i < n; i++ {
		id := NewObjectID()
		if seen[id] {
			t.Fatalf("duplicate object id %d", id)
		}
		seen[id] = true
	}
}

//go:noinline
func callerOpProbe() OpID { return CallerOp(0) }

func TestCallerOpIdentifiesCallSite(t *testing.T) {
	op1 := callerOpProbe()
	op2 := callerOpProbe()
	op3 := callerOpProbe()
	if op1 == 0 {
		t.Fatal("CallerOp returned 0")
	}
	// Three distinct call sites must produce three distinct OpIDs.
	if op1 == op2 || op2 == op3 || op1 == op3 {
		t.Fatalf("distinct call sites share an OpID: %v %v %v", op1, op2, op3)
	}
	loc := op1.Location()
	if !strings.Contains(loc, "ids_test.go") {
		t.Fatalf("Location() = %q, want it to mention ids_test.go", loc)
	}
	// Cached second resolution must match.
	if loc2 := op1.Location(); loc2 != loc {
		t.Fatalf("cached location mismatch: %q != %q", loc2, loc)
	}
}

func TestCallerOpSameSiteStable(t *testing.T) {
	var ops [3]OpID
	for i := range ops {
		ops[i] = callerOpProbe() // one call site, three executions
	}
	if ops[0] != ops[1] || ops[1] != ops[2] {
		t.Fatalf("one call site produced different OpIDs: %v", ops)
	}
}

func TestStackMentionsCaller(t *testing.T) {
	var pcs [32]uintptr
	n := runtime.Callers(1, pcs[:])
	s := FormatStack(pcs[:n])
	if !strings.HasPrefix(s, "repro/internal/ids.TestStackMentionsCaller(...)\n\t") {
		t.Fatalf("stack does not start at the caller:\n%s", s)
	}
	if got := strings.Count(s, "\n"); got != 2*n {
		t.Fatalf("%d lines for %d frames, want two a frame:\n%s", got, n, s)
	}
	if strings.Contains(s, "0x") {
		t.Fatalf("stack carries argument values or pc offsets:\n%s", s)
	}
	if FormatStack(nil) != "" {
		t.Fatal("an empty capture rendered as text")
	}
}

func TestStackDepthGrowsWithRecursion(t *testing.T) {
	var depthAt func(n int) int
	depthAt = func(n int) int {
		if n == 0 {
			var pcs [128]uintptr
			return runtime.Callers(1, pcs[:])
		}
		return depthAt(n - 1)
	}
	shallow := depthAt(0)
	deep := depthAt(10)
	if deep <= shallow {
		t.Fatalf("depth did not grow with recursion: shallow=%d deep=%d", shallow, deep)
	}
}

// lineAbove returns the "file:line" key and "file:line (function)" rendering
// CallerOp must produce for a call made on the line above lineAbove's own
// call, in the same function.
func lineAbove() (key, loc string) {
	var pcs [1]uintptr
	runtime.Callers(2, pcs[:])
	f, _ := runtime.CallersFrames(pcs[:]).Next()
	key = fmt.Sprintf("%s:%d", f.File, f.Line-1)
	return key, fmt.Sprintf("%s (%s)", key, f.Function)
}

func TestFastPathsSelectedOnAMD64(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the assembly stubs exist on amd64 only")
	}
	if goidOffset == 0 {
		t.Error("init found no goid offset: CurrentThreadID is parsing stack dumps")
	}
	if !fpChainOK {
		t.Error("init's frame-pointer walk disagreed with runtime.Callers: CallerOp is unwinding")
	}
}

// TestThreadIDOnRecycledGoroutines spawns goroutines in waves, each wave
// after the previous one has exited, so the runtime hands later waves the g
// structures of earlier ones. Whichever path CurrentThreadID takes must read
// the id the stack dump prints, and a recycled g must not bring its previous
// id along.
func TestThreadIDOnRecycledGoroutines(t *testing.T) {
	const waves, perWave = 25, 400
	seen := make(map[ThreadID]bool, waves*perWave)
	for w := 0; w < waves; w++ {
		got := make([][2]ThreadID, perWave)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(out *[2]ThreadID) {
				defer wg.Done()
				*out = [2]ThreadID{CurrentThreadID(), parseThreadID()}
			}(&got[i])
		}
		wg.Wait()
		for _, ids := range got {
			if ids[0] != ids[1] || ids[0] <= 0 {
				t.Fatalf("wave %d: CurrentThreadID() = %d, the stack dump says %d", w, ids[0], ids[1])
			}
			if seen[ids[0]] {
				t.Fatalf("wave %d: id %d was already handed out", w, ids[0])
			}
			seen[ids[0]] = true
		}
	}
	if n := ThreadIDFailures(); n != 0 {
		t.Fatalf("ThreadIDFailures() = %d, want 0", n)
	}
}

// TestPortablePathsAgree switches both primitives to their portable paths
// the way a failed self-check would leave them and asks the same questions
// again from the same call site.
func TestPortablePathsAgree(t *testing.T) {
	off, ok := goidOffset, fpChainOK
	defer func() { goidOffset, fpChainOK = off, ok }()
	var got [2]struct {
		id ThreadID
		op OpID
	}
	for pass := range got {
		if pass == 1 {
			goidOffset, fpChainOK = 0, false
		}
		got[pass].id = CurrentThreadID()
		got[pass].op = callerOpProbe()
	}
	if got[0] != got[1] {
		t.Fatalf("as selected by init: %+v; portable: %+v", got[0], got[1])
	}
	if got[1].id <= 0 || got[1].op == 0 {
		t.Fatalf("portable paths returned %+v", got[1])
	}
}

// inlinedProbe is small enough to be inlined into its callers, which gives
// its one source line a different return-address chain per caller.
func inlinedProbe() OpID { return callerOpProbe() }

func TestInlinedCallSiteIsOneOp(t *testing.T) {
	chains := chainOps.Len()
	a := inlinedProbe()
	b := inlinedProbe()
	t.Logf("two calls of one inlinable helper cached %d chain(s)", chainOps.Len()-chains)
	if a != b {
		t.Fatalf("one source line got two OpIDs: %q and %q", a.Location(), b.Location())
	}
	if loc := a.Location(); !strings.Contains(loc, "ids.inlinedProbe)") {
		t.Fatalf("Location() = %q, want the line inside inlinedProbe", loc)
	}
}

func TestCallerOpMatchesRuntimeCallers(t *testing.T) {
	for i := 0; i < 3; i++ { // the first pass resolves, later ones hit the cache
		op := callerOpProbe()
		key, loc := lineAbove()
		if op.Key() != key || op.Location() != loc {
			t.Fatalf("pass %d: CallerOp is %q / %q, runtime.Callers says %q / %q", i, op.Key(), op.Location(), key, loc)
		}
	}
	if op := CallerOp(1 << 20); op != 0 {
		t.Fatalf("CallerOp beyond the top of the stack = %q, want 0", op.Location())
	}
}

//go:noinline
func deepProbe(depth, skip int) OpID {
	if depth > 0 {
		return deepProbe(depth-1, skip)
	}
	return CallerOp(skip)
}

// TestChainTooShortIsNotCached asks, from two lines, for a frame further up
// than maxChain return addresses reach: both calls read the same chain (all
// of it inside deepProbe's recursion), so an answer cached for one would be
// wrong for the other.
func TestChainTooShortIsNotCached(t *testing.T) {
	const depth = maxChain + 2
	chains := chainOps.Len()
	for pass := 0; pass < 2; pass++ {
		a := deepProbe(depth, depth)
		keyA, _ := lineAbove()
		b := deepProbe(depth, depth)
		keyB, _ := lineAbove()
		if a.Key() != keyA || b.Key() != keyB {
			t.Fatalf("pass %d: attributed to %q and %q, want %q and %q", pass, a.Key(), b.Key(), keyA, keyB)
		}
	}
	if grew := chainOps.Len() - chains; fpChainOK && grew != 0 {
		t.Fatalf("cached %d chain(s) that do not reach the frame asked for", grew)
	}
}

// Run with -cpu 1,2: neither primitive takes a lock, so ns/op must not rise
// with the second CPU (the stack-dump parser's tripled).
func BenchmarkCurrentThreadID(b *testing.B) {
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			CurrentThreadID()
		}
	})
}

func BenchmarkCallerOp(b *testing.B) {
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			CallerOp(0)
		}
	})
}

// TestChainKeyDependsOnEveryBit flips each bit of each of the six chain
// positions and of skip in turn: every flip must move the key, or two call
// paths that differ only there would share a cache slot.
func TestChainKeyDependsOnEveryBit(t *testing.T) {
	var real [maxChain]uintptr
	runtime.Callers(1, real[:])
	chains := [][maxChain]uintptr{real, {}, {^uintptr(0), 1, 2, 3, 4, 5}}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 8; i++ {
		var c [maxChain]uintptr
		for j := range c {
			c[j] = uintptr(rng.Uint64())
		}
		chains = append(chains, c)
	}
	for _, chain := range chains {
		for _, skip := range []int{0, 1, 3, -1} {
			key := chainKey(&chain, skip)
			for pos := 0; pos <= maxChain; pos++ { // maxChain: skip
				for bit := 0; bit < 64; bit++ {
					c, s := chain, skip
					if pos < maxChain {
						c[pos] ^= 1 << bit
					} else {
						s ^= 1 << bit
					}
					if chainKey(&c, s) == key {
						t.Fatalf("chain %x skip %d: flipping bit %d of position %d leaves the key %x", chain, skip, bit, pos, key)
					}
				}
			}
		}
	}
}

// TestHitCheckComparesEveryWord: a cache entry answers exactly its own
// question. Lookups ask every entry on a question's probe sequence, so this
// check alone tells apart call paths whose keys collide — which no real call
// path can be made to do on demand, so the check is asked directly.
func TestHitCheckComparesEveryWord(t *testing.T) {
	const skip = 2
	e := &chainOp{chain: [maxChain]uintptr{11, 12, 13, 14, 15, 16}, skip: skip}
	if !e.answers(&e.chain, skip) {
		t.Fatal("an entry does not answer its own question")
	}
	for pos := 0; pos < maxChain; pos++ {
		c := e.chain
		c[pos]++
		if e.answers(&c, skip) {
			t.Errorf("an entry answers a chain that differs from its own at position %d", pos)
		}
	}
	if e.answers(&e.chain, skip+1) || e.answers(&e.chain, skip+1<<32) {
		t.Error("an entry answers another skip")
	}
}

// TestChainCacheProbesAndGrows fills a cache of its own through several
// growths, far more questions than its first table's 64 entries, so many
// share a probe sequence: each is found with its own answer, and a memo
// stored before a growth is still there after it.
func TestChainCacheProbesAndGrows(t *testing.T) {
	var c chainCache
	question := func(i int) *[maxChain]uintptr { return &[maxChain]uintptr{uintptr(i + 1), 7, 7, 7, 7, 7} }
	lookup := func(i, skip int) *chainOp {
		return find(*c.table.Load(), chainKey(question(i), skip), question(i), skip)
	}
	const n = 300
	for i := 0; i < n; i++ {
		e := c.insert(chainKey(question(i), 1), question(i), 1, opBase+OpID(i+1))
		e.memo.Store(uint64(i + 1))
		if again := c.insert(chainKey(question(i), 1), question(i), 1, opBase+OpID(i+1)); again != e {
			t.Fatalf("question %d inserted twice", i)
		}
	}
	if c.Len() != n {
		t.Fatalf("Len() = %d after %d questions", c.Len(), n)
	}
	for i := 0; i < n; i++ {
		if e := lookup(i, 1); e == nil || e.op.Load() != uint32(i+1) || e.memo.Load() != uint64(i+1) {
			t.Fatalf("question %d: found %v", i, e)
		}
		if lookup(i, 2) != nil {
			t.Fatalf("question %d is found under another skip", i)
		}
	}
}

//go:noinline
func callerSiteProbe() (OpID, *atomic.Uint64) { return CallerSite(0) }

// answer is one CallerSite result, so that two calls fit on one line.
type answer struct {
	op   OpID
	memo *atomic.Uint64
}

func answered(op OpID, memo *atomic.Uint64) answer { return answer{op, memo} }

// TestCallerSiteMemoIsPerCallPath: CallerSite answers as runtime.Callers
// does, and its memo word belongs to one call path — the same word on every
// execution of that path and another word for every other path, even for
// two calls on one source line, which share the op.
func TestCallerSiteMemoIsPerCallPath(t *testing.T) {
	var got [3][3]answer
	for pass := range got {
		var want [3]string
		got[pass][0] = answered(callerSiteProbe())
		want[0], _ = lineAbove()
		got[pass][1], got[pass][2] = answered(callerSiteProbe()), answered(callerSiteProbe())
		want[1], _ = lineAbove()
		want[2] = want[1]
		for i, a := range got[pass] {
			if a.op.Key() != want[i] {
				t.Fatalf("pass %d, call %d: CallerSite is %q, runtime.Callers says %q", pass, i, a.op.Key(), want[i])
			}
			if a.memo == nil {
				t.Fatalf("pass %d, call %d: a cached call path came without a memo word", pass, i)
			}
		}
		if got[pass] != got[0] {
			t.Fatalf("pass %d: one call path answered %v, then %v", pass, got[pass], got[0])
		}
	}
	a := got[0]
	if a[0].memo == a[1].memo || a[1].memo == a[2].memo || a[0].memo == a[2].memo {
		t.Fatal("two call paths share a memo word")
	}
	if a[1].op != a[2].op {
		t.Fatalf("two calls on one line got two ops: %q and %q", a[1].op.Location(), a[2].op.Location())
	}
}
