// Package ids provides the identity primitives the TSVD runtime is built on:
// goroutine ("thread") identifiers, static program locations (call-site PCs),
// per-object identity tokens, and stack rendering for bug reports.
//
// The TSVD algorithm (SOSP '19, §3.1) only ever sees three identifiers per
// access — thread_id, obj_id, op_id — so this package is the entire surface
// between the Go runtime and the detector.
package ids

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/intmap"
)

// ThreadID identifies a thread of execution. In this Go port a "thread" is a
// goroutine; the algorithm only requires the ids to be unique and stable for
// the lifetime of the goroutine.
type ThreadID int64

// OpID identifies a static program location (a TSVD point): the source
// file:line of a call into a thread-unsafe API. IDs are interned — the same
// source location always yields the same OpID, even when the compiler
// inlines the enclosing function into several callers and the physical
// program counters diverge.
type OpID uint64

// ObjectID identifies one instance of a thread-unsafe object. IDs are
// assigned from an atomic counter at construction time so they are unique
// and GC-safe (no pointer-to-integer conversions).
type ObjectID uint64

// SiteID is a dense small-integer handle for one instrumentation site: an
// interned (location, class, method, kind) tuple registered with a
// sites.Registry. Unlike OpID (a sparse interned token that survives only as
// its string key), SiteIDs are allocated sequentially from 1, so detector
// state keyed by site fits in plain arrays indexed by the id itself — the
// layout the OnCall fast path is built on. 0 is reserved for "unregistered";
// the detector resolves it through the registry's op-keyed fallback.
type SiteID uint32

var objectCounter atomic.Uint64

// NewObjectID returns a fresh, process-unique object identifier.
func NewObjectID() ObjectID {
	return ObjectID(objectCounter.Add(1))
}

var goroutinePrefix = []byte("goroutine ")

// CurrentThreadID returns the id of the calling goroutine: the runtime's own
// goroutine id, the number a stack dump prints.
//
// Go hides that id, so there are two ways to it. On amd64, once init's
// self-check has found where the runtime keeps goid inside its g (see
// findGoidOffset), this is one assembly stub that loads g from thread-local
// storage and reads that word: a few nanoseconds, no lock, no allocation, and
// it cannot fail. Everywhere else — other architectures, or a runtime whose g
// the self-check could not make sense of — it parses the header line of
// runtime.Stack, the only stdlib way to learn the id. That costs 7–8 µs a
// call on the reference VM and more with every extra thread calling it
// (runtime.Stack serializes on a runtime-wide lock), which was over 95 % of
// an instrumented call while it was the only path. The g pointer itself is
// never the id: the runtime recycles a finished goroutine's g for the next
// one.
func CurrentThreadID() ThreadID {
	if goidOffset != 0 {
		return ThreadID(gword(goidOffset))
	}
	return parseThreadID()
}

var threadIDFailures atomic.Int64

// ThreadIDFailures reports how many times CurrentThreadID could not learn
// the calling goroutine's id and returned -1. Every goroutine that gets -1
// shares one detector thread state, so anything but 0 means verdicts of this
// process are suspect. Only the portable parser can fail.
func ThreadIDFailures() int64 { return threadIDFailures.Load() }

// parseThreadID is the portable CurrentThreadID: the N of the "goroutine N ["
// header runtime.Stack writes.
func parseThreadID() ThreadID {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	if b, ok := bytes.CutPrefix(b, goroutinePrefix); ok {
		if i := bytes.IndexByte(b, ' '); i >= 0 {
			if id, err := strconv.ParseInt(string(b[:i]), 10, 64); err == nil {
				return ThreadID(id)
			}
		}
	}
	threadIDFailures.Add(1)
	return -1
}

// opBase is where interned OpIDs start: high enough that tests can fabricate
// small literal OpIDs without colliding with real call sites.
const opBase = OpID(1) << 32

// opEntry is one interned location: the persistent key trap files store
// ("file:line") and the human-readable "file:line (function)" rendering.
type opEntry struct{ key, loc string }

var (
	opMu sync.RWMutex
	// ops is the op table: ops[i] describes OpID(opBase+1+i). opByKey is its
	// key index.
	ops     []opEntry
	opByKey = map[string]OpID{}
)

// intern returns the OpID for key, adding it to the op table with the given
// rendering on first sight.
func intern(key, loc string) OpID {
	opMu.Lock()
	defer opMu.Unlock()
	op, ok := opByKey[key]
	if !ok {
		ops = append(ops, opEntry{key: key, loc: loc})
		op = opBase + OpID(len(ops))
		opByKey[key] = op
	}
	return op
}

// entry returns op's table row; ok is false for ids that were never interned
// (e.g. fabricated test constants).
func (op OpID) entry() (e opEntry, ok bool) {
	opMu.RLock()
	defer opMu.RUnlock()
	if i := op - opBase - 1; op > opBase && i < OpID(len(ops)) {
		return ops[i], true
	}
	return opEntry{}, false
}

// maxChain is how many return addresses CallerOp keys its cache by. A proxy
// asks for the frame two above itself, and a generic method reached through
// an interface or a method value puts up to two compiler-generated wrapper
// frames in between, so six reaches the user's frame with one to spare.
const maxChain = 6

// chainOp is one cached answer of CallerOp: the question — a chain of return
// addresses and a skip — and the location it resolved to.
type chainOp struct {
	chain [maxChain]uintptr
	skip  int
	op    OpID
}

// chainOps caches CallerOp's answers by chainKey. Insert-only, like the op
// table behind it: a program has finitely many call paths of depth maxChain.
var chainOps intmap.Map[chainOp]

// chainKey hashes a question into an intmap key. Clearing the top bit keeps
// it off intmap's empty-slot marker.
func chainKey(chain *[maxChain]uintptr, skip int) int64 {
	h := uint64(skip)
	for _, pc := range chain {
		h = (h ^ uint64(pc)) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return int64(h &^ (1 << 63))
}

// CallerOp returns the OpID of the call site `skip` frames above the caller
// of CallerOp. skip=0 means the immediate caller of the function that calls
// CallerOp. The instrumented collections use this to attribute every access
// to the user call site rather than to the wrapper method.
//
// The location is always what runtime.Callers and runtime.CallersFrames say
// it is; what differs is how a repeated call avoids asking them again. On
// amd64, once init's self-check has seen the frame-pointer walk agree with
// runtime.Callers (see fpChainAgrees), an assembly stub reads the maxChain
// innermost return addresses off the frame-pointer chain and CallerOp looks
// that chain up: the same return addresses always unwind to the same logical
// frames, however the compiler inlined the functions in between, and an
// inlined helper called from two places is two chains with one answer. A
// chain is only cached after chainReaches has confirmed, against
// runtime.Callers, that the frame asked for lies within it; until then, and
// for a chain that never does, every call resolves the slow way. Elsewhere —
// other architectures, a failed self-check — the chain is the one program
// counter runtime.Callers reports for the frame, which costs an unwind per
// call (≈ 200 ns) and is how this function has always worked.
//
// The walk trusts every frame it crosses to have saved its caller's frame
// pointer, as the runtime's own frame-pointer unwinder does. Every compiled
// Go function that makes a call does; assembly marked NOFRAME does not.
func CallerOp(skip int) OpID {
	var chain [maxChain]uintptr
	n := 0
	if fpChainOK {
		n = fpChain(&chain, maxChain)
	} else {
		chain[0] = callerPC(skip + 1)
	}
	key := chainKey(&chain, skip)
	e, sure := chainOps.GetFast(key)
	if !sure {
		e = chainOps.Get(key)
	}
	if e != nil && e.chain == chain && e.skip == skip {
		return e.op
	}
	pc := callerPC(skip + 1)
	if pc == 0 {
		return 0
	}
	op := resolvePC(pc)
	// n < maxChain: the chain is the whole stack (or, on the portable path,
	// the answer itself). A second question under an occupied key is never
	// cached; 63-bit keys make that a curiosity.
	if e == nil && (n < maxChain || chainReaches(&chain, skip+1)) {
		chainOps.GetOrInit(key, func(c *chainOp) { *c = chainOp{chain: chain, skip: skip, op: op} })
	}
	return op
}

// chainReaches reports whether chain — the return addresses fpChain read for
// the function calling chainReaches — determines logical frame `target` above
// that function's caller (frame 0). runtime.Callers lists one program counter
// per logical frame: the return address itself for the innermost logical
// frame of each physical frame, made-up ones for the frames inlined around
// it, none at all for compiler-generated wrappers. So the frames up to and
// including the first listed counter that is a return address of the chain
// are fixed by the chain up to that address, and the target is among them iff
// such a counter sits at or above it.
func chainReaches(chain *[maxChain]uintptr, target int) bool {
	var logical [4 * maxChain]uintptr
	// 3: runtime.Callers itself, chainReaches and CallerOp.
	next := 0
	for i, pc := range logical[:runtime.Callers(3, logical[:])] {
		for j := next; j < maxChain; j++ {
			if chain[j] == pc {
				if i >= target {
					return true
				}
				next = j + 1
				break
			}
		}
	}
	return false
}

// callerPC returns the program counter runtime.Callers reports for a call
// site above callerPC's caller — skip=0 is where that caller was called
// from, skip=1 where that one was — or 0 if the stack is not that deep.
func callerPC(skip int) uintptr {
	var pcs [1]uintptr
	// +3: runtime.Callers itself, callerPC, and the function calling
	// callerPC — leaving that function's own call site as the first PC.
	if runtime.Callers(skip+3, pcs[:]) == 0 {
		return 0
	}
	return pcs[0]
}

// resolvePC interns the source location of a program counter that
// runtime.Callers reported.
func resolvePC(pc uintptr) OpID {
	frames := runtime.CallersFrames([]uintptr{pc})
	frame, _ := frames.Next()
	key := fmt.Sprintf("%s:%d", frame.File, frame.Line)
	loc := fmt.Sprintf("%s (%s)", key, frame.Function)
	if frame.File == "" {
		key = fmt.Sprintf("pc=0x%x", pc)
		loc = key
	}
	return intern(key, loc)
}

// Location resolves an OpID to its "file:line (function)" string. OpIDs not
// produced by CallerOp (e.g. fabricated in tests) render as "op#N".
func (op OpID) Location() string {
	if e, ok := op.entry(); ok {
		return e.loc
	}
	return fmt.Sprintf("op#%d", uint64(op))
}

// InternKey returns the stable OpID for an arbitrary location key. The same
// key always maps to the same OpID within a process, and keys themselves are
// stable across processes, which is what trap files persist (§3.4.6). The
// synthetic workload generator also uses this to give every generated call
// site a distinct static identity.
func InternKey(key string) OpID { return intern(key, key) }

// Key returns the persistent location key for an OpID, or "" for ids that
// were never interned (e.g. fabricated test constants).
func (op OpID) Key() string {
	e, _ := op.entry()
	return e.key
}

// FormatStack renders a stack captured by runtime.Callers the way
// runtime.Stack lays one out — a function line, then a tab-indented
// file:line — so everything that reads stacks as text (the Table-1 depth
// statistic, the report writers) reads it unchanged. What
// it leaves out on purpose is what made two captures of one call path differ:
// argument values and pc offsets. A trap keeps only the program counters and
// pays for this when it springs.
func FormatStack(pcs []uintptr) string {
	var b strings.Builder
	AppendStack(&b, pcs)
	return b.String()
}

// AppendStack writes FormatStack's rendering of pcs to b, for a caller that
// renders several stacks into one string.
func AppendStack(b *strings.Builder, pcs []uintptr) {
	if len(pcs) == 0 {
		return
	}
	b.Grow(128 * len(pcs)) // a frame is two module-qualified paths
	var num [20]byte
	frames := runtime.CallersFrames(pcs)
	for more := true; more; {
		var f runtime.Frame
		f, more = frames.Next()
		b.WriteString(f.Function)
		b.WriteString("(...)\n\t")
		b.WriteString(f.File)
		b.WriteByte(':')
		b.Write(strconv.AppendInt(num[:0], int64(f.Line), 10))
		b.WriteByte('\n')
	}
}
