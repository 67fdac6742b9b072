// Package ids provides the identity primitives the TSVD runtime is built on:
// goroutine ("thread") identifiers, static program locations (call-site PCs),
// per-object identity tokens, and stack capture for bug reports.
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
	"sync"
	"sync/atomic"
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

// CurrentThreadID returns the id of the calling goroutine.
//
// Go deliberately hides goroutine ids, so we parse the header line of
// runtime.Stack, the only stable, stdlib-only way to obtain one. The cost is
// on the order of a microsecond, which is far below the delay granularity the
// detector works at, and it is paid once per instrumented call.
func CurrentThreadID() ThreadID {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	b := buf[:n]
	if !bytes.HasPrefix(b, goroutinePrefix) {
		return -1
	}
	b = b[len(goroutinePrefix):]
	i := bytes.IndexByte(b, ' ')
	if i < 0 {
		return -1
	}
	id, err := strconv.ParseInt(string(b[:i]), 10, 64)
	if err != nil {
		return -1
	}
	return ThreadID(id)
}

// opBase is where interned OpIDs start: high enough that tests can fabricate
// small literal OpIDs without colliding with real call sites.
const opBase = OpID(1) << 32

// opEntry is one interned location: the persistent key trap files store
// ("file:line") and the human-readable "file:line (function)" rendering.
type opEntry struct{ key, loc string }

var (
	// pcToOp caches the physical-PC → OpID mapping (hot path).
	pcToOp sync.Map // uintptr → OpID
	opMu   sync.RWMutex
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

// CallerOp returns the OpID of the call site `skip` frames above the caller
// of CallerOp. skip=0 means the immediate caller of the function that calls
// CallerOp. The instrumented collections use this to attribute every access
// to the user call site rather than to the wrapper method.
func CallerOp(skip int) OpID {
	var pcs [1]uintptr
	// +3: runtime.Callers itself, CallerOp, and the function calling
	// CallerOp — leaving that function's own call site as the first PC.
	if runtime.Callers(skip+3, pcs[:]) == 0 {
		return 0
	}
	pc := pcs[0]
	if v, ok := pcToOp.Load(pc); ok {
		return v.(OpID)
	}
	frames := runtime.CallersFrames([]uintptr{pc})
	frame, _ := frames.Next()
	key := fmt.Sprintf("%s:%d", frame.File, frame.Line)
	loc := fmt.Sprintf("%s (%s)", key, frame.Function)
	if frame.File == "" {
		key = fmt.Sprintf("pc=0x%x", pc)
		loc = key
	}
	op := intern(key, loc)
	pcToOp.Store(pc, op)
	return op
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

// Stack captures the current goroutine's stack trace as text, trimmed of the
// header line. Used for the two-sided stack traces in bug reports.
func Stack() string {
	buf := make([]byte, 16<<10)
	n := runtime.Stack(buf, false)
	b := buf[:n]
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[i+1:]
	}
	return string(b)
}

// StackDepth reports the number of frames in the current goroutine's stack
// below (and excluding) this function. Used for the "avg stack depth"
// statistic in Table 1.
func StackDepth() int {
	var pcs [128]uintptr
	return runtime.Callers(2, pcs[:])
}
