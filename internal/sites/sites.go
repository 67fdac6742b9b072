// Package sites interns instrumentation sites — (location, class, method,
// kind) tuples — into dense ids.SiteID handles.
//
// The detector's per-site state (coverage flags, sampler admission
// thresholds) used to live in maps keyed by sparse OpIDs; every OnCall paid
// a hashed probe per structure. A SiteID is assigned sequentially at
// registration time, so the same state now lives in plain arrays indexed by
// the id — one bounds check and one load on the hot path, no hashing at all
// (docs/PERFORMANCE.md has the measured difference).
//
// Identity model: an OpID names a static program location and remains the
// cross-process identity used in trap files and pair keys (its string key is
// stable across runs). A SiteID refines it with the API metadata reports
// need (class, method, read/write) and is process-local: dense ids are
// handed out in registration order, so two processes agree on a site only
// through its (location key, class, method, kind) tuple — Tuple, which is
// exactly what the site tables serialized into trace summaries, trap files,
// triage reports and tsvd-instrument output carry: Tuples hands a registry's
// sites to such a boundary and Intern takes them back.
//
// Registration happens once per static site (instrumentation prologues
// intern on first execution; tsvd-instrument emits a table registered up
// front), after which every lookup path is lock-free.
package sites

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ids"
	"repro/internal/intmap"
)

// Site is one interned instrumentation site.
type Site struct {
	// ID is the dense registry handle; 0 is never a valid registered site.
	ID ids.SiteID
	// Op is the interned static location the site instruments.
	Op ids.OpID
	// Class and Method name the thread-unsafe API, e.g. "Dictionary", "Add".
	// The op-keyed fallback path registers them empty.
	Class  string
	Method string
	// Write marks write-kind sites (the API requires exclusive access).
	Write bool
}

type tupleKey struct {
	op            ids.OpID
	class, method string
	write         bool
}

// Registry interns site tuples into dense SiteIDs. All lookup methods are
// safe for concurrent use; the hot paths (ForCall, ForOpKind, Info) are
// lock-free once a site is registered.
type Registry struct {
	mu sync.Mutex
	// table is the dense site table, index == SiteID. Index 0 holds the
	// zero Site. Growth appends under mu and republishes the header via the
	// atomic pointer: element i is written strictly before any header with
	// len > i is published, and never rewritten, so lock-free readers are
	// always consistent.
	table atomic.Pointer[[]Site]
	// byTuple is the canonical intern map, guarded by mu.
	byTuple map[tupleKey]ids.SiteID
	// byOpKind caches the first site registered for each (op, kind) — the
	// lock-free fast path for instrumentation prologues and for accesses
	// that carry only an OpID.
	byOpKind intmap.Map[ids.SiteID]
	// byOp caches the first site registered for each op, for report/trace
	// serialization, which resolves sites from pair keys (op pairs).
	byOp intmap.Map[ids.SiteID]
}

// New returns an empty registry.
func New() *Registry {
	r := &Registry{byTuple: map[tupleKey]ids.SiteID{}}
	t := make([]Site, 1, 64)
	r.table.Store(&t)
	return r
}

func opKindKey(op ids.OpID, write bool) int64 {
	k := int64(op) << 1
	if write {
		k |= 1
	}
	return k
}

// Register interns the tuple, returning its dense id. Registering the same
// tuple again returns the existing id.
func (r *Registry) Register(op ids.OpID, class, method string, write bool) ids.SiteID {
	if id, ok := r.fastLookup(op, class, method, write); ok {
		return id
	}
	return r.registerSlow(op, class, method, write)
}

// ForCall is the instrumentation-prologue intern: identical to Register but
// named for its hot-path role. On every call after the first for a given
// call site it is one lock-free intmap probe keyed by (op, kind), one load of
// the site table and two string compares (which succeed on pointer equality
// for the constant class/method strings prologues pass) — ≈ 8 ns. It is the
// cheapest of the prologue's three steps: the op it is handed comes from
// ids.CallerOp (≈ 15–25 ns: a frame-pointer walk and a second probe of the
// same kind on amd64, an unwind where ids' init self-check ruled that out)
// and the access also carries ids.CurrentThreadID (≈ 2 ns from the runtime's
// g on amd64, a stack-dump parse of several µs elsewhere).
func (r *Registry) ForCall(op ids.OpID, class, method string, write bool) ids.SiteID {
	return r.Register(op, class, method, write)
}

func (r *Registry) fastLookup(op ids.OpID, class, method string, write bool) (ids.SiteID, bool) {
	if p := r.byOpKind.Get(opKindKey(op, write)); p != nil {
		id := *p
		t := *r.table.Load()
		if s := &t[id]; s.Class == class && s.Method == method {
			return id, true
		}
	}
	return 0, false
}

func (r *Registry) registerSlow(op ids.OpID, class, method string, write bool) ids.SiteID {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := tupleKey{op: op, class: class, method: method, write: write}
	if id, ok := r.byTuple[k]; ok {
		return id
	}
	t := *r.table.Load()
	id := ids.SiteID(len(t))
	nt := append(t, Site{ID: id, Op: op, Class: class, Method: method, Write: write})
	r.table.Store(&nt)
	r.byTuple[k] = id
	set := func(v *ids.SiteID) { *v = id }
	r.byOpKind.GetOrInit(opKindKey(op, write), set)
	r.byOp.GetOrInit(int64(op), set)
	return id
}

// ForOpKind resolves the site for an access that carries only an OpID
// (fabricated test accesses): the first site registered for
// (op, kind), auto-registered with empty class/method if the op was never
// seen. Lock-free after the first call per (op, kind).
func (r *Registry) ForOpKind(op ids.OpID, write bool) ids.SiteID {
	if p := r.byOpKind.Get(opKindKey(op, write)); p != nil {
		return *p
	}
	return r.registerSlow(op, "", "", write)
}

// Info returns the site for id (the zero Site for 0 or out-of-range ids).
// Lock-free.
func (r *Registry) Info(id ids.SiteID) Site {
	t := *r.table.Load()
	if int(id) < len(t) {
		return t[id]
	}
	return Site{}
}

// SiteForOp returns the first site registered for op, for resolving sites
// from op-keyed records (pair keys, trace events). Lock-free.
func (r *Registry) SiteForOp(op ids.OpID) (Site, bool) {
	if p := r.byOp.Get(int64(op)); p != nil {
		return r.Info(*p), true
	}
	return Site{}, false
}

// Len reports the number of registered sites.
func (r *Registry) Len() int {
	return len(*r.table.Load()) - 1
}

// Tuple is the cross-process identity of a site: the stable location key
// (ids.OpID.Key form) plus the API metadata, and no OpID or SiteID — those
// are process-local. It is the one wire form of a site: a trap file's site
// table, a trace summary's (under a process-local id), each side of a triage
// signature and a tsvd-instrument -sites table all carry these four keys.
type Tuple struct {
	Loc    string `json:"loc"`
	Class  string `json:"class,omitempty"`
	Method string `json:"method,omitempty"`
	Write  bool   `json:"write,omitempty"`
}

// Less is the canonical order of site tables and of the two sides of a
// signature: a strict total order over all four fields.
func (t Tuple) Less(u Tuple) bool {
	if t.Loc != u.Loc {
		return t.Loc < u.Loc
	}
	if t.Class != u.Class {
		return t.Class < u.Class
	}
	if t.Method != u.Method {
		return t.Method < u.Method
	}
	return !t.Write && u.Write
}

// String renders the tuple the way reports show one side of a pair.
func (t Tuple) String() string {
	if t.Class == "" && t.Method == "" {
		if t.Write {
			// A set write flag is affirmative even without API metadata.
			return t.Loc + " (write)"
		}
		// Metadata-less sources (bare trap snapshots) can't distinguish a
		// read from an unknown kind; claim nothing.
		return t.Loc
	}
	rw := "read"
	if t.Write {
		rw = "write"
	}
	return fmt.Sprintf("%s (%s.%s, %s)", t.Loc, t.Class, t.Method, rw)
}

// Loc is the location key serialized output names op by: its stable interned
// key, or "op#<id>" for an op that was never key-interned (fabricated tests).
func Loc(op ids.OpID) string {
	if k := op.Key(); k != "" {
		return k
	}
	return fmt.Sprintf("op#%d", uint64(op))
}

// Tuples returns the registered sites in id order (id 1 first), each under
// its op's stable key; nil for a nil registry.
func (r *Registry) Tuples() []Tuple {
	if r == nil {
		return nil
	}
	t := (*r.table.Load())[1:]
	out := make([]Tuple, len(t))
	for i, s := range t {
		out[i] = Tuple{Loc: s.Op.Key(), Class: s.Class, Method: s.Method, Write: s.Write}
	}
	return out
}

// Intern registers a tuple that crossed a process boundary — the one place
// outside ids where a location key becomes an OpID. A tuple without a
// location names no site and gets id 0.
func (r *Registry) Intern(t Tuple) ids.SiteID {
	if t.Loc == "" {
		return 0
	}
	return r.Register(ids.InternKey(t.Loc), t.Class, t.Method, t.Write)
}
