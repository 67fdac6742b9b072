// Package report defines thread-safety-violation bug reports and their
// aggregation. Following the paper (§5.2), a *bug* is uniquely identified by
// the unordered pair of static program locations participating in the
// violation; the same bug can manifest through many different stack-trace
// pairs and many dynamic occurrences, which the Collector counts separately.
package report

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ids"
)

// Side describes one of the two accesses caught red-handed in a violation.
type Side struct {
	Thread ids.ThreadID
	Op     ids.OpID
	// Site is the interned site handle the access carried (stable only
	// within the producing process; serialized outputs pair it with a site
	// table). Class and Method are resolved from it at report time.
	Site ids.SiteID
	// Write is true when this side is a write-API call.
	Write bool
	// Class and Method describe the thread-unsafe API, e.g. Dictionary.Add.
	Class  string
	Method string
	// PCs is the goroutine's call stack at the moment of the access as
	// runtime.Callers reported it (meaningful only within the producing
	// process); Stack is its rendering (ids.FormatStack): two lines a frame,
	// no argument values.
	PCs   []uintptr
	Stack string
}

// Violation is one dynamic thread-safety violation: a trapped access and the
// conflicting access that ran into the trap, on the same object.
type Violation struct {
	Object ids.ObjectID
	// Trapped is the access that was delayed (the trap owner);
	// Conflicting is the access that arrived during the delay.
	Trapped     Side
	Conflicting Side
	// When records the detection time relative to detector start.
	When time.Duration
	// Async is true when either side ran on a task-pool thread
	// (set by the harness for Table-1 statistics).
	Async bool
}

// PairKey canonically identifies a bug by its unordered location pair.
type PairKey struct {
	A, B ids.OpID // A <= B
}

// KeyOf builds the canonical PairKey for two locations.
func KeyOf(x, y ids.OpID) PairKey {
	if x > y {
		x, y = y, x
	}
	return PairKey{A: x, B: y}
}

// Key returns the violation's bug identity.
func (v *Violation) Key() PairKey { return KeyOf(v.Trapped.Op, v.Conflicting.Op) }

// SameLocation reports whether both sides are the same static location
// (Table 1: "% of same location bugs").
func (v *Violation) SameLocation() bool { return v.Trapped.Op == v.Conflicting.Op }

// ReadWrite reports whether the violation is a read-write conflict (as
// opposed to write-write).
func (v *Violation) ReadWrite() bool { return v.Trapped.Write != v.Conflicting.Write }

// String renders the report the way developers see it: the location pair
// first, then both stacks.
func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "thread-safety violation on %s object #%d\n", v.Trapped.Class, v.Object)
	fmt.Fprintf(&b, "  [trapped]     thread %d: %s.%s (%s) at %s\n",
		v.Trapped.Thread, v.Trapped.Class, v.Trapped.Method, rw(v.Trapped.Write), v.Trapped.Op.Location())
	fmt.Fprintf(&b, "  [conflicting] thread %d: %s.%s (%s) at %s\n",
		v.Conflicting.Thread, v.Conflicting.Class, v.Conflicting.Method, rw(v.Conflicting.Write), v.Conflicting.Op.Location())
	if v.Trapped.Stack != "" {
		fmt.Fprintf(&b, "  trapped stack:\n%s", indent(v.Trapped.Stack))
	}
	if v.Conflicting.Stack != "" {
		fmt.Fprintf(&b, "  conflicting stack:\n%s", indent(v.Conflicting.Stack))
	}
	return b.String()
}

func rw(w bool) string {
	if w {
		return "write"
	}
	return "read"
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "    " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// Bug aggregates every manifestation of one unique location-pair bug.
type Bug struct {
	Key   PairKey
	First Violation
	// Occurrences counts dynamic manifestations.
	Occurrences int
	// StackPairs counts distinct (trapped stack, conflicting stack) pairs.
	StackPairs int

	stackPairSet map[uint64]struct{}
}

// Collector deduplicates violations into bugs. It is safe for concurrent use
// (violations are reported from the middle of racing threads).
type Collector struct {
	mu   sync.Mutex
	bugs map[PairKey]*Bug
	all  []Violation
	// KeepAll retains every raw violation (memory-heavy; used by tests and
	// statistics, not by production runs).
	KeepAll bool
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{bugs: map[PairKey]*Bug{}, KeepAll: true}
}

// Add records one violation.
func (c *Collector) Add(v Violation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := v.Key()
	b := c.bugs[key]
	if b == nil {
		b = &Bug{Key: key, First: v, stackPairSet: map[uint64]struct{}{}}
		c.bugs[key] = b
	}
	b.Occurrences++
	h := stackPairHash(&v.Trapped, &v.Conflicting)
	if _, seen := b.stackPairSet[h]; !seen {
		b.stackPairSet[h] = struct{}{}
		b.StackPairs++
	}
	if c.KeepAll {
		c.all = append(c.all, v)
	}
}

// stackPairHash identifies a (trapped stack, conflicting stack) pair,
// order-insensitively: the same two stacks in either role are one pair.
func stackPairHash(a, b *Side) uint64 {
	x, y := a.stackHash(), b.stackHash()
	if x > y {
		x, y = y, x
	}
	return (x ^ y>>32 ^ y<<32) * 0x9E3779B97F4A7C15
}

// stackHash hashes the call path: the program counters, which are equal
// exactly when the path is. A side that arrived without them (built by hand,
// or decoded from another process's output) is hashed by its text.
func (s *Side) stackHash() uint64 {
	h := fnv.New64a()
	if len(s.PCs) == 0 {
		h.Write([]byte(s.Stack))
		return h.Sum64()
	}
	var w [8]byte
	for _, pc := range s.PCs {
		binary.LittleEndian.PutUint64(w[:], uint64(pc))
		h.Write(w[:])
	}
	return h.Sum64()
}

// Bugs returns the deduplicated bugs sorted by first location for stable
// output.
func (c *Collector) Bugs() []Bug {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Bug, 0, len(c.bugs))
	for _, b := range c.bugs {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.A != out[j].Key.A {
			return out[i].Key.A < out[j].Key.A
		}
		return out[i].Key.B < out[j].Key.B
	})
	return out
}

// Violations returns every recorded raw violation (requires KeepAll).
func (c *Collector) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Violation, len(c.all))
	copy(out, c.all)
	return out
}

// UniqueBugs returns the number of unique location-pair bugs.
func (c *Collector) UniqueBugs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bugs)
}

// UniqueLocations returns the number of distinct static locations involved
// in any bug (Table 1: "# of unique bug locations").
func (c *Collector) UniqueLocations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	locs := map[ids.OpID]struct{}{}
	for key := range c.bugs {
		locs[key.A] = struct{}{}
		locs[key.B] = struct{}{}
	}
	return len(locs)
}

// TotalStackPairs sums distinct stack-trace pairs over all bugs.
func (c *Collector) TotalStackPairs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, b := range c.bugs {
		n += b.StackPairs
	}
	return n
}

// Merge folds other's bugs into c (used to accumulate across runs).
func (c *Collector) Merge(other *Collector) {
	for _, v := range other.Violations() {
		c.Add(v)
	}
}
