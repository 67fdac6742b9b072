// Package intmap provides the insert-only concurrent map the detector hot
// path keys by integer ids: thread ids to per-thread state, object ids to
// per-object state, op ids to coverage records. sync.Map would serve, but its
// interface{} keys force a typehash call and an equality check through
// reflection metadata on every lookup; at OnCall frequencies those dominate
// the probe itself (see docs/PERFORMANCE.md). The container instead uses open
// addressing over int64 keys with lock-free reads:
//
//   - lookups are a Fibonacci hash plus a short linear probe over atomic
//     slots — no locks, no interface boxing, no allocation;
//   - inserts are rare (first sighting of a location / thread / object) and
//     serialize on one mutex, which also guards growth;
//   - deletion does not exist, which is what makes the lock-free read sound:
//     a published slot never changes its key again.
//
// Values live in chunks the map owns. An insert carves its value out of the
// newest []V chunk, zeroed, and lets the caller initialize it in place; a
// chunk holds max(8, entries so far) values, so n inserts cost O(log n)
// allocations rather than one each. Values never move and are never freed,
// so a *V stays valid until the map is Reset, which empties the map but keeps
// its table and chunks for the next entries. A V that different threads
// write should be padded, at its end, to a multiple of 64 bytes: neighbours
// in a chunk would share cache lines otherwise. (A chunk need not start on a
// line — the allocator puts an 8-byte type header in front of one of up to
// 32 KiB that holds pointers — so it is the trailing padding that ends up in
// the line two neighbours share.)
//
// Each slot holds its key and value side by side, so a hit costs one hash,
// one slot load and one dependent value load from the same cache line —
// split key/value arrays would add another slice-header chase to the
// dependent chain, which is measurable at OnCall frequencies.
//
// Growth copies into a larger table and atomically swaps the table pointer.
// A reader racing the swap scans the old table, which stays internally
// consistent forever; it can only miss a concurrent insert, which the
// callers' get-then-lock pattern already handles.
package intmap

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// slotEmpty marks an unused slot. MinInt64 is unreachable for real ids
// (ids are small positive counters).
const slotEmpty = math.MinInt64

// fibScramble spreads sequential ids across the table.
const fibScramble = 0x9E3779B97F4A7C15

// Map is an insert-only hash map from int64 keys to *V with lock-free
// lookups. Values are created once and never replaced, so callers may cache
// and mutate them according to their own synchronization discipline.
type Map[V any] struct {
	table atomic.Pointer[table[V]]
	mu    sync.Mutex
	count int
	// chunks are the value chunks allocated so far, oldest first; the first
	// used of them hand out values, and free is the unused tail of the newest
	// of those. Guarded by mu. From the second on, every chunk is as large as
	// all before it together, so maxChunks of them hold 2³³ values.
	chunks [maxChunks][]V
	used   int
	free   []V
}

const maxChunks = 32

type slot[V any] struct {
	key atomic.Int64
	val atomic.Pointer[V]
}

type table[V any] struct {
	mask  uint64
	slots []slot[V]
	// base points at slots[0]; GetFast indexes through it directly, which
	// spares the dependent load of the slice length that the bounds check
	// on slots[i] would otherwise issue. The masked index is always in
	// range (mask == len(slots)-1 by construction), and the table keeps the
	// backing array alive through the slots field.
	base unsafe.Pointer
}

func newTable[V any](size int) *table[V] {
	t := &table[V]{
		mask:  uint64(size - 1),
		slots: make([]slot[V], size),
	}
	for i := range t.slots {
		t.slots[i].key.Store(slotEmpty)
	}
	t.base = unsafe.Pointer(&t.slots[0])
	return t
}

func (t *table[V]) probe(k int64) uint64 {
	return (uint64(k) * fibScramble) & t.mask
}

// GetFast returns k's value if it sits in its home slot — the overwhelming
// case at the load factors the map maintains — and ok reports whether the
// probe was conclusive: ok == false means "consult Get", not "absent".
// Unlike Get, whose probe loop exceeds the inliner budget, this single-slot
// version inlines into the detector's hot path, where the call overhead of
// an out-of-line Get is measurable. It stays small enough to inline inside
// a caller that puts a cache check in front of it (core's objStateFast, cost
// 80 of the inliner's 80): the table pointer and the value are loaded as the
// unsafe.Pointer an atomic.Pointer holds at offset 0 — the atomic loads its
// generic Load methods make, without their dictionary arguments — and the
// body is two nested ifs, which the inliner counts cheaper than temporaries.
func (m *Map[V]) GetFast(k int64) (v *V, ok bool) {
	if t := (*table[V])(atomic.LoadPointer((*unsafe.Pointer)(unsafe.Pointer(&m.table)))); t != nil {
		if s := (*slot[V])(unsafe.Add(t.base, uintptr((uint64(k)*fibScramble)&t.mask)*unsafe.Sizeof(slot[V]{}))); s.key.Load() == k {
			return (*V)(atomic.LoadPointer((*unsafe.Pointer)(unsafe.Pointer(&s.val)))), true
		}
	}
	return nil, false
}

// Get returns the value stored for k, or nil. Lock-free.
func (m *Map[V]) Get(k int64) *V {
	t := m.table.Load()
	if t == nil {
		return nil
	}
	for i := t.probe(k); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.key.Load() {
		case k:
			return s.val.Load()
		case slotEmpty:
			return nil
		}
	}
}

// GetOrInit returns k's value and reports whether this call inserted it. A
// new value is zeroed, then init (if not nil) fills it in under the insert
// lock, before any reader can see it; init must not use the map. Concurrent
// callers for one key agree on a single value, and exactly one of them
// receives created == true.
func (m *Map[V]) GetOrInit(k int64, init func(*V)) (v *V, created bool) {
	if v := m.Get(k); v != nil {
		return v, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.table.Load()
	if t == nil {
		t = newTable[V](64)
		m.table.Store(t)
	}
	i := t.probe(k)
	for {
		kk := t.slots[i].key.Load()
		if kk == k {
			return t.slots[i].val.Load(), false
		}
		if kk == slotEmpty {
			break
		}
		i = (i + 1) & t.mask
	}
	if len(m.free) == 0 {
		if m.chunks[m.used] == nil {
			m.chunks[m.used] = make([]V, max(8, m.count))
		}
		m.free = m.chunks[m.used]
		m.used++
	}
	v, m.free = &m.free[0], m.free[1:]
	if init != nil {
		init(v)
	}
	// Publish the value before the key: a lock-free reader that sees the
	// key must see the value.
	t.slots[i].val.Store(v)
	t.slots[i].key.Store(k)
	m.count++
	if uint64(m.count)*4 > (t.mask+1)*3 {
		bigger := newTable[V](int(t.mask+1) * 2)
		for j := range t.slots {
			if kk := t.slots[j].key.Load(); kk != slotEmpty {
				p := bigger.probe(kk)
				for bigger.slots[p].key.Load() != slotEmpty {
					p = (p + 1) & bigger.mask
				}
				bigger.slots[p].val.Store(t.slots[j].val.Load())
				bigger.slots[p].key.Store(kk)
			}
		}
		m.table.Store(bigger)
	}
	return v, true
}

// Each visits every entry present in the map. It is lock-free and safe
// against concurrent inserts: it walks one consistent table snapshot and may
// miss entries inserted after it starts, but entries inserted before the
// call (in the happens-before sense) are always visited exactly once. The
// detector uses it to sum per-thread counters at snapshot time, where all
// writers have either quiesced or the caller tolerates a live tail.
func (m *Map[V]) Each(fn func(k int64, v *V)) {
	t := m.table.Load()
	if t == nil {
		return
	}
	for i := range t.slots {
		if k := t.slots[i].key.Load(); k != slotEmpty {
			if v := t.slots[i].val.Load(); v != nil {
				fn(k, v)
			}
		}
	}
}

// Len reports the number of entries inserted so far. It takes the insert
// lock, so it is exact but not for hot paths.
func (m *Map[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count
}

// Reset empties m and keeps what it allocated: its table, every slot cleared,
// and its value chunks, zeroed, which later inserts use up oldest first before
// a new chunk is allocated. A value inserted before the reset must not be used
// after it, and Reset must not run concurrently with any other method.
func (m *Map[V]) Reset() {
	if t := m.table.Load(); t != nil {
		for i := range t.slots {
			t.slots[i].key.Store(slotEmpty)
			t.slots[i].val.Store(nil)
		}
	}
	for _, c := range m.chunks[:m.used] {
		clear(c)
	}
	m.count, m.used, m.free = 0, 0, nil
}

// Storage is what a Map allocated, its table and value chunks, held apart
// from any Map. The zero Storage holds nothing.
type Storage[V any] struct {
	t      *table[V]
	chunks [maxChunks][]V
}

// Release empties m, as Reset does, and hands its storage over, leaving m
// the zero Map. m must not be in use.
func (m *Map[V]) Release() Storage[V] {
	m.Reset()
	s := Storage[V]{t: m.table.Swap(nil), chunks: m.chunks}
	m.chunks = [maxChunks][]V{}
	return s
}

// Reuse gives m, which must be the zero Map, the storage s that Release
// handed over: m holds nothing, and allocates nothing until it holds more
// than s's last Map did.
func (m *Map[V]) Reuse(s Storage[V]) {
	if s.t != nil {
		m.table.Store(s.t)
	}
	m.chunks = s.chunks
}
