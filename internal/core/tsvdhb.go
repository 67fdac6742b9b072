package core

import (
	"time"

	"repro/internal/ids"
	"repro/internal/intmap"
	"repro/internal/report"
	"repro/internal/vclock"
)

// TSVDHB is the RaceFuzzer-style variant (§3.5): it monitors synchronization
// operations (forks, joins, locks) reported by the task substrate, maintains
// vector clocks, and only adds a pair of conflicting accesses to the trap
// set when the clocks prove the accesses concurrent. Delay injection,
// probability decay and trap-file persistence are shared with TSVD.
//
// It carries the paper's three optimizations for async-heavy programs:
//
//  1. local timestamps increment at TSVD points (rare) rather than at
//     synchronization operations (frequent);
//  2. clocks are immutable AVL tree-maps, so a message-send (fork, lock
//     release) copies a clock by reference in O(1);
//  3. join-message receives use a reference-equality fast path before the
//     O(n) element-wise max.
//
// The immutability of the clocks is also what lets the runtime keep them
// outside any global lock: each thread's clock lives in its shared
// threadState slot (traps.go) whose own component is a plain atomic counter
// (optimization 1 taken to its conclusion: a TSVD point ticks the counter
// and allocates nothing at all), while the components learned from other
// threads live in an immutable tree swapped only at synchronization
// operations. Every clock handover is a pointer-sized store and every reader
// works on an immutable snapshot. The per-object epoch rings hang off the
// runtime's object registry, like TSVD's near-miss rings.
type TSVDHB struct {
	detectorBase

	lockVC intmap.Map[vclock.Atomic] // ids.ObjectID → clock slot
}

// threadTree returns t's current full clock (the zero clock if t has none
// yet).
func (d *TSVDHB) threadTree(t ids.ThreadID) vclock.Tree {
	if st := d.rt.threads.Get(int64(t)); st != nil {
		return st.treeFor(int64(t))
	}
	return vclock.Tree{}
}

// lockTree returns the lock's current clock.
func (d *TSVDHB) lockTree(lock ids.ObjectID) vclock.Tree {
	if slot := d.lockVC.Get(int64(lock)); slot != nil {
		return slot.Load()
	}
	return vclock.Tree{}
}

// OnFork implements Detector: the child inherits the parent's clock by
// reference (O(1) message-send with immutable clocks). The child has not run
// yet, so no one races the writes.
func (d *TSVDHB) OnFork(parent, child ids.ThreadID) {
	p := d.threadTree(parent)
	st := d.rt.threadStateFor(child)
	st.memo.Store(nil)
	st.rest.Store(p)
	st.epoch.Store(p.Get(int64(child)))
}

// OnJoin implements Detector: the waiter receives the finished task's clock.
// When the task passed through no TSVD point since fork, both clocks are the
// identical tree and the max is skipped entirely (inside adopt).
func (d *TSVDHB) OnJoin(waiter, done ids.ThreadID) {
	d.rt.threadStateFor(waiter).adopt(int64(waiter), d.threadTree(done))
}

// OnLockAcquire implements Detector: the thread receives the lock's clock.
func (d *TSVDHB) OnLockAcquire(t ids.ThreadID, lock ids.ObjectID) {
	d.rt.threadStateFor(t).adopt(int64(t), d.lockTree(lock))
}

// OnLockRelease implements Detector: the lock stores the thread's clock by
// reference.
func (d *TSVDHB) OnLockRelease(t ids.ThreadID, lock ids.ObjectID) {
	slot, _ := d.lockVC.GetOrInit(int64(lock), nil)
	slot.Store(d.threadTree(t))
}

// OnCall implements Detector.
func (d *TSVDHB) OnCall(a Access) {
	rt := &d.rt
	st, fastOK := rt.threads.GetFast(int64(a.Thread))
	if !fastOK {
		st = rt.threadStateFor(a.Thread)
	}
	rt.resolveSite(&a)
	// Admission and check_for_trap (admit.go). Skipping the epoch tick for a
	// sampled-out call is sound: history entries are only recorded for
	// admitted calls, so HB comparisons stay conservative.
	if (rt.samp != nil || rt.parked.Load() > 0) && !rt.enter(st, &a) {
		return
	}
	st.onCalls.Add(1)
	os := rt.objStateFast(st, a.Obj)
	if os == nil {
		os = rt.objStateFor(st, a.Obj)
	}

	// Local timestamp increments happen here, at the (relatively rare)
	// TSVD points — not at synchronization operations. The tick is one
	// atomic add on the thread's own epoch counter; no clock tree is
	// built, so the hot path performs no allocation.
	epoch := st.tick()
	known := st.known()
	rt.markSeen(a.Site, a.Op, true)

	// Precise concurrency check against the object's recent accesses,
	// under the object's own lock; skipped while the object is
	// single-writer (every entry would fail the different-thread test).
	var near []nearPair
	os.mu.Lock()
	h := os.hist
	if h == nil {
		h = newHistory(rt.cfg.ObjHistory)
		os.hist = h
	}
	scan := os.noteWriterLocked(a.Thread)
	if scan {
		for i, n := 0, h.len(); i < n; i++ {
			e := h.newest(i)
			if e.thread == a.Thread || !Conflicts(e.kind, a.Kind) {
				continue
			}
			// The entry's thread differs from ours, so its component in our
			// clock lives entirely in the learned tree — no need to
			// materialize the full clock.
			if known.Get(int64(e.thread)) >= uint64(e.at) {
				// The previous access happens-before this one: not a
				// dangerous pair. The clock is read for the event only when
				// tracing is on and a prune actually fires — the
				// conflict-free fast path never reads the clock at all.
				rt.prunedHB(&a, report.KeyOf(e.op, a.Op), noCall)
				continue
			}
			// No gap notion (clocks, not time windows): the gap is 0.
			rt.nearMiss(&a, e.op, noCall, 0)
			near = append(near, nearPair{report.KeyOf(e.op, a.Op), e.op}) // e was recorded first
		}
	}
	h.add(histEntry{thread: a.Thread, op: a.Op, kind: a.Kind, at: time.Duration(epoch)})
	os.mu.Unlock()
	for _, p := range near {
		rt.addPair(a.Thread, a.Obj, p, noCall)
	}

	if rt.samp != nil {
		rt.leave(st)
	}

	// Injection and decay are identical to TSVD (§3.5 "When to inject").
	if rt.set.empty() {
		return
	}
	rt.delayAtPair(st, &a, noCall, len(near) > 0)
}
