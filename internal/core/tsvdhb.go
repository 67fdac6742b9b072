package core

import (
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/intmap"
	"repro/internal/report"
	"repro/internal/trace"
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
	set trapSet

	lockVC intmap.Map[vclock.Atomic] // ids.ObjectID → clock slot
}

func newTSVDHB(cfg config.Config, o options) *TSVDHB {
	d := &TSVDHB{}
	d.rt.init(cfg, o)
	for _, key := range o.initialTraps {
		if d.set.add(key, &d.rt.stats, d.rt.met) {
			d.rt.tr.Emit(trace.KindPairAdded, 0, 0, key.A, key.B, 0, 0)
		}
	}
	return d
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
	if (rt.samp != nil || rt.parked.Load() > 0) && !rt.enter(st, &a, &d.set) {
		return
	}
	st.onCalls.Add(1)
	os := rt.objStateFor(st, a.Obj)

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
	var nearKeys []report.PairKey
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
				// dangerous pair. The clock read for the event is taken only
				// when tracing is on and a prune actually fires — the
				// conflict-free fast path never reads the clock at all.
				rt.stats.pairsPrunedHB.Add(1)
				if rt.tr != nil {
					key := report.KeyOf(e.op, a.Op)
					rt.tr.Emit(trace.KindPairPrunedHB, a.Thread, a.Obj, key.A, key.B, rt.now(), 0)
				}
				continue
			}
			rt.stats.nearMisses.Add(1)
			rt.met.observeGap(0) // no gap notion: clocks, not time windows
			if rt.tr != nil {
				// TSVDHB has no gap notion (concurrency is proven by clocks,
				// not time windows); the near-miss event carries Dur 0.
				rt.tr.Emit(trace.KindNearMiss, a.Thread, a.Obj, e.op, a.Op, rt.now(), 0)
			}
			nearKeys = append(nearKeys, report.KeyOf(e.op, a.Op))
		}
	}
	h.add(histEntry{thread: a.Thread, op: a.Op, kind: a.Kind, at: time.Duration(epoch)})
	os.mu.Unlock()
	for _, key := range nearKeys {
		if d.set.add(key, &rt.stats, rt.met) && rt.tr != nil {
			rt.tr.Emit(trace.KindPairAdded, a.Thread, a.Obj, key.A, key.B, rt.now(), 0)
		}
	}

	if rt.samp != nil {
		rt.leave(st)
	}

	// Injection and decay are identical to TSVD (§3.5 "When to inject").
	if d.set.empty() {
		return
	}
	prob, ok := d.set.eligible(a.Op)
	if !ok || rt.randFloat() >= prob {
		return
	}
	if rt.cfg.AvoidOverlappingDelays && rt.anyTrapSet() {
		return
	}
	if rt.tr != nil {
		rt.tr.Emit(trace.KindDelayPlanned, a.Thread, a.Obj, a.Op, 0, rt.now(), rt.delayTime)
	}
	// sleeps unlocked
	if _, injected, sprung := rt.injectDelay(st, a, rt.delayTime); injected && !sprung {
		d.set.decayAfterFailedDelay(a.Op, rt.cfg.DecayFactor,
			rt.cfg.PruneProbability, &rt.stats, rt.tr, rt.now())
	}
}

// ExportTraps implements Detector.
func (d *TSVDHB) ExportTraps() []report.PairKey { return d.set.export() }

// TrapSetSize reports the number of live dangerous pairs.
func (d *TSVDHB) TrapSetSize() int { return d.set.size() }
