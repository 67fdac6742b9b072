package core

import (
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/fasttime"
	"repro/internal/ids"
	"repro/internal/report"
	"repro/internal/trace"
)

// TSVD is the paper's detector (§3.4). It identifies dangerous pairs by
// near-miss tracking, restricts them to concurrent phases, prunes them with
// happens-before *inference* driven by its own delay injections, decays
// unproductive delay locations, and performs planning and injection in the
// same run.
//
// State ownership (docs/PERFORMANCE.md has the full model):
//
//   - per-object state (near-miss rings, parked traps) lives in the
//     runtime's lock-free object registry, one entry and one spin lock per
//     ObjectID;
//   - per-thread state — HB inference, the sampling RNG, the hot counters —
//     is thread-local (each runtime.threads entry is only ever touched by
//     its own goroutine, except the atomic counters snapshots read);
//   - per-site state (coverage, sampler admission) is indexed by dense
//     SiteIDs in plain arrays;
//   - the trap set and the finished-delay log keep small cold-path locks.
type TSVD struct {
	nopSyncHooks // TSVD is oblivious to synchronization by design
	detectorBase

	phase *phaseRing
	set   trapSet

	// delayMu guards recentDelays, the finished-delay log for gap
	// attribution (§3.4.4) — the only cross-thread HB-inference state. It
	// is taken when a delay finishes and when an inter-access gap passes
	// the δ_hb threshold, both rare events off the fast path.
	delayMu      sync.Mutex
	recentDelays []delayRecord
}

// histEntry is one recorded access to an object.
type histEntry struct {
	thread ids.ThreadID
	op     ids.OpID
	kind   Kind
	// at is when, on the recording variant's own scale: TSVD's timestamp, or
	// under TSVDHB the entry thread's own clock component at the access
	// (post-tick) — the access happened-before a later access on thread u iff
	// u's clock at entry.thread has reached it.
	at time.Duration
}

// history is a fixed-capacity ring of the most recent accesses to one object
// (§3.4.2 keeps "a global hash table" of these — ours hangs one off each
// object's state). Only touched under the object's lock.
type history struct {
	entries []histEntry
	next    int
	full    bool
}

func newHistory(capacity int) *history {
	return &history{entries: make([]histEntry, capacity)}
}

func (h *history) add(e histEntry) {
	h.entries[h.next] = e
	h.next++
	if h.next == len(h.entries) {
		h.next = 0
		h.full = true
	}
}

// len is the number of entries the ring holds.
func (h *history) len() int {
	if h.full {
		return len(h.entries)
	}
	return h.next
}

// newest returns the i-th newest entry, 0 ≤ i < len(): the scans walk the
// ring in this order so that the most recent conflicting access — the
// smallest gap, the likeliest real interleaving — is seen first.
func (h *history) newest(i int) *histEntry {
	idx := h.next - 1 - i
	if idx < 0 {
		idx += len(h.entries)
	}
	return &h.entries[idx]
}

// merge adds the newest entries of up to readStripes rings to h, oldest
// timestamp first, so that h ends up with the newest accesses exactly as if it
// had recorded them all. Nothing older than h's capacity survives in h, so no
// more than that is read from any ring.
func (h *history) merge(rings ...history) {
	var taken [readStripes]int
	for i := range rings {
		taken[i] = max(0, rings[i].len()-len(h.entries))
	}
	for {
		var oldest *histEntry
		from := 0
		for i := range rings {
			if r := &rings[i]; taken[i] < r.len() {
				if e := r.newest(r.len() - 1 - taken[i]); oldest == nil || e.at < oldest.at {
					oldest, from = e, i
				}
			}
		}
		if oldest == nil {
			return
		}
		h.add(*oldest)
		taken[from]++
	}
}

type inheritance struct {
	from      ids.OpID
	remaining int
}

type delayRecord struct {
	thread     ids.ThreadID
	op         ids.OpID
	start, end time.Duration
}

// maxRecentDelays bounds the delay log scanned by HB inference. Delays
// older than every thread's previous access can never satisfy the overlap
// condition, so a short suffix is sufficient.
const maxRecentDelays = 256

func newTSVD(cfg config.Config, o options) *TSVD {
	d := &TSVD{}
	d.rt.init(cfg, o)
	if !cfg.DisablePhaseDetection {
		d.phase = newPhaseRing(cfg.PhaseBufferSize)
	}
	for _, key := range o.initialTraps {
		if d.set.add(key, &d.rt.stats, d.rt.met) {
			d.rt.tr.Emit(trace.KindPairAdded, 0, 0, key.A, key.B, 0, 0)
		}
	}
	return d
}

// OnCall implements Detector; it is the OnCall of Figure 5 with TSVD's
// should_delay (§3.4.1–§3.4.6). While the object has only ever been touched
// by the calling thread — the overwhelmingly common case in the paper's
// workloads — the path is lock-free end to end: the timestamp is one TSC
// read, per-thread and per-object state are cached probes, the near-miss
// scan is skipped outright (every entry would fail the different-thread
// test), and recording the access is plain stores plus one publication CAS
// that doubles as the OnCalls counter. Contended objects funnel through
// recordSlow under the object's spin lock.
func (d *TSVD) OnCall(a Access) {
	rt := &d.rt
	// rt.now(), thread-state lookup and markSeen below are expanded inline:
	// each is a leaf the inliner rejects only because of its cold branch,
	// and on a path this hot the call overhead alone is measurable.
	st, fastOK := rt.threads.GetFast(int64(a.Thread))
	if !fastOK {
		st = rt.threadStateFor(a.Thread)
	}
	rt.resolveSite(&a)

	// The front half that can end a call early lives in enter (admit.go): in
	// sampled mode the admission verdict, and in any mode check_for_trap
	// while something is parked — a sampled-out call still springs any trap
	// it conflicts with, so red-handed catching keeps its soundness
	// regardless of the admission probability. A pair with a reported
	// violation leaves the trap set for good. In full mode with nothing
	// parked (the common case) this is one nil check and one atomic load.
	if (rt.samp != nil || rt.parked.Load() > 0) && !rt.enter(st, &a, &d.set) {
		return
	}
	// No OnCalls counter here: the admitted path is counted by the ring
	// publication below, or by recordSlow (snapshotStats sums both).

	// Concurrent-phase inference and coverage marking (markSeen's fully-marked
	// fast case, expanded inline). The standing sequential verdict is expanded
	// too: the phase word equal to this thread's confirmed claim is one load
	// and one compare. Everything else — an open word, where the thread only
	// counts its own calls, and the rare claim, break and warm-up — is observe,
	// which stores to the shared word only on those rare transitions.
	concurrent := true
	if p := d.phase; p != nil {
		if p.state.Load() == st.phase.seq {
			concurrent = false
		} else {
			concurrent = p.observe(&st.phase, a.Thread)
		}
	}
	cwant := uint32(coverSeen)
	if concurrent {
		cwant |= coverConcurrent
	}
	if ct := rt.cover.Load(); ct == nil || int(a.Site) >= len(*ct) || (*ct)[a.Site].Load()&cwant != cwant {
		rt.markSeenSlow(a.Site, a.Op, cwant)
	}

	// The timestamp is read here, after every piece of work that does not
	// need it: on this VM the TSC read quasi-serializes the pipeline, so
	// instructions placed after it pay its full latency while instructions
	// before it run free. The few-ns shift in what "arrival time" means is
	// uniform across calls and cancels out of every inter-access gap.
	var t time.Duration
	if rt.fastClock {
		t = fasttime.SinceTicks(rt.startTicks)
	} else {
		t = rt.nowSlow()
	}

	// Happens-before inference on this thread's inter-access gap, plus
	// consumption of any pending k_hb inheritance windows. Must run before
	// lastAccess is overwritten below. The guard is inlined so the
	// steady-state call — window empty, gap under δ_hb — costs two compares
	// and no function call.
	if !rt.cfg.DisableHBInference {
		if len(st.inherits) != 0 || t >= st.hbDeadline {
			d.inferHB(st, a, t)
		}
	}

	// Near-miss tracking over the object's recent accesses, newest first,
	// and recording of this access. While this thread owns the object's
	// publication ring — its writer word says so, on every object the thread
	// owns and not only the last one it touched — recording is plain entry
	// stores plus one CAS. Everything else (first sighting, the takeover by a
	// second thread, shared-mode scans) funnels through recordSlow under the
	// object's lock. Pair insertion happens outside any object lock: the trap
	// set has its own lock and nothing orders the two.
	os := st.cachedState
	if os == nil || st.cachedObj != a.Obj {
		os = rt.objStateFor(st, a.Obj)
	}
	published := false
	// writer only ever leaves a thread id for writerShared, so a match means
	// the ring is this thread's: its next slot is this thread's to write, and
	// the CAS fails only if a takeover closed the ring meanwhile — after which
	// next is never read again.
	if os.writer.Load() == int64(a.Thread) {
		rg := &os.ring
		if n := rg.pub.Load(); n&ringClosed == 0 {
			i := rg.next
			rg.entries[i] = histEntry{thread: a.Thread, op: a.Op, kind: a.Kind, at: t}
			if i++; i == len(rg.entries) {
				i = 0
			}
			rg.next = i
			published = rg.pub.CompareAndSwap(n, n+1)
		}
	}
	if !published {
		for _, key := range d.recordSlow(st, os, a, t, concurrent) {
			if d.set.add(key, &rt.stats, rt.met) {
				rt.tr.Emit(trace.KindPairAdded, a.Thread, a.Obj, key.A, key.B, t, 0)
			}
		}
	}

	// Record this access in the thread-local HB state.
	st.lastAccess = t
	st.ownDelay = 0
	st.hbDeadline = t + rt.hbThreshold

	if rt.samp != nil {
		rt.leave(st)
	}

	// should_delay: the location must participate in a live dangerous
	// pair, and its decayed probability must pass a coin flip. An empty
	// trap set short-circuits everything with one atomic load.
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
	rt.tr.Emit(trace.KindDelayPlanned, a.Thread, a.Obj, a.Op, 0, t, rt.delayTime)
	slept, injected, sprung := rt.injectDelay(st, a, rt.delayTime) // sleeps unlocked
	if !injected {
		return
	}
	end := rt.now()
	d.delayMu.Lock()
	d.recentDelays = append(d.recentDelays, delayRecord{
		thread: a.Thread, op: a.Op, start: t, end: end,
	})
	if len(d.recentDelays) > maxRecentDelays {
		d.recentDelays = d.recentDelays[len(d.recentDelays)-maxRecentDelays:]
	}
	d.delayMu.Unlock()
	st.ownDelay += slept
	st.hbDeadline += slept
	if !sprung {
		d.set.decayAfterFailedDelay(a.Op, rt.cfg.DecayFactor,
			rt.cfg.PruneProbability, &rt.stats, rt.tr, end)
	}
}

// recordSlow is everything the lock-free publication path cannot do, under
// the object's spin lock: claiming an untouched object for single-writer
// mode, taking over a single-writer object for shared mode (the sticky mixed
// transition) and demoting a read-shared one — both through share — the
// shared-mode near-miss scan plus append, and the promotion to read-shared
// after promoteAfter reads in a row. A first touch is counted by the ring it
// publishes to, every other call that lands here on the thread's own
// onCalls; a read of a read-shared object needs none of it and leaves at
// once, through recordRead, which counts its own. It returns the near-miss
// pair keys found, in the thread's own scratch slice (valid until its next
// call); the caller inserts them into the trap set outside the lock.
func (d *TSVD) recordSlow(st *threadState, os *objState, a Access, t time.Duration, concurrent bool) []report.PairKey {
	rt := &d.rt
	nearKeys := st.nearKeys[:0]
	rec := histEntry{thread: a.Thread, op: a.Op, kind: a.Kind, at: t}
	if os.recordRead(st, rec) {
		return nil
	}
	os.mu.Lock()
	switch w := os.writer.Load(); {
	case w == 0:
		// First access to this object: claim single-writer mode, on a ring
		// of its own if ObjHistory is too long for the inline one.
		rg := &os.ring
		if size := ownerRingSize(rt.cfg.ObjHistory); size > len(rg.entries) {
			rg.entries = make([]histEntry, size)
		}
		rg.entries[0] = rec
		rg.next = 1
		rg.pub.Store(1)
		os.writer.Store(int64(a.Thread))
	case w == writerReadShared && a.Kind == KindRead:
		// Promoted while this read waited for the lock.
		os.recordRead(st, rec)
	default:
		// Shared mode. An owner only gets here once its ring is closed, so
		// any other writer means a takeover or a demotion.
		if w != writerShared {
			os.share(w, rt.cfg.ObjHistory)
		}
		h := os.hist
		for i, n := 0, h.len(); i < n; i++ {
			e := h.newest(i)
			if e.thread == a.Thread || !Conflicts(e.kind, a.Kind) {
				continue
			}
			// t was read before this lock was taken, so an entry recorded by
			// a thread that read its clock later but locked first has
			// e.at > t: the distance between the two accesses is |t - e.at|.
			gap := t - e.at
			if gap < 0 {
				gap = -gap
			}
			if !rt.cfg.DisableNearMissWindow && gap > rt.nearMissWindow {
				continue
			}
			if !concurrent {
				rt.stats.sequentialSkips.Add(1)
				continue
			}
			rt.stats.nearMisses.Add(1)
			rt.stats.observeGap(gap)
			rt.met.observeGap(gap)
			rt.tr.Emit(trace.KindNearMiss, a.Thread, a.Obj, e.op, a.Op, t, gap)
			nearKeys = append(nearKeys, report.KeyOf(e.op, a.Op))
		}
		h.add(rec)
		st.onCalls.Add(1)
		if a.Kind != KindRead {
			os.readRun = 0
		} else if os.readRun++; int(os.readRun) >= promoteAfter(rt.cfg.ObjHistory) {
			// The ring holds nothing but reads: go read-shared.
			os.readRun = 0
			if os.reads == nil {
				os.reads = newReadSet(rt.cfg.ObjHistory)
			}
			os.writer.Store(writerReadShared)
		}
	}
	os.mu.Unlock()
	st.nearKeys = nearKeys
	return nearKeys
}

// inferHB implements §3.4.4. st is a.Thread's own state, so everything here
// is thread-local; only the finished-delay log needs a lock, and only once
// the gap threshold is met.
func (d *TSVD) inferHB(st *threadState, a Access, t time.Duration) {

	// Consume pending inheritance windows: this access likely
	// happens-after each recorded delay location.
	if len(st.inherits) > 0 {
		kept := st.inherits[:0]
		for _, inh := range st.inherits {
			d.pruneHB(inh.from, a, t)
			if inh.remaining--; inh.remaining > 0 {
				kept = append(kept, inh)
			}
		}
		st.inherits = kept
	}

	// A noAccessYet sentinel in lastAccess makes this hugely negative, so
	// threads reject inference until their first recorded access.
	gap := t - st.lastAccess - st.ownDelay
	if gap < d.rt.hbThreshold {
		return
	}
	// Attribute the gap to the most recently finished delay of another
	// thread that overlaps it (t0 ≤ t1end).
	d.delayMu.Lock()
	best := -1
	for i := len(d.recentDelays) - 1; i >= 0; i-- {
		dr := d.recentDelays[i]
		if dr.thread == a.Thread || dr.end < st.lastAccess || dr.end > t {
			continue
		}
		if best == -1 || dr.end > d.recentDelays[best].end {
			best = i
		}
	}
	var from ids.OpID
	if best != -1 {
		from = d.recentDelays[best].op
	}
	d.delayMu.Unlock()
	if best == -1 {
		return
	}
	d.pruneHB(from, a, t)
	if k := d.rt.cfg.HBInferenceWindow; k > 0 {
		st.inherits = append(st.inherits, inheritance{from: from, remaining: k})
	}
}

// pruneHB records the inferred edge from → a.Op and marks the pair as
// happens-before ordered: it leaves the trap set and can never re-enter it.
func (d *TSVD) pruneHB(from ids.OpID, a Access, t time.Duration) {
	d.rt.tr.Emit(trace.KindHBEdge, a.Thread, a.Obj, from, a.Op, t, 0)
	key := report.KeyOf(from, a.Op)
	if key.A == key.B {
		// A location trivially happens-before itself on one thread; the
		// same location racing with itself across threads is exactly the
		// "same operation" bug class (34% in Table 1), so never suppress.
		return
	}
	if d.set.suppress(key) {
		d.rt.stats.pairsPrunedHB.Add(1)
		d.rt.tr.Emit(trace.KindPairPrunedHB, a.Thread, a.Obj, key.A, key.B, t, 0)
	}
}

// ExportTraps implements Detector: the trap file contents (§3.4.6).
func (d *TSVD) ExportTraps() []report.PairKey { return d.set.export() }

// TrapSetSize reports the number of live dangerous pairs (for tests and the
// coverage statistics).
func (d *TSVD) TrapSetSize() int { return d.set.size() }
