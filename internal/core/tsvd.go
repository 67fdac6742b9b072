package core

import (
	"math"
	"sync"
	"time"

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
//   - the trap set (the runtime's) and the finished-delay log keep small
//     cold-path locks.
type TSVD struct {
	nopSyncHooks // TSVD is oblivious to synchronization by design
	detectorBase

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

// tail is the newest n entries of a ring whose next slot is ring.next: what a
// merge reads of it. n may exceed what the ring holds; a merge reads no more
// than its own capacity.
type tail struct {
	ring history
	n    int
}

// merge adds the entries of up to readStripes+1 tails to h, oldest timestamp
// first, so that h ends up with the newest accesses exactly as if it had
// recorded them all. Nothing older than h's capacity survives in h, so no
// more than that is read from any tail.
func (h *history) merge(from ...tail) {
	var taken [readStripes + 1]int
	for i := range from {
		taken[i] = max(0, from[i].n-len(h.entries))
	}
	for {
		var oldest *histEntry
		k := 0
		for i := range from {
			if f := &from[i]; taken[i] < f.n {
				if e := f.ring.newest(f.n - 1 - taken[i]); oldest == nil || e.at < oldest.at {
					oldest, k = e, i
				}
			}
		}
		if oldest == nil {
			return
		}
		h.add(*oldest)
		taken[k]++
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

// OnCall implements Detector; it is the OnCall of Figure 5 with TSVD's
// should_delay (§3.4.1–§3.4.6). While the object has only ever been touched
// by the calling thread — the overwhelmingly common case in the paper's
// workloads — the path is lock-free end to end: the timestamp is one TSC
// read, per-thread and per-object state are inlined probes, the near-miss
// scan is skipped outright (every entry would fail the different-thread
// test), and recording the access is plain stores plus one publication CAS
// that doubles as the OnCalls counter — the one locked instruction the call
// issues. Contended objects funnel through recordSlow under the object's spin
// lock.
func (d *TSVD) OnCall(a Access) {
	rt := &d.rt
	// rt.now(), thread-state lookup and markSeen below are expanded inline:
	// each is a leaf the inliner rejects only because of its cold branch,
	// and on a path this hot the call overhead alone is measurable.
	st, fastOK := rt.threads.GetFast(int64(a.Thread))
	if !fastOK {
		st = rt.threadStateFor(a.Thread)
	}

	// The front half that can end a call early lives in enter (admit.go): in
	// sampled mode the admission verdict, and in any mode check_for_trap
	// while something is parked — a sampled-out call still springs any trap
	// it conflicts with, so red-handed catching keeps its soundness
	// regardless of the admission probability. A pair with a reported
	// violation leaves the trap set for good. In full mode with nothing
	// parked (the common case) this is one nil check and one atomic load.
	if (rt.samp != nil || rt.parked.Load() > 0) && !rt.enter(st, &a) {
		return
	}
	// No OnCalls counter here: the admitted path is counted by the ring
	// publication below, or by recordSlow (snapshotStats sums both).

	// Coverage marking (markSeen's fully-marked fast case, expanded inline).
	// A site not yet seen in a concurrent phase goes to cover only when it
	// is new, or when there is another thread and this one may ask for a
	// phase verdict again.
	if ct := rt.cover.Load(); ct == nil || int(a.Site) >= len(*ct) {
		d.cover(st, &a)
	} else if c := (*ct)[a.Site].Load(); c != coverSeen|coverConcurrent &&
		(c == 0 || rt.threadsSeen.Load() > 1 && st.callN >= st.coverAsk) {
		d.cover(st, &a)
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
	// and recording of this access. While this thread owns a publication
	// ring the access may record into — the object's, its writer word naming
	// this thread (on every object the thread owns, not only the last one it
	// touched), or, for a read of a read-shared object, the stripe this
	// thread claimed — recording is plain entry stores plus one CAS.
	// Everything else (first sighting, the takeover by a second thread, a
	// demotion, shared-mode scans, a read through an unclaimed or another
	// thread's stripe) funnels through recordSlow under the object's lock.
	// Pair insertion happens outside any object lock: the trap set has its
	// own lock and nothing orders the two. The object's state is found
	// inline (the thread's cache, then the registry's home slot) on all but
	// a first sighting or a key away from home.
	os := rt.objStateFast(st, a.Obj)
	if os == nil {
		os = rt.objStateFor(st, a.Obj)
	}
	published, found := false, false
	if rg, n := os.openRing(a.Thread, a.Kind); rg != nil {
		published = rg.publish(n, histEntry{thread: a.Thread, op: a.Op, kind: a.Kind, at: t})
	}
	if !published {
		near := d.recordSlow(st, os, a, t)
		for _, p := range near {
			rt.addPair(a.Thread, a.Obj, p, t)
		}
		found = len(near) > 0
	}

	// Record this access in the thread-local HB state, and its time for the
	// phase verdicts (concurrent) once there is another thread to ask. latest
	// is published with a release store, not a locked instruction: only a
	// verdict's scan reads it, and a store it does not see yet is the one
	// relaxation §3.4.3's verdict already allows.
	st.lastAccess = t
	st.ownDelay = 0
	st.hbDeadline = t + rt.hbThreshold
	if calls := st.calls; len(calls) != 0 && rt.threadsSeen.Load() > 1 {
		calls[st.callN&uint64(len(calls)-1)] = t
		st.callN++
		storeRelease(&st.latest, int64(t))
	}

	if rt.samp != nil {
		rt.leave(st)
	}

	// should_delay: the location must be a side of a live dangerous pair its
	// partner can still arrive after, and its decayed probability must pass
	// a coin flip. An empty trap set short-circuits everything with one
	// atomic load.
	if rt.set.empty() {
		return
	}
	slept, end, injected := rt.delayAtPair(st, &a, t, found)
	if !injected {
		return
	}
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
}

// recordSlow is everything the lock-free publication path cannot do, under
// the object's spin lock: claiming an untouched object for single-writer
// mode, taking over a single-writer object for shared mode (the sticky mixed
// transition) and demoting a read-shared one — both through share — the
// shared-mode near-miss scan plus append, the promotion to read-shared after
// promoteAfter reads in a row, and a read-shared read the lock-free path did
// not take. A first touch, and a read through the thread's own stripe, is
// counted by the ring it publishes to, every other call that lands here on the
// thread's own onCalls. The phase verdict is asked once, by the first
// near-miss candidate. It returns the near misses found, each with the side
// whose timestamp is the smaller, in the thread's own scratch slice (valid
// until its next call); the caller inserts them into the trap set outside the
// lock.
func (d *TSVD) recordSlow(st *threadState, os *objState, a Access, t time.Duration) []nearPair {
	rt := &d.rt
	near := st.near[:0]
	rec := histEntry{thread: a.Thread, op: a.Op, kind: a.Kind, at: t}
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
		// A read with nothing to scan: into the thread's stripe, claimed now
		// if no thread has read through it yet, and open while the object is
		// read-shared; or, when the stripe is another thread's, into hist.
		s := &os.reads.Load().stripes[uint64(a.Thread)%readStripes]
		if s.owner.Load() == 0 {
			s.owner.Store(int64(a.Thread))
		}
		if s.owner.Load() != int64(a.Thread) {
			os.hist.add(rec)
			st.onCalls.Add(1)
		} else {
			s.ring.publish(s.ring.pub.Load(), rec) // open, and only this thread advances it
		}
	default:
		// Shared mode. An owner only gets here once its ring is closed, so
		// any other writer means a takeover or a demotion.
		if w != writerShared {
			os.share(w, rt.cfg.ObjHistory)
		}
		h := os.hist
		asked, concurrent := false, false
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
			if !asked {
				asked, concurrent = true, rt.concurrent(st, a.Thread, e.at, 0)
			}
			if !concurrent {
				rt.stats.count[statSequentialSkips].Add(1)
				continue
			}
			rt.nearMiss(&a, e.op, t, gap)
			first := e.op
			if e.at > t {
				first = a.Op
			}
			near = append(near, nearPair{report.KeyOf(e.op, a.Op), first})
		}
		h.add(rec)
		st.onCalls.Add(1)
		if a.Kind != KindRead {
			os.readRun = 0
		} else if os.readRun++; int(os.readRun) >= promoteAfter(rt.cfg.ObjHistory) {
			// The ring holds nothing but reads: go read-shared.
			os.readRun = 0
			if rs := os.reads.Load(); rs == nil {
				os.reads.Store(newReadSet(rt.cfg.ObjHistory))
			} else {
				for i := range rs.stripes {
					rs.stripes[i].ring.pub.And(^ringClosed)
				}
			}
			os.writer.Store(writerReadShared)
		}
	}
	os.mu.Unlock()
	st.near = near
	return near
}

// noCall is a call time no verdict window starts at or before: concurrent's
// seen when there is no other thread's call in hand.
const noCall = time.Duration(math.MinInt64)

// concurrent is §3.4.3's verdict for the call thread self has in flight, st
// being its state: whether the last W TSVD points hold another thread's.
// They do iff another thread's latest call is at or after this thread's
// (W−1)-th previous one, exactly so under the clock's order; ties count as
// concurrent. seen, the time of some other thread's call, settles it when it
// is that recent; otherwise the thread registry is scanned. A call whose
// clock read precedes the verdict but whose store is not yet visible is
// missed. A thread with fewer than W−1 calls recorded counts every thread the
// detector has seen. The calls a thread makes while it is the only one are
// not recorded; they precede every other thread's calls, so all they could
// change is a tie. recorded is 1 when the call in flight is in st's ring
// already (a delay asks after the call is recorded, a near miss or coverage
// before), else 0. With phase detection off, and in the other variants,
// every call is concurrent.
func (rt *runtime) concurrent(st *threadState, self ids.ThreadID, seen time.Duration, recorded uint64) bool {
	if rt.phaseWindow == 0 {
		return true
	}
	if rt.threadsSeen.Load() < 2 {
		return false
	}
	var from time.Duration
	if back, n := uint64(rt.phaseWindow-1), st.callN-recorded; n >= back {
		from = st.calls[(n-back)&uint64(len(st.calls)-1)]
	}
	if seen >= from {
		return true
	}
	found := false
	rt.threads.Each(func(k int64, u *threadState) {
		if k != int64(self) && time.Duration(u.latest.Load()) >= from {
			found = true
		}
	})
	return found
}

// cover marks a's site seen, and seen in a concurrent phase if the verdict
// says so. A concurrent verdict flags the site for good. After a sequential
// one that took a scan the thread asks again only W calls later, so a site
// whose concurrent runs all fall in between is not flagged by this thread; a
// lone thread's verdict costs nothing and is not rationed.
func (d *TSVD) cover(st *threadState, a *Access) {
	concurrent := false
	if st.callN >= st.coverAsk {
		if concurrent = d.rt.concurrent(st, a.Thread, noCall, 0); !concurrent && d.rt.threadsSeen.Load() > 1 {
			st.coverAsk = st.callN + uint64(d.rt.phaseWindow)
		}
	}
	d.rt.markSeen(a.Site, a.Op, concurrent)
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
	// thread that overlaps it: one that ended inside the gap, after this
	// thread's own delay had ended (t0 ≤ t1end). A delay that ended while
	// this thread slept itself held nothing up.
	d.delayMu.Lock()
	best := -1
	for i := len(d.recentDelays) - 1; i >= 0; i-- {
		dr := d.recentDelays[i]
		if dr.thread == a.Thread || dr.end < st.lastAccess+st.ownDelay || dr.end > t {
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
	if d.rt.set.suppress(key) {
		d.rt.prunedHB(&a, key, t)
	}
}
