package core

import (
	"math"
	"math/bits"
	"math/rand"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/fasttime"
	"repro/internal/ids"
	"repro/internal/intmap"
	"repro/internal/report"
	"repro/internal/sampler"
	"repro/internal/sites"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// trap is one parked thread inside OnCall (Figure 5): the triple that
// identifies it plus everything needed to emit a two-sided report and to
// wake the sleeper early once a conflict is caught. Traps are recycled
// through trapPool: a sleeper holds one from before it registers until after
// it has unregistered, and other threads only ever reach it in between,
// through an object's trap list and under that object's lock.
type trap struct {
	access Access
	// pcs[:depth] is the delayed side's stack as runtime.Callers reported it,
	// rendered only if the trap springs (most never do).
	pcs   [stackDepth]uintptr
	depth int
	// cancel wakes the delayed thread early when a conflict is detected: one
	// buffered token, sent under the object's lock. Buffered rather than
	// closed so that the channel outlives the delay.
	cancel chan struct{}
	// conflict is set under the object's lock when another thread ran into
	// this trap; the owner reads it after waking (and after unregistering
	// under the same lock) to decide decay.
	conflict bool
}

// trapPool keeps finished traps for the next delay, of any thread and any
// detector: a suite run injects hundreds of delays from hundreds of
// short-lived goroutines, most of which sleep once.
var trapPool sync.Pool

// stackDepth is how many frames of a stack a report keeps. Measured over a
// 100-module generated suite and the Table 4 scenarios, a trap's stack is
// 6–8 and 10–11 frames deep (two or three detector frames, the proxy's two,
// the user's call path, runtime.goexit), so 32 truncates nothing there; a
// deeper stack loses its outermost frames — goroutine scaffolding, never the
// user's frame the access was made from.
const stackDepth = 32

// spinMutex is the per-object lock. Critical sections under it are tiny — a
// ring scan of ObjHistory entries plus one store — so an uncontended
// acquire/release pair must cost two atomic operations, not a sync.Mutex's
// full fast path. Contended acquires spin briefly, then yield: the only
// long hold is a rare violation report capturing stacks, and a yielding
// waiter keeps the scheduler healthy through it. The CAS/store pair gives
// the same happens-before edges a mutex would, so the data it guards stays
// race-clean.
type spinMutex struct {
	state atomic.Int32
}

func (m *spinMutex) Lock() {
	if m.state.CompareAndSwap(0, 1) {
		return
	}
	m.lockSlow()
}

func (m *spinMutex) lockSlow() {
	for spins := 0; ; spins++ {
		if m.state.Load() == 0 && m.state.CompareAndSwap(0, 1) {
			return
		}
		if spins > 8 {
			goruntime.Gosched()
		}
	}
}

func (m *spinMutex) Unlock() { m.state.Store(0) }

// objState is one object's detector state: its parked traps, its near-miss
// ring (TSVD) or epoch ring (TSVDHB), and the single-writer tracking that
// lets the hot path skip the scan entirely while only one thread has ever
// touched the object. Everything inside is guarded by mu; the struct itself
// lives in the runtime's lock-free object registry, so two accesses to the
// same object always synchronize on the same mutex (what makes a report
// red-handed-sound) while unrelated objects share nothing — not even a hash
// stripe, which is what the former shard table made them share.
type objState struct {
	mu spinMutex
	// readRun counts the shared-mode reads recorded since the last write; at
	// promoteAfter the ring holds nothing but reads and the object goes
	// read-shared.
	readRun uint32
	// traps lists the threads parked on this object, starting on trapBuf:
	// more than one at a time is rare.
	traps   []*trap
	trapBuf [1]*trap
	// hist is TSVD's shared-mode near-miss ring, or TSVDHB's epoch ring.
	hist *history
	// writer is the object's state: 0 = untouched, a thread id = only that
	// thread has ever recorded here, writerShared = at least two threads have
	// (no way back to an owner), writerReadShared = shared and the last
	// ObjHistory accesses are all reads. While single-writer, a same-thread
	// access can skip the ring scan (it would match nothing: every entry fails
	// the different-thread test), and TSVD records through the lock-free
	// publication ring below; while read-shared a read has nothing to scan
	// either and publishes into its thread's stripe of reads. All transitions
	// happen under mu; the fast paths only load.
	writer atomic.Int64
	// reads holds the read stripes, allocated at the first promotion and
	// reopened by every later one.
	reads atomic.Pointer[readSet]
	// ring is TSVD's single-writer publication ring, in use exactly while
	// writer holds a thread id; closed and merged into hist at the takeover
	// by a second thread. Its entries are the inline array unless ObjHistory
	// needs a longer ring.
	ring   pubRing
	inline [inlineEntries]histEntry
	// The registry carves objStates side by side out of one chunk. A whole
	// number of cache lines each, padding last, keeps the fields of two
	// objects off one line (TestRegistryStatesOwnTheirCacheLines).
	_ [24]byte
}

// inlineEntries is the publication ring's capacity at the default ObjHistory
// of 5 (ownerRingSize), and its floor.
const inlineEntries = 6

// writerShared marks an object permanently in shared (mutex-protocol) mode.
// It is a value no thread id can take — not a goroutine id, and not
// ids.NoThread, which ids.CurrentThreadID returns when its parser fails: a
// thread whose id equals the sentinel would be taken for the owner of every
// shared object.
const writerShared = math.MinInt64

// writerReadShared marks a shared object whose last ObjHistory accesses are
// all reads (TSVD only): a read conflicts with none of them, so it records
// into its thread's stripe of os.reads without os.mu. recordSlow enters the
// state after promoteAfter shared-mode reads in a row and leaves it on the
// first write.
const writerReadShared = writerShared + 1

// promoteAfter is that run's length: a few rings' worth, so that an object
// written now and then is not promoted and demoted around every write.
func promoteAfter(window int) int { return 4 * window }

// readStripes is a power of two; consecutive goroutine ids take different
// stripes.
const readStripes = 8

// readSet is a read-shared object's recent reads: a publication ring of
// ObjHistory+1 entries a stripe, each owned by the first thread that read
// through it (claimed under os.mu and kept), so that between them and os.hist
// they hold the newest ObjHistory reads of all. An owner publishes as it does
// into os.ring; a read whose stripe is another thread's records into os.hist
// under os.mu. share, holding os.mu, stores writerShared, closes every stripe
// and merges what each published since its last merge, together with os.hist
// — so a read either is in the merge or its CAS fails and recordSlow finds
// the write. The next promotion reopens the stripes where they stand.
type readSet struct {
	// spare is share's copy of os.hist while it merges into it. The line in
	// front of the stripes holds nothing that changes after allocation: a nil
	// check on os.reads loads the struct's first byte, which would otherwise
	// share stripe 0's line with its owner.
	spare   []histEntry
	_       [64 - 24]byte
	stripes [readStripes]struct {
		ring pubRing
		// owner is the thread that publishes into ring, 0 while unclaimed;
		// merged is the count share merged up to. Both written under os.mu.
		owner  atomic.Int64
		merged uint64
		_      [64 - 56]byte // a cache line a stripe
	}
}

func newReadSet(window int) *readSet {
	size := (window + 2) &^ 1 // at least window+1 slots, in whole cache lines of 32-byte entries
	entries := make([]histEntry, readStripes*size+window)
	rs := &readSet{spare: entries[readStripes*size:]}
	for i := range rs.stripes {
		rs.stripes[i].ring.entries = entries[i*size:][:size:size]
	}
	return rs
}

// share puts a TSVD object that some thread records into without os.mu —
// writer w is its owner's id, or writerReadShared — into shared mode: it
// stores writerShared, stops the lock-free writers and merges what they
// recorded into hist. Closing a ring makes every later publication CAS fail
// onto the mutex path, and the count it closed at is its owner's last. A
// takeover closes the owner's ring; a demotion closes every stripe and merges
// them with what hist holds, oldest timestamp first. Caller holds os.mu.
func (os *objState) share(w int64, window int) {
	if os.hist == nil {
		os.hist = newHistory(window)
	}
	os.writer.Store(writerShared)
	h := os.hist
	if w != writerReadShared {
		h.merge(os.ring.close(0))
		return
	}
	rs := os.reads.Load()
	var from [readStripes + 1]tail
	from[0] = tail{history{entries: rs.spare, next: h.next}, h.len()}
	copy(rs.spare, h.entries)
	h.next, h.full = 0, false
	for i := range rs.stripes {
		s := &rs.stripes[i]
		from[i+1] = s.ring.close(s.merged)
		s.merged += uint64(from[i+1].n)
	}
	h.merge(from[:]...)
}

// openRing returns the publication ring an access by tid may record into
// without os.mu, with the open count it loaded, or nil: the object's ring
// while writer names tid, or, for a read of a read-shared object, the stripe
// tid claimed. writer only ever leaves a thread id for writerShared, and a
// stripe's owner never changes, so the ring's next slot is tid's to write,
// and a publish from that count fails only if share closed the ring since.
func (os *objState) openRing(tid ids.ThreadID, kind Kind) (rg *pubRing, n uint64) {
	rg, w := &os.ring, os.writer.Load()
	if w == writerReadShared && kind == KindRead {
		s := &os.reads.Load().stripes[tid&(readStripes-1)]
		rg, w = &s.ring, s.owner.Load()
	}
	if n = rg.pub.Load(); w != int64(tid) || n&ringClosed != 0 {
		rg = nil
	}
	return rg, n
}

// noteWriterLocked updates the single-writer tracking for an access by tid
// and reports whether the ring scan must run (true once a second thread is
// involved). Caller holds os.mu. Used by the variants that record under the
// lock unconditionally (TSVDHB); TSVD's recordSlow has its own transition
// handling because it must also close and merge the publication ring.
func (os *objState) noteWriterLocked(tid ids.ThreadID) (scan bool) {
	w := os.writer.Load()
	scan = w == writerShared || (w != 0 && w != int64(tid))
	if w == 0 {
		os.writer.Store(int64(tid))
	} else if w != int64(tid) && w != writerShared {
		os.writer.Store(writerShared)
	}
	return scan
}

// pubRing is the single-writer publication ring: a fixed circular entry array
// whose publication counter advances by one CAS per recorded access, the
// k-th entry in slot k modulo the ring's size. The owning thread writes the
// entry with plain stores and publishes it with the CAS. Closing the ring
// (setting ringClosed under the object's mutex) makes every later
// publication CAS fail, which bounces the owner onto the mutex path; share
// then reads the ObjHistory entries below the closed count — one slot fewer
// than the ring holds, so never the slot the owner's in-flight publication
// may be writing. Nothing ever moves the count back: masked, it is the number
// of calls the ring recorded.
type pubRing struct {
	// pub is the number of published entries, with ringClosed or'ed in while
	// the ring is closed.
	pub atomic.Uint64
	// next is the slot the owner writes next, pub modulo len(entries), so the
	// lock-free path divides by nothing. Owner-only.
	next int
	// entries is the inline array, or one the owner allocates under the
	// object's mutex at its first touch when ObjHistory needs more; it never
	// changes after that.
	entries []histEntry
}

const ringClosed = uint64(1) << 63

// publish writes e into the owner's next slot and publishes it with one CAS
// from n, the open count the owner loaded, which is also the call's count. It
// fails, leaving next where it was, once the ring was closed after that load.
func (rg *pubRing) publish(n uint64, e histEntry) bool {
	i := rg.next
	rg.entries[i] = e
	if !rg.pub.CompareAndSwap(n, n+1) {
		return false
	}
	if i++; i == len(rg.entries) {
		i = 0
	}
	rg.next = i
	return true
}

// close stops the ring's publications and returns what it published since
// count from. Caller holds the object's mutex.
func (rg *pubRing) close(from uint64) tail {
	n := rg.pub.Or(ringClosed) &^ ringClosed
	return tail{history{entries: rg.entries, next: int(n % uint64(len(rg.entries)))}, int(n - from)}
}

// callRingSize is the length of a thread's ring of call times for a phase
// window of w TSVD points: the call in flight and the w−1 before it (a delay
// asks once the call is recorded), rounded up to a power of two so that the
// call count indexes it.
func callRingSize(w int) int { return 1 << bits.Len(uint(w-1)) }

// ownerRingSize is the publication ring's size: the ObjHistory entries a
// takeover merges plus the owner's in-flight slot, and at least the inline
// array.
func ownerRingSize(window int) int { return max(window+1, inlineEntries) }

// threadState is one thread's detector state, created on first sighting and
// then owned by that thread: the plain fields are only ever read and written
// by the owning goroutine, the atomics are written by the owner and read by
// snapshot/metrics scrapes. Keeping the per-thread counters here — instead
// of on shared cache lines — is what makes the contended OnCall path scale:
// every thread bumps its own line.
type threadState struct {
	// onCalls counts this thread's analysed calls in the variants that do
	// not count them by ring publication, and TSVD's calls on shared objects
	// and its reads through another thread's stripe; sampledOut counts its
	// calls the site stage rejected. snapshotStats sums them across threads.
	onCalls    atomic.Int64
	sampledOut atomic.Int64

	// --- sampled-mode admission (admit.go, docs/SAMPLING.md) ---
	// skip is the countdown of calls still to reject; granted is the total
	// ever handed out, so granted - max(skip, 0) is the number of calls the
	// countdown rejected — the one atomic add a rejected call pays is also
	// what counts it. Written by the owner, read by snapshots.
	skip    atomic.Int64
	granted atomic.Int64
	// The rest is owner-only. rng is the private xorshift state every draw
	// uses; survivorNext says the call that runs the countdown out goes on
	// to the site stage, at weight calls per survivor; block is the size of
	// the running countdown (charged at the floor when it runs out) and
	// maxGap the cap on the next one; pending is a verdict Gate.Admit took
	// for the OnCall that follows it; enteredAt is when the admitted call in
	// flight entered the detector.
	rng          uint64
	survivorNext bool
	weight       int64
	block        int64
	maxGap       int64
	pending      verdict
	enteredAt    time.Duration

	// cachedObj/cachedState short-circuit the object-registry probe while a
	// thread stays on one object (the common loop shape); objStateFast
	// refreshes them on every registry hit.
	cachedObj   ids.ObjectID
	cachedState *objState

	// near is recordSlow's result buffer: the near misses of the call in
	// flight, consumed by OnCall before the thread's next call. It starts on
	// nearBuf — a call rarely records more than one near miss, and most
	// threads are too short-lived to amortize a slice of their own.
	near    []nearPair
	nearBuf [4]nearPair

	// budget caps the total delay injected into this thread (§4, runtime
	// feature 2).
	budget clock.Budget

	// --- concurrent-phase verdict (§3.4.3, TSVD.concurrent) ---
	// latest is the time of the thread's newest recorded call, the one field
	// here another thread's call reads (a verdict's scan); zero before the
	// first. Its owner publishes it with storeRelease, a plain store on
	// amd64. calls is the ring of the thread's recorded call times, a power
	// of two of at least W entries (on callBuf up to W = 16), and callN
	// counts the calls it has recorded. A call is recorded once the detector
	// has seen a second thread. coverAsk is the callN from which the coverage
	// path may ask for a verdict again. Owner-only but for latest.
	latest   atomic.Int64
	calls    []time.Duration
	callN    uint64
	coverAsk uint64
	callBuf  [16]time.Duration

	// --- TSVD happens-before inference (§3.4.4), owner-only ---
	// lastAccess starts at the noAccessYet sentinel, which makes the
	// inter-access gap hugely negative until the first admitted access —
	// inferHB's threshold check then rejects it without a separate
	// has-accessed flag (and store) on the hot path.
	lastAccess time.Duration
	// ownDelay accumulates delay injected into this thread since its last
	// access, so a self-inflicted gap is not attributed to another thread's
	// delay during HB inference.
	ownDelay time.Duration
	// hbDeadline caches lastAccess + ownDelay + δ_hb so the OnCall guard is
	// one load and one compare. It must never exceed that sum (inferHB would
	// miss a qualifying gap) but may run early — inferHB re-derives the gap
	// from the authoritative fields, so a conservative zero (fresh threads,
	// states fabricated by tests) only costs a wasted call.
	hbDeadline time.Duration
	// inherits carries the k_hb-access happens-after windows (§3.4.4).
	inherits []inheritance

	// --- TSVDHB vector-clock slot (§3.5), split so the per-TSVD-point tick
	// is allocation-free: epoch is the thread's own component (one atomic
	// add); rest holds components learned from other threads; memo caches
	// the last materialized full clock so repeated handovers without
	// intervening ticks reuse one tree reference. Ticks and adoptions happen
	// only on the owning thread; cross-thread readers see an immutable
	// snapshot that is at worst a few events stale.
	epoch atomic.Uint64
	rest  vclock.Atomic
	memo  atomic.Pointer[clockMemo]

	// Padding to a whole number of cache lines, as objState's: the
	// neighbours in the registry's chunk belong to other threads.
	_ [24]byte
}

type clockMemo struct {
	epoch uint64
	tree  vclock.Tree
}

// tick advances the own clock component and returns the new epoch.
func (c *threadState) tick() uint64 { return c.epoch.Add(1) }

// known returns the components learned from other threads. This is all the
// OnCall epoch test needs (entries from the own thread are skipped), so the
// hot path never materializes a full clock.
func (c *threadState) known() vclock.Tree { return c.rest.Load() }

// treeFor materializes the full clock of thread `own`: rest overlaid with
// the current epoch. Called at synchronization operations only.
func (c *threadState) treeFor(own int64) vclock.Tree {
	e := c.epoch.Load()
	t := c.rest.Load()
	if t.Get(own) == e {
		return t
	}
	if m := c.memo.Load(); m != nil && m.epoch == e {
		return m.tree
	}
	full := t.Set(own, e)
	c.memo.Store(&clockMemo{epoch: e, tree: full})
	return full
}

// adopt merges an incoming clock (a fork/join/lock handover) into the
// thread's learned components. Runs on the owning thread.
func (c *threadState) adopt(own int64, incoming vclock.Tree) {
	cur := c.treeFor(own)
	if vclock.SameRef(cur, incoming) {
		return
	}
	c.memo.Store(nil)
	c.rest.Store(vclock.Join(cur, incoming))
}

// coverTable is the dense per-site coverage flag table, indexed by
// ids.SiteID. Bit 0: the site executed at all; bit 1: it executed during a
// concurrent phase. The fully-marked common case costs one load; every
// transition (and growth) happens under coverMu, so the grow-copy can never
// lose a concurrent flag store.
type coverTable []atomic.Uint32

const (
	coverSeen       = 1
	coverConcurrent = 2
)

// runtime is the state shared by every detector variant: configuration,
// time source, the site registry, the per-object and per-thread registries,
// statistics, the report collector and the trap set, with the transitions
// and the delay tail the variants share. A variant adds only its OnCall and
// what that alone uses. There is no global lock and no hashing
// on the admitted fast path beyond two lock-free integer-keyed probes:
// per-object state hangs off a lock-free object registry, per-thread state
// (including the hot counters) off a thread registry, per-site state
// (coverage, sampler admission) is indexed directly by dense SiteIDs, and
// injected delays always sleep outside every lock so threads can be parked on
// different objects concurrently (§3.4.6 "Parallel delay injection").
// docs/PERFORMANCE.md documents the full cost model.
type runtime struct {
	cfg   config.Config
	clk   clock.Clock
	start time.Time
	// realClock marks clk as the plain wall clock, letting now() call
	// time.Since directly instead of through the interface — the hottest
	// call in the detector devirtualized.
	realClock bool
	// fastClock selects the calibrated TSC time source (internal/fasttime)
	// for the real clock: roughly half the cost of the vDSO read behind
	// time.Since, which profiles as the single largest item on the OnCall
	// fast path. Only set when fasttime's gating (kernel-validated TSC,
	// sane calibration) passed; startTicks is the detector's epoch.
	fastClock  bool
	startTicks uint64

	// sites interns (location, class, method, kind) tuples into the dense
	// SiteIDs every per-site structure is indexed by. Shared across
	// detectors when config.Config.Sites is set.
	sites *sites.Registry

	// objs is the per-object state registry (lock-free integer-keyed reads).
	objs intmap.Map[objState]
	// threads is the per-thread state registry, shared by every variant.
	threads intmap.Map[threadState]

	stats   atomicStats
	reports *report.Collector

	// met is the live metrics sink, nil unless WithDetectorMetrics was
	// given. Like the tracer, every hook site is nil-safe and sits on
	// detector action paths only — the conflict-free fast path crosses no
	// metrics hook; the scrape-time counter views read the atomics above
	// and add no hot-path work at all.
	met *DetectorMetrics

	// tr is the event tracer, nil unless cfg.Trace is set. Every emission
	// site is nil-safe, sits off the conflict-free fast path (events fire
	// only on detector actions: near misses, delays, prunes, violations),
	// and writes scalars into a preallocated striped ring — the tracer adds
	// no allocation anywhere in OnCall. docs/OBSERVABILITY.md has the
	// schema; the event counts reconcile exactly with atomicStats.
	tr *trace.Tracer

	// parked counts currently registered traps process-wide. The hot path
	// skips the object's trap scan entirely while it is zero — on a
	// conflict-free workload OnCall never touches the trap table at all.
	parked atomic.Int64
	// threadsSeen counts the thread states created. While it is 1 a TSVD
	// call stores nothing for the phase verdict: nobody else would read it.
	threadsSeen atomic.Int32
	// phaseWindow is TSVD's W (config.Config.PhaseBufferSize); zero with
	// phase detection off and in the other variants, whose threads then get
	// no ring of call times.
	phaseWindow int

	// cover is the dense per-site coverage flag table; covered keeps the
	// op-keyed records behind it so the public counters stay op-distinct
	// (an op can map to one site per kind). The common fully-marked case is
	// one lock-free load of cover; covered is only probed on transitions.
	coverMu sync.Mutex
	cover   atomic.Pointer[coverTable]
	covered intmap.Map[locCover]

	// rng drives every probabilistic decision. Draws only happen for
	// eligible delay locations (rare) and in the random variants, so one
	// small lock suffices; the TSVD hot path never takes it. The source is
	// seeded from cfg.Seed by the first draw (seeded says it was): most
	// module runs never reach a delay decision, and a source is 5 KiB. A
	// renewed runtime reseeds the source its last run built.
	rngMu  sync.Mutex
	rng    *rand.Rand
	seeded bool

	// mode is the production sampling tier (docs/SAMPLING.md). ModeFull is
	// the zero value; ModeObserveOnly suppresses sleeps in injectDelay;
	// ModeSampled gates analysis through samp.
	mode config.Mode
	// samp is the admission sampler and its adaptive overhead controller,
	// non-nil only in ModeSampled (possibly shared with the other detectors
	// of a run: WithSharedSampler). sampBase is this detector's start on the
	// sampler's time axis, and costs the calibrated per-call constants it is
	// charged by.
	samp     *sampler.Sampler
	sampBase time.Duration
	costs    costs
	// samplerOp is the interned "sampler" pseudo-location carried by
	// sampler_throttle trace events (the schema requires a nonzero op_a).
	samplerOp ids.OpID

	// Effective (time-scaled) durations, precomputed.
	delayTime      time.Duration
	nearMissWindow time.Duration
	maxDelay       time.Duration
	// hbThreshold is δ_hb·delayTime, precomputed so the hot path does no
	// floating-point work.
	hbThreshold time.Duration

	// set is the trap set (§3.4.1), last so that the fields the fast path
	// reads before its set.empty() load keep their offsets. Only TSVD and
	// TSVDHB put pairs in it (trapping); the random variants' stays empty and
	// makes no maps.
	set trapSet
}

// detectorBase is what every analysing variant embeds: the shared runtime
// and the Detector accessors that only read it.
type detectorBase struct {
	rt runtime
}

// Sites implements Detector.
func (b *detectorBase) Sites() *sites.Registry { return b.rt.sites }

// Reports implements Detector.
func (b *detectorBase) Reports() *report.Collector { return b.rt.reports }

// Stats implements Detector.
func (b *detectorBase) Stats() Stats { return b.rt.snapshotStats() }

// Tracer implements Detector.
func (b *detectorBase) Tracer() *trace.Tracer { return b.rt.tr }

// ExportTraps implements Detector: the trap file contents (§3.4.6), nil for
// an empty set and so always for the random variants.
func (b *detectorBase) ExportTraps() []report.PairKey { return b.rt.set.export() }

// TrapSetSize reports the number of live dangerous pairs (for tests, the
// metrics gauge and the coverage statistics).
func (b *detectorBase) TrapSetSize() int { return b.rt.set.size() }

// storage is what Renew carries from a detector's finished run into its
// next: the allocations its tables grew, each emptied by release. The zero
// value carries nothing, and init then allocates as a new detector does.
type storage struct {
	threads intmap.Storage[threadState]
	objs    intmap.Storage[objState]
	covered intmap.Storage[locCover]
	cover   *coverTable
	reports *report.Collector
	// pairs and locs are the trap set's maps, made by a first write.
	pairs map[report.PairKey]uint8
	locs  map[ids.OpID]locState
	// rng is reseeded by its first draw; tr is reused by trace.Reuse.
	rng *rand.Rand
	tr  *trace.Tracer
}

// release empties r into s for its detector's next run (Renew). First r's
// metrics view folds what r counted, and its trap set's final size, into its
// retired totals and lets go of r, so no scrape sees r emptied.
func (r *runtime) release(s *storage) {
	r.met.retire(r)
	s.threads, s.objs, s.covered = r.threads.Release(), r.objs.Release(), r.covered.Release()
	clear(r.set.pairs)
	clear(r.set.locs)
	s.pairs, s.locs = r.set.pairs, r.set.locs
	if ct := r.cover.Load(); ct != nil {
		for i := range *ct {
			(*ct)[i].Store(0)
		}
		s.cover = ct
	}
	r.reports.Reset()
	s.reports, s.rng, s.tr = r.reports, r.rng, r.tr
}

// init prepares a zero r in place on s's storage and attaches it to its
// metrics view. TSVD gets its phase window, and a trapping variant's set is
// seeded from the trap file. (runtime holds locks and atomics, so it is
// initialized through a pointer rather than returned by value.)
func (r *runtime) init(cfg config.Config, o options, s *storage) {
	r.threads.Reuse(s.threads)
	r.objs.Reuse(s.objs)
	r.covered.Reuse(s.covered)
	r.set.pairs, r.set.locs = s.pairs, s.locs
	if s.cover != nil {
		r.cover.Store(s.cover)
	}
	r.reports, r.rng = s.reports, s.rng
	if r.reports == nil {
		r.reports = report.NewCollector()
	}
	r.cfg = cfg
	r.clk = o.clk
	_, r.realClock = o.clk.(clock.Real)
	r.start = o.clk.Now()
	if r.realClock && fasttime.Enabled() {
		r.fastClock = true
		r.startTicks = fasttime.Ticks()
	}
	r.sites = cfg.Sites
	if r.sites == nil {
		r.sites = sites.New()
	}
	r.met = o.metrics
	r.delayTime = cfg.EffectiveDelay()
	r.nearMissWindow = cfg.EffectiveNearMissWindow()
	r.maxDelay = cfg.EffectiveMaxDelayPerThread()
	r.hbThreshold = time.Duration(cfg.HBBlockThreshold * float64(r.delayTime))
	r.mode = cfg.Mode
	if cfg.Mode == config.ModeSampled {
		sh := o.shared
		if sh == nil {
			sh = NewSharedSampler(cfg)
		}
		r.samp = sh.samp
		if r.realClock { // a test clock has no common axis to be placed on
			r.sampBase = r.start.Sub(sh.start)
		}
		r.costs = callCosts()
		r.samplerOp = ids.InternKey("sampler")
	}
	if cfg.Trace {
		r.tr = trace.Reuse(s.tr, cfg.TraceBufferSize)
	}
	if cfg.Algorithm == config.AlgoTSVD && !cfg.DisablePhaseDetection {
		r.phaseWindow = cfg.PhaseBufferSize
	}
	if r.trapping() {
		for _, key := range o.initialTraps {
			r.addPair(0, 0, nearPair{key: key}, 0)
		}
	}
	o.metrics.attach(r)
}

// trapping reports whether r's variant keeps a trap set: TSVD and TSVDHB do,
// the random variants do not.
func (r *runtime) trapping() bool {
	return r.cfg.Algorithm == config.AlgoTSVD || r.cfg.Algorithm == config.AlgoTSVDHB
}

// now returns the time since detector start. Safe without any lock. The
// production wall clock reads the calibrated TSC when available (one RDTSC
// plus a fixed-point multiply) and the vDSO otherwise; test clocks go
// through the interface. Split so the TSC path inlines into OnCall.
func (r *runtime) now() time.Duration {
	if r.fastClock {
		return fasttime.SinceTicks(r.startTicks)
	}
	return r.nowSlow()
}

func (r *runtime) nowSlow() time.Duration {
	if r.realClock {
		return time.Since(r.start)
	}
	return r.clk.Since(r.start)
}

// resolveSite fills in a dense site id for accesses that arrive without one
// (fabricated test accesses): the registry's op-keyed fallback, one lock-free
// probe after the first call per (op, kind). Accesses from instrumentation
// carry their SiteID already and skip this entirely.
func (r *runtime) resolveSite(a *Access) {
	if a.Site == 0 {
		a.Site = r.sites.ForOpKind(a.Op, a.Kind == KindWrite)
	}
}

// threadStateFor returns t's state, creating it on first use. The returned
// pointer's plain fields are only ever dereferenced by t's goroutine. The
// found case is a single lock-free probe with no closure setup.
func (r *runtime) threadStateFor(t ids.ThreadID) *threadState {
	if st := r.threads.Get(int64(t)); st != nil {
		return st
	}
	return r.newThreadState(t)
}

func (r *runtime) newThreadState(t ids.ThreadID) *threadState {
	st, created := r.threads.GetOrInit(int64(t), func(st *threadState) {
		st.rng = sampler.SeedRand(r.cfg.Seed, int64(t))
		st.lastAccess = noAccessYet
		st.budget = clock.Budget{Max: r.maxDelay}
		st.near = st.nearBuf[:0]
		if w := r.phaseWindow; w > 0 {
			if n := callRingSize(w); n <= len(st.callBuf) {
				st.calls = st.callBuf[:n]
			} else {
				st.calls = make([]time.Duration, n)
			}
		}
	})
	if created {
		r.threadsSeen.Add(1)
	}
	return st
}

// noAccessYet is lastAccess's value before a thread's first admitted access:
// large enough that any gap computed against it is hugely negative (so HB
// inference rejects it), small enough that the arithmetic cannot overflow.
const noAccessYet = time.Duration(1) << 60

// objStateFast is the calling thread st's inline object lookup: the thread's
// one-object cache, then the registry's home slot, whose hit becomes the
// cached object. It returns nil when neither holds obj (a key away from
// home, or an object not seen yet), and the caller goes out of line to
// objStateFor. It is exactly at the inliner's budget: anything added here
// takes it out of both OnCalls (TestHotPathHelpersInline).
func (r *runtime) objStateFast(st *threadState, obj ids.ObjectID) *objState {
	if st.cachedObj == obj {
		return st.cachedState // nil only before the thread's first object
	}
	os, ok := r.objs.GetFast(int64(obj))
	if ok {
		st.cachedObj, st.cachedState = obj, os
	}
	return os
}

// objStateFor returns obj's state, creating it on first use: the registry's
// full probe, out of line. When st is the calling thread's state, obj becomes
// its cached object.
func (r *runtime) objStateFor(st *threadState, obj ids.ObjectID) *objState {
	os, _ := r.objs.GetOrInit(int64(obj), initObjState)
	if st != nil {
		st.cachedObj, st.cachedState = obj, os
	}
	return os
}

// source returns the seeded source, building or reseeding it on first use:
// either way it draws what rand.New(rand.NewSource(cfg.Seed)) would. Caller
// holds rngMu.
func (r *runtime) source() *rand.Rand {
	if !r.seeded {
		if r.rng == nil {
			r.rng = rand.New(rand.NewSource(r.cfg.Seed))
		} else {
			r.rng.Seed(r.cfg.Seed)
		}
		r.seeded = true
	}
	return r.rng
}

func initObjState(os *objState) {
	os.traps = os.trapBuf[:0]
	os.ring.entries = os.inline[:]
}

// randFloat draws from the seeded source. Callers hold no other runtime
// lock ordering obligations; rngMu is a leaf lock.
func (r *runtime) randFloat() float64 {
	r.rngMu.Lock()
	f := r.source().Float64()
	r.rngMu.Unlock()
	return f
}

// randDurationUpTo draws uniformly from (0, d].
func (r *runtime) randDurationUpTo(d time.Duration) time.Duration {
	r.rngMu.Lock()
	v := r.source().Int63n(int64(d))
	r.rngMu.Unlock()
	return time.Duration(v) + 1
}

// side builds one report side, resolving the API strings from the site
// registry — report time is the only place the detector touches site metadata
// strings, or symbolizes a stack, at all. The side keeps pcs and stack.
func (r *runtime) side(a *Access, pcs []uintptr, stack string) report.Side {
	info := r.sites.Info(a.Site)
	return report.Side{
		Thread: a.Thread,
		Op:     a.Op,
		Site:   a.Site,
		Write:  a.Kind == KindWrite,
		Class:  info.Class,
		Method: info.Method,
		PCs:    pcs,
		Stack:  stack,
	}
}

// checkForTraps implements check_for_trap (Figure 5 line 2): it scans the
// traps registered on a's object and reports a violation for every
// conflicting one. Caller holds os.mu, where os is a.Obj's state — the same
// mutex the trapped thread registered under, which is what keeps the
// no-false-positives argument intact: both threads are provably inside
// conflicting calls on the same object at the same moment. It returns the
// pair keys of the violations found so variants can prune them from their
// trap sets (outside the object lock).
func (r *runtime) checkForTraps(os *objState, a *Access) []report.PairKey {
	var found []report.PairKey
	for _, t := range os.traps {
		if t.access.Thread == a.Thread || !Conflicts(t.access.Kind, a.Kind) {
			continue
		}
		r.stats.count[statViolations].Add(1)
		// Both sides' program counters share one array, both stacks one string.
		pcs := make([]uintptr, t.depth+stackDepth)
		copy(pcs, t.pcs[:t.depth])
		pcs = pcs[:t.depth+goruntime.Callers(1, pcs[t.depth:])]
		var b strings.Builder
		b.Grow(128 * len(pcs))
		ids.AppendStack(&b, pcs[:t.depth])
		cut := b.Len()
		ids.AppendStack(&b, pcs[t.depth:])
		stacks := b.String()
		v := report.Violation{
			Object:      a.Obj,
			Trapped:     r.side(&t.access, pcs[:t.depth:t.depth], stacks[:cut]),
			Conflicting: r.side(a, pcs[t.depth:], stacks[cut:]),
			When:        r.now(),
		}
		r.reports.Add(v)
		r.tr.Emit(trace.KindTrapSprung, a.Thread, a.Obj, t.access.Op, a.Op, v.When, 0)
		t.conflict = true
		select {
		case t.cancel <- struct{}{}:
		default: // a third thread already woke it
		}
		found = append(found, v.Key())
	}
	return found
}

// unregisterTrap removes t from its object's trap list. Caller holds os.mu.
func (r *runtime) unregisterTrap(os *objState, t *trap) {
	list := os.traps
	for i := range list {
		if list[i] == t {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	os.traps = list
}

// injectDelay parks the calling thread — whose state st is — in a trap for
// up to d (clipped by the thread's budget), sleeping outside every lock. It
// returns the nominal duration actually slept, whether a delay was injected
// at all, and whether it was productive (another thread ran into the trap).
// The caller holds no locks. The trap's stack starts at injectDelay, or skip
// frames further out: delayAtPair passes 1, so that its traps' stacks start
// at its own frame and hold as many detector frames as a trap a random
// variant's OnCall plants through injectDelay directly. With alone set
// (delayAtPair) the thread does not park on an object another thread is
// parked on: the call injects nothing, and the grant and the trap go back.
//
// The trap becomes visible to other threads only once it is registered
// under the object's lock; a conflicting access that scans strictly before
// registration completes simply misses this trap — a loss of one detection
// opportunity, never a false positive. The single-mutex runtime had the
// same property: its atomicity only extended until the sleeping thread
// dropped the lock.
func (r *runtime) injectDelay(st *threadState, a Access, d time.Duration, skip int, alone bool) (slept time.Duration, injected, sprung bool) {
	// Observe-only mode (docs/SAMPLING.md): the detector went through its
	// whole decision — the pair is trapped, the coin flip passed — but no
	// thread sleeps. Counting the veto here, at the single funnel every
	// variant's delay goes through, is what makes the mode's "zero injected
	// delays" claim checkable: DelaysInjected stays 0 while
	// DelaysSuppressed counts the trap firings that would have happened.
	if r.mode == config.ModeObserveOnly {
		r.stats.count[statDelaysSuppressed].Add(1)
		r.tr.Emit(trace.KindDelaySuppressed, a.Thread, a.Obj, a.Op, 0, r.now(), d)
		return 0, false, false
	}
	grant := st.budget.Allow(d)
	if grant <= 0 {
		return 0, false, false
	}
	// A pooled trap is registered nowhere, so nobody else can be looking at
	// it: no lock is needed to rewrite it. Its last sleeper may have been
	// woken by its timer just as the token was sent.
	t, _ := trapPool.Get().(*trap)
	if t == nil {
		t = &trap{cancel: make(chan struct{}, 1)}
	}
	select {
	case <-t.cancel:
	default:
	}
	t.access, t.conflict = a, false
	t.depth = goruntime.Callers(1+skip, t.pcs[:])
	os := r.objStateFor(nil, a.Obj)
	os.mu.Lock()
	if alone && len(os.traps) > 0 {
		os.mu.Unlock()
		st.budget.Refund(grant)
		trapPool.Put(t)
		r.stats.count[statDelaysSkippedOccupied].Add(1)
		return 0, false, false
	}
	os.traps = append(os.traps, t)
	os.mu.Unlock()
	r.parked.Add(1)
	r.stats.count[statDelaysInjected].Add(1)
	r.met.observeDelay(grant)
	r.tr.Emit(trace.KindTrapSet, a.Thread, a.Obj, a.Op, 0, r.now(), grant)

	slept, woken := r.clk.Sleep(grant, t.cancel)

	os.mu.Lock()
	r.unregisterTrap(os, t)
	os.mu.Unlock()
	r.parked.Add(-1)
	// The budget was charged the grant and gets back an early wake's rest;
	// everything else — the totals, the sampler, the trace and TSVD's own
	// delay — is told what the sleep lasted, a late timer's overrun included,
	// so that the overrun never reads as a gap the thread was blocked in.
	if woken && slept < grant {
		st.budget.Refund(grant - slept)
	}
	r.stats.count[statTotalDelay].Add(int64(slept))
	if r.samp != nil {
		r.samp.ObserveDelay(slept)
	}
	if r.tr != nil {
		at := r.now()
		r.tr.Emit(trace.KindDelayInjected, a.Thread, a.Obj, a.Op, 0, at, slept)
		if t.conflict {
			r.tr.Emit(trace.KindDelayProductive, a.Thread, a.Obj, a.Op, 0, at, slept)
		}
	}
	sprung = t.conflict
	trapPool.Put(t)
	return slept, true, sprung
}

// delayAtPair is should_delay and what follows it in the variants with a
// trap set (§3.4.5; §3.5 "When to inject"): a location in a live pair delays
// if it is a side of the pair its partner can still arrive after — found says
// the call just found a near miss (trapSet.eligible) — its probability wins a
// coin flip, the call is in a concurrent phase (§3.4.3; outside TSVD with
// phase detection on, every call is) and no other thread is parked on its
// object (injectDelay decides that where it registers the trap); a delay
// that caught nothing decays the location.
// t is the call's time, or noCall when the caller read none (stamp). It
// returns the time slept and when the delay ended, for TSVD's delay log, and
// whether a delay was injected. The caller has checked the set is not empty.
func (r *runtime) delayAtPair(st *threadState, a *Access, t time.Duration, found bool) (slept, end time.Duration, injected bool) {
	prob, ok := r.set.eligible(a.Op, found)
	if !ok || r.randFloat() >= prob {
		return 0, 0, false
	}
	// §3.4.3: delays are planned only in a concurrent phase. The call in
	// flight is in the thread's ring of call times once it has recorded any.
	if !r.concurrent(st, a.Thread, noCall, min(st.callN, 1)) {
		r.stats.count[statDelaysSkippedSequential].Add(1)
		return 0, 0, false
	}
	r.tr.Emit(trace.KindDelayPlanned, a.Thread, a.Obj, a.Op, 0, r.stamp(t), r.delayTime)
	slept, injected, sprung := r.injectDelay(st, *a, r.delayTime, 1, true) // sleeps unlocked
	if !injected {
		return 0, 0, false
	}
	end = r.now()
	if !sprung {
		r.decayAfterFailedDelay(a.Op, end)
	}
	return slept, end, true
}

// nearPair is one near miss: its pair, and the location of its earlier
// access, the side a delay can still catch the other at (0 for a pair from a
// trap file).
type nearPair struct {
	key   report.PairKey
	first ids.OpID
}

// addPair puts p's pair in the trap set, or makes its earlier side delayable
// there, counted, gauged and traced as found by thread t on obj at (stamp)
// when the pair is new.
func (r *runtime) addPair(t ids.ThreadID, obj ids.ObjectID, p nearPair, at time.Duration) {
	n := r.set.add(p.key, p.first)
	if n == 0 {
		return
	}
	r.stats.count[statPairsAdded].Add(1)
	r.met.observeOccupancy(n)
	r.tr.Emit(trace.KindPairAdded, t, obj, p.key.A, p.key.B, r.stamp(at), 0)
}

// prunedHB counts and traces one pair found happens-before ordered at a's
// call: TSVD's inference taking it out of the trap set, or TSVDHB's analysis
// keeping it from entering, at (stamp).
func (r *runtime) prunedHB(a *Access, key report.PairKey, at time.Duration) {
	r.stats.count[statPairsPrunedHB].Add(1)
	r.tr.Emit(trace.KindPairPrunedHB, a.Thread, a.Obj, key.A, key.B, r.stamp(at), 0)
}

// stamp is an event's time: at, or now when the caller read no clock (at is
// noCall) — read only while tracing is on, so that a variant whose
// conflict-free path reads no clock (TSVDHB) reads none for its events either
// when nothing would record them.
func (r *runtime) stamp(at time.Duration) time.Duration {
	if at == noCall && r.tr != nil {
		return r.now()
	}
	return at
}

// decayAfterFailedDelay decays loc after a delay that exposed no conflict
// (trapSet.decay) and counts and traces, stamped at, each pair it pruned.
func (r *runtime) decayAfterFailedDelay(loc ids.OpID, at time.Duration) {
	var buf [8]report.PairKey
	for _, key := range r.set.decay(loc, r.cfg.DecayFactor, r.cfg.PruneProbability, buf[:0]) {
		r.stats.count[statPairsPrunedDecay].Add(1)
		r.tr.Emit(trace.KindPairPrunedDecay, 0, 0, key.A, key.B, at, 0)
	}
}

// locCover is one location's coverage record: existing at all means the
// location executed; the flag records whether it ever executed during a
// concurrent phase. Kept op-keyed (not site-keyed) so the public coverage
// counters stay op-distinct — an op can map to one site per kind.
type locCover struct {
	concurrent atomic.Bool
}

// markSeen updates the coverage counters for the access's site and op. The
// common fully-marked case is one lock-free load of the dense per-site flag
// table; every transition funnels through markSeenSlow, which arbitrates
// the public counters exactly once per op via the op-keyed record.
func (r *runtime) markSeen(site ids.SiteID, op ids.OpID, concurrent bool) {
	want := uint32(coverSeen)
	if concurrent {
		want |= coverConcurrent
	}
	if t := r.cover.Load(); t != nil && int(site) < len(*t) {
		if (*t)[site].Load()&want == want {
			return
		}
	}
	r.markSeenSlow(site, op, want)
}

func (r *runtime) markSeenSlow(site ids.SiteID, op ids.OpID, want uint32) {
	// Public counters first, op-keyed for exact op-distinct counting: the
	// insert and the one-way concurrent upgrade each arbitrate exactly one
	// increment regardless of how many sites the op maps to.
	c := r.covered.Get(int64(op))
	if c == nil {
		var created bool
		c, created = r.covered.GetOrInit(int64(op), nil)
		if created {
			r.stats.count[statLocationsSeen].Add(1)
		}
	}
	if want&coverConcurrent != 0 && !c.concurrent.Load() && c.concurrent.CompareAndSwap(false, true) {
		r.stats.count[statLocationsSeenConcurrent].Add(1)
	}
	// Then the dense fast-path flags. All stores (and growth) happen under
	// coverMu, so a grow-copy can never lose a concurrent flag transition;
	// the fast path only ever loads.
	r.coverMu.Lock()
	t := r.cover.Load()
	if t == nil || int(site) >= len(*t) {
		size := 64
		if t != nil {
			size = len(*t)
		}
		for size <= int(site) {
			size *= 2
		}
		nt := make(coverTable, size)
		if t != nil {
			for i := range *t {
				nt[i].Store((*t)[i].Load())
			}
		}
		r.cover.Store(&nt)
		t = &nt
	}
	(*t)[site].Store((*t)[site].Load() | want)
	r.coverMu.Unlock()
}

// snapshotStats materializes the public counters from the atomics, the
// per-thread tallies (a rejected call is counted by its countdown decrement:
// OnCalls = analysed + rejected), and the per-object publication counts of
// owner rings and read stripes (TSVD's admitted calls are counted by the
// publication CAS itself). It takes no lock: everything read here is atomic,
// so a live metrics scrape can snapshot a running detector without stalling
// any thread's OnCall traffic. Each analysed call is counted once, by a
// counter that never decreases, so a live OnCalls can only move back by what
// rejected says it may be off by.
func (r *runtime) snapshotStats() Stats {
	st := r.stats.snapshot()
	r.threads.Each(func(_ int64, ts *threadState) {
		out := ts.rejected()
		st.OnCalls += ts.onCalls.Load() + out
		st.CallsSampledOut += out
	})
	r.objs.Each(func(_ int64, os *objState) {
		st.OnCalls += int64(os.ring.pub.Load() &^ ringClosed)
		if rs := os.reads.Load(); rs != nil {
			for i := range rs.stripes {
				st.OnCalls += int64(rs.stripes[i].ring.pub.Load() &^ ringClosed)
			}
		}
	})
	return st
}

// atomicStats is the runtime's contention-free mirror of Stats: one atomic
// per StatCounters row, indexed by its stat, and one per gap-histogram
// bucket. The hot path never serializes on a statistics lock and Stats() can
// snapshot without stopping the world. Counters incremented from inside a
// racing OnCall are exact — atomics lose nothing — only the cross-counter
// consistency of a snapshot is relaxed. OnCalls and CallsSampledOut are
// counted in thread and object state instead (snapshotStats), so their slots
// stay zero.
type atomicStats struct {
	count [numStats]atomic.Int64
	gaps  [len(GapHistogram{})]atomic.Int64
}

// snapshot copies the atomics into the public Stats struct.
func (s *atomicStats) snapshot() Stats {
	var st Stats
	for i := range StatCounters {
		*StatCounters[i].In(&st) = s.count[i].Load()
	}
	for i := range st.NearMissGaps {
		st.NearMissGaps[i] = s.gaps[i].Load()
	}
	return st
}

// nearMiss records one near miss of a against an earlier access at op prev,
// gap apart (0 for TSVDHB, which proves concurrency by clocks rather than
// time windows): the counter, the Stats and metrics gap histograms and the
// event, which is stamped at (stamp). Every variant records a near miss
// through here and nowhere else.
func (r *runtime) nearMiss(a *Access, prev ids.OpID, at, gap time.Duration) {
	r.stats.count[statNearMisses].Add(1)
	r.stats.gaps[gapBucket(gap)].Add(1)
	r.met.observeGap(gap)
	r.tr.Emit(trace.KindNearMiss, a.Thread, a.Obj, prev, a.Op, r.stamp(at), gap)
}
