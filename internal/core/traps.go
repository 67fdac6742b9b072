package core

import (
	"math"
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
	// either and records into reads. All transitions happen under mu; the
	// fast paths only load.
	writer atomic.Int64
	// reads holds what was read since the object last went read-shared,
	// allocated at the first promotion and kept.
	reads *readSet
	// retired counts admitted TSVD calls on this object that are no longer
	// represented by the ring's publication counter: shared-mode appends,
	// plus publications folded out by ring rotation and takeover.
	// snapshotStats sums retired + the live ring counts across objects —
	// the publication CAS doubles as the OnCalls counter, so the lock-free
	// path touches no separate statistics atomic.
	retired atomic.Int64
	// ring is TSVD's single-writer publication ring, in use exactly while
	// writer holds a thread id; closed and drained into hist at the takeover
	// by a second thread. It starts on the inline array, so an object costs
	// no allocation of its own until it outgrows it.
	ring   pubRing
	inline [inlineEntries]histEntry
	// The registry carves objStates side by side out of one chunk. A whole
	// number of cache lines each, padding last, keeps the fields of two
	// objects off one line (TestRegistryStatesOwnTheirCacheLines).
	_ [16]byte
}

// inlineEntries is the publication ring's capacity before it grows. 92 % of
// the objects of a generated suite receive exactly two accesses in their
// life (docs/PERFORMANCE.md, "Suite-level memory"); four entries hold those
// with room to spare and keep objState within four cache lines.
const inlineEntries = 4

// writerShared marks an object permanently in shared (mutex-protocol) mode.
// It is a value no thread id can take — not a goroutine id, and not the -1
// ids.CurrentThreadID returns when its parser fails: a thread whose id equals
// the sentinel would be taken for the owner of every shared object.
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

// readSet is a read-shared object's recent reads, one ring of the newest
// ObjHistory per stripe; between them they hold the newest ObjHistory of
// all. A reader locks its thread's stripe, re-checks writer under it and
// appends; recordSlow, holding os.mu, stores writerShared first and drains
// afterwards — so a read either is in the drain or sees the demotion and
// takes recordSlow itself.
type readSet struct {
	stripes [readStripes]struct {
		mu   spinMutex
		hist history
		_    [64 - 48]byte // a cache line a stripe
	}
}

func newReadSet(window int) *readSet {
	perStripe := (window + 1) &^ 1 // whole cache lines of 32-byte entries
	entries := make([]histEntry, readStripes*perStripe)
	rs := &readSet{}
	for i := range rs.stripes {
		rs.stripes[i].hist.entries = entries[i*perStripe:][:window:window]
	}
	return rs
}

// recordRead appends a read to its thread's stripe and counts the call on the
// thread's own state st, unless the object is not (or, once the stripe is
// locked, no longer) read-shared. It stores to nothing another stripe's
// reader loads. recordSlow tries it first, so that OnCall — the owner's path
// — is the same instructions with and without it.
func (os *objState) recordRead(st *threadState, e histEntry) bool {
	if e.kind != KindRead || os.writer.Load() != writerReadShared {
		return false
	}
	s := &os.reads.stripes[uint64(e.thread)%readStripes]
	s.mu.Lock()
	ok := os.writer.Load() == writerReadShared
	if ok {
		s.hist.add(e)
	}
	s.mu.Unlock()
	if ok {
		st.onCalls.Add(1)
	}
	return ok
}

// drainInto empties every stripe into h, oldest timestamp first, so that h
// ends up with the newest accesses exactly as if it had recorded them all.
// The caller holds os.mu and has already stored writerShared.
func (rs *readSet) drainInto(h *history) {
	for i := range rs.stripes {
		rs.stripes[i].mu.Lock()
	}
	var taken [readStripes]int
	for {
		var oldest *histEntry
		from := 0
		for i := range rs.stripes {
			if sh := &rs.stripes[i].hist; taken[i] < sh.len() {
				if e := sh.newest(sh.len() - 1 - taken[i]); oldest == nil || e.at < oldest.at {
					oldest, from = e, i
				}
			}
		}
		if oldest == nil {
			break
		}
		h.add(*oldest)
		taken[from]++
	}
	for i := range rs.stripes {
		rs.stripes[i].hist.next, rs.stripes[i].hist.full = 0, false
		rs.stripes[i].mu.Unlock()
	}
}

// noteWriterLocked updates the single-writer tracking for an access by tid
// and reports whether the ring scan must run (true once a second thread is
// involved). Caller holds os.mu. Used by the variants that record under the
// lock unconditionally (TSVDHB); TSVD's recordSlow has its own transition
// handling because it must also close and drain the publication ring.
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

// pubRing is the single-writer publication ring: an append-only entry array
// whose publication counter advances by one CAS per recorded access. The
// owning thread writes the entry with plain stores and publishes it with the
// CAS; any other party (takeover, rotation bookkeeping, statistics) reads the
// counter atomically and only ever touches entries strictly below it, so the
// owner's in-flight slot is never examined. Closing the ring (setting
// ringClosed via CAS under the object's mutex) makes every later publication
// CAS fail, which bounces the owner onto the mutex path — after which the
// entries below the closed count are immutable and safe to drain.
type pubRing struct {
	// pub is the number of published entries, with ringClosed or'ed in once
	// the ring is closed by a takeover.
	pub atomic.Uint64
	// base is the publication count already folded into objState.retired by
	// rotations; the ring's live contribution is pub&^ringClosed - base.
	base atomic.Int64
	// entries is written only by the owning thread, under the object's
	// mutex (growth); the owner reads it lock-free, a takeover under the
	// mutex.
	entries []histEntry
}

const ringClosed = uint64(1) << 63

// grownRingSize is the entry array a ring moves to when the inline one
// fills: rotations stay rare relative to the scan window — at least eight
// windows, at least 64 entries.
func grownRingSize(window int) int {
	return max(64, 8*window)
}

// threadState is one thread's detector state, created on first sighting and
// then owned by that thread: the plain fields are only ever read and written
// by the owning goroutine, the atomics are written by the owner and read by
// snapshot/metrics scrapes. Keeping the per-thread counters here — instead
// of on shared cache lines — is what makes the contended OnCall path scale:
// every thread bumps its own line.
type threadState struct {
	// onCalls counts this thread's analysed calls in the variants that do
	// not count them by ring publication, and TSVD's reads of read-shared
	// objects; sampledOut counts its calls the site stage rejected.
	// snapshotStats sums them across threads.
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
	// thread stays on one object (the common loop shape).
	cachedObj   ids.ObjectID
	cachedState *objState

	// nearKeys is recordSlow's result buffer: the near-miss pairs of the
	// call in flight, consumed by OnCall before the thread's next call. It
	// starts on nearBuf — a call rarely records more than one near miss, and
	// most threads are too short-lived to amortize a slice of their own.
	nearKeys []report.PairKey
	nearBuf  [4]report.PairKey

	// budget caps the total delay injected into this thread (§4, runtime
	// feature 2).
	budget clock.Budget

	// phase is this thread's half of the concurrent-phase detector
	// (phaseRing): its claim's standing and its run length.
	phase phaseLocal

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
// statistics and the report collector. Detector-specific
// state lives in the variant structs. There is no global lock and no hashing
// on the admitted fast path beyond two lock-free integer-keyed probes:
// per-object state hangs off a lock-free object registry, per-thread state
// (including the hot counters) off a thread registry, per-site state
// (coverage, sampler admission) is indexed directly by dense SiteIDs, and
// injected delays always sleep outside every lock so any number of traps can
// be parked concurrently (§3.4.6 "Parallel delay injection").
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
	// seeded from cfg.Seed by the first draw: most module runs never reach
	// a delay decision, and a source is 5 KiB.
	rngMu sync.Mutex
	rng   *rand.Rand

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

// ExportTraps implements Detector for the variants that keep no trap set;
// TSVD and TSVDHB export theirs.
func (b *detectorBase) ExportTraps() []report.PairKey { return nil }

// init prepares r in place. (runtime holds locks and atomics, so it is
// initialized through a pointer rather than returned by value.)
func (r *runtime) init(cfg config.Config, o options) {
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
	r.reports = report.NewCollector()
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
		r.tr = trace.New(cfg.TraceBufferSize)
	}
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
	st, _ := r.threads.GetOrInit(int64(t), func(st *threadState) {
		st.rng = sampler.SeedRand(r.cfg.Seed, int64(t))
		st.lastAccess = noAccessYet
		st.budget = clock.Budget{Max: r.maxDelay}
		st.nearKeys = st.nearBuf[:0]
	})
	return st
}

// noAccessYet is lastAccess's value before a thread's first admitted access:
// large enough that any gap computed against it is hugely negative (so HB
// inference rejects it), small enough that the arithmetic cannot overflow.
const noAccessYet = time.Duration(1) << 60

// objStateFor returns obj's state, creating it on first use. When st is the
// calling thread's state the lookup is cached there: a thread looping on one
// object (the common shape) pays two compares instead of a registry probe.
func (r *runtime) objStateFor(st *threadState, obj ids.ObjectID) *objState {
	if st != nil && st.cachedState != nil && st.cachedObj == obj {
		return st.cachedState
	}
	os, _ := r.objs.GetOrInit(int64(obj), initObjState)
	if st != nil {
		st.cachedObj, st.cachedState = obj, os
	}
	return os
}

// source returns the seeded source, building it on first use. Caller holds
// rngMu.
func (r *runtime) source() *rand.Rand {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.cfg.Seed))
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
		r.stats.violations.Add(1)
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

// anyTrapSet reports whether some thread is currently parked, without
// taking any lock. Used by the AvoidOverlappingDelays ablation.
func (r *runtime) anyTrapSet() bool { return r.parked.Load() > 0 }

// injectDelay parks the calling thread — whose state st is — in a trap for
// up to d (clipped by the thread's budget), sleeping outside every lock. It
// returns the nominal duration actually slept, whether a delay was injected
// at all, and whether it was productive (another thread ran into the trap).
// The caller holds no locks.
//
// The trap becomes visible to other threads only once it is registered
// under the object's lock; a conflicting access that scans strictly before
// registration completes simply misses this trap — a loss of one detection
// opportunity, never a false positive. The single-mutex runtime had the
// same property: its atomicity only extended until the sleeping thread
// dropped the lock.
func (r *runtime) injectDelay(st *threadState, a Access, d time.Duration) (slept time.Duration, injected, sprung bool) {
	// Observe-only mode (docs/SAMPLING.md): the detector went through its
	// whole decision — the pair is trapped, the coin flip passed — but no
	// thread sleeps. Counting the veto here, at the single funnel every
	// variant's delay goes through, is what makes the mode's "zero injected
	// delays" claim checkable: DelaysInjected stays 0 while
	// DelaysSuppressed counts the trap firings that would have happened.
	if r.mode == config.ModeObserveOnly {
		r.stats.delaysSuppressed.Add(1)
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
	t.depth = goruntime.Callers(1, t.pcs[:])
	os := r.objStateFor(nil, a.Obj)
	os.mu.Lock()
	os.traps = append(os.traps, t)
	os.mu.Unlock()
	r.parked.Add(1)
	r.stats.delaysInjected.Add(1)
	r.met.observeDelay(grant)
	r.tr.Emit(trace.KindTrapSet, a.Thread, a.Obj, a.Op, 0, r.now(), grant)

	slept, woken := r.clk.Sleep(grant, t.cancel)

	os.mu.Lock()
	r.unregisterTrap(os, t)
	os.mu.Unlock()
	r.parked.Add(-1)
	if woken && slept < grant {
		st.budget.Refund(grant - slept)
	}
	if slept > grant {
		slept = grant
	}
	r.stats.totalDelay.Add(int64(slept))
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
			r.stats.locationsSeen.Add(1)
		}
	}
	if want&coverConcurrent != 0 && !c.concurrent.Load() && c.concurrent.CompareAndSwap(false, true) {
		r.stats.locationsSeenConcurrent.Add(1)
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
// OnCalls = analysed + rejected), and the per-object publication counts
// (TSVD's admitted calls are counted by the ring publication CAS itself). It takes
// no lock: everything read here is atomic, so a live metrics scrape can
// snapshot a running detector without stalling any thread's OnCall traffic.
// A scrape racing a ring rotation or takeover can transiently misattribute
// a ring's worth of calls between retired and the live counter; at
// quiescence (which is when the exactness-asserting consumers read) the sum
// is exact.
func (r *runtime) snapshotStats() Stats {
	st := r.stats.snapshot()
	r.threads.Each(func(_ int64, ts *threadState) {
		out := ts.rejected()
		st.OnCalls += ts.onCalls.Load() + out
		st.CallsSampledOut += out
	})
	r.objs.Each(func(_ int64, os *objState) {
		st.OnCalls += os.retired.Load()
		// A closed ring's publications were folded into retired.
		if n := os.ring.pub.Load(); n&ringClosed == 0 {
			st.OnCalls += int64(n) - os.ring.base.Load()
		}
	})
	return st
}

// atomicStats is the runtime's contention-free mirror of Stats: every
// counter is an atomic, so the hot path never serializes on a statistics
// lock and Stats() can snapshot without stopping the world. Counters
// incremented from inside a racing OnCall are exact — atomics lose nothing
// — only the cross-counter consistency of a snapshot is relaxed.
type atomicStats struct {
	delaysInjected          atomic.Int64
	totalDelay              atomic.Int64 // nanoseconds
	nearMisses              atomic.Int64
	pairsAdded              atomic.Int64
	pairsPrunedHB           atomic.Int64
	pairsPrunedDecay        atomic.Int64
	violations              atomic.Int64
	locationsSeen           atomic.Int64
	locationsSeenConcurrent atomic.Int64
	sequentialSkips         atomic.Int64
	delaysSuppressed        atomic.Int64
	samplerThrottles        atomic.Int64
	nearMissGaps            [len(GapHistogram{})]atomic.Int64
}

// observeGap adds one near-miss gap to the histogram.
func (s *atomicStats) observeGap(d time.Duration) {
	s.nearMissGaps[gapBucket(d)].Add(1)
}

// snapshot copies the atomics into the public Stats struct.
func (s *atomicStats) snapshot() Stats {
	st := Stats{
		DelaysInjected:          s.delaysInjected.Load(),
		TotalDelay:              time.Duration(s.totalDelay.Load()),
		NearMisses:              s.nearMisses.Load(),
		PairsAdded:              s.pairsAdded.Load(),
		PairsPrunedHB:           s.pairsPrunedHB.Load(),
		PairsPrunedDecay:        s.pairsPrunedDecay.Load(),
		Violations:              s.violations.Load(),
		LocationsSeen:           s.locationsSeen.Load(),
		LocationsSeenConcurrent: s.locationsSeenConcurrent.Load(),
		SequentialSkips:         s.sequentialSkips.Load(),
		DelaysSuppressed:        s.delaysSuppressed.Load(),
		SamplerThrottles:        s.samplerThrottles.Load(),
	}
	for i := range st.NearMissGaps {
		st.NearMissGaps[i] = s.nearMissGaps[i].Load()
	}
	return st
}

// phaseRing is the concurrent-phase detector of §3.4.3. The paper keeps a
// ring of the thread ids at the last W TSVD points and calls the execution
// concurrent iff the ring holds two distinct ids; it also says the ring "need
// not be synchronized … TSVD only needs an approximate notion of concurrent
// phases". A ring every call writes is one cache line every thread bounces on
// every call, so this detector keeps the one question the ring answers — were
// the last W points all mine? — as a claim on a single word, and the run
// lengths in the calling thread's own phaseLocal:
//
//   - virgin: no call yet. The first thread claims the word and is sequential
//     from its first call.
//   - open: no claim stands. Every caller is in a concurrent phase and only
//     counts its own calls, thread-locally. A thread that has made claimAfter
//     = ⌈W/2⌉ calls since it last saw evidence of another thread CASes the
//     word to its claim.
//   - claimed by T: any other thread that loads the claim CASes it back to
//     open on that very call and is concurrent; T, finding its claim gone, is
//     concurrent too and starts counting again. A claim that has stood for W
//     of T's calls is the sequential verdict, and from then on T's check is
//     one load and one compare against its cached claim word, no store.
//
// The error is one-sided. Sequential is only reported when the last W points
// really were one thread's, because any foreign point breaks a standing
// claim; the switch to concurrent is immediate on the second thread's first
// call; but a lone thread is believed after up to W + ⌈W/2⌉ calls instead of
// W. In exchange both steady states are read-only on the shared word: two
// alternating threads change it about four times per W calls each, not twice
// per call. Racing observers can at worst report concurrent once too often.
type phaseRing struct {
	// window is W, claimAfter ⌈W/2⌉.
	window, claimAfter uint32
	// state is phaseVirgin, phaseOpen or a thread's claimWord.
	state atomic.Uint64
}

// The word's non-claim values. Neither is zero and a claim word never is, so
// a zero phaseLocal.seq matches no state.
const (
	phaseOpen   = 1
	phaseVirgin = 3
)

// claimWord is the state value that says t holds the claim: the id above a
// two-bit tag no other value carries. Ids are small counters; two threads 2⁶²
// apart sharing a word would only make the heuristic miss a switch.
func claimWord(t ids.ThreadID) uint64 { return uint64(t)<<2 | 2 }

// phaseLocal is one thread's half of the phase detector, owner-only.
type phaseLocal struct {
	// seq is the thread's claim word while its claim has stood for a whole
	// window, zero otherwise: OnCall's sequential check is state == seq.
	seq uint64
	// run counts the thread's calls under its standing claim while held, and
	// its calls since it last saw evidence of another thread otherwise.
	run  uint32
	held bool
}

func newPhaseRing(size int) *phaseRing {
	w := uint32(min(size, math.MaxInt32))
	p := &phaseRing{window: w, claimAfter: (w + 1) / 2}
	p.state.Store(phaseVirgin)
	return p
}

// observe records a call of t, whose local state l is, and reports whether
// the execution is in a concurrent phase. TSVD's OnCall open-codes the
// standing sequential verdict (state == l.seq) and calls this otherwise.
func (p *phaseRing) observe(l *phaseLocal, t ids.ThreadID) bool {
	mine := claimWord(t)
	s := p.state.Load()
	if s == phaseVirgin {
		if p.state.CompareAndSwap(phaseVirgin, mine) {
			*l = phaseLocal{seq: mine, run: p.window, held: true}
			return false
		}
		s = p.state.Load()
	}
	if s == mine {
		// The claim stands, so every point since it was made is this
		// thread's: run of them, the claiming call included.
		if l.run++; l.run >= p.window {
			l.seq = mine
			return false
		}
		return true
	}
	if s != phaseOpen || l.held {
		// Another thread was here. Either it broke our claim, or it holds one
		// itself and this call is the foreign point that ends it (a failed
		// CAS means a third thread already did).
		if s != phaseOpen {
			p.state.CompareAndSwap(s, phaseOpen)
		}
		*l = phaseLocal{}
		return true
	}
	if l.run++; l.run >= p.claimAfter {
		// A lost race for the claim is evidence of another thread too.
		*l = phaseLocal{}
		if p.state.CompareAndSwap(phaseOpen, mine) {
			l.run, l.held = 1, true
		}
	}
	return true
}
