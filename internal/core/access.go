// Package core implements the TSVD detection algorithm (SOSP '19 §3) and the
// alternative designs it is evaluated against: the happens-before variant
// TSVDHB (§3.5), DynamicRandom (§3.2) and StaticRandom/DataCollider (§3.3).
//
// All variants share the trap framework of Figure 5: instrumented code calls
// OnCall immediately before every thread-unsafe API call; OnCall may park the
// calling thread ("set a trap") for a delay, and every other thread entering
// OnCall checks whether it conflicts with a currently set trap. A conflict —
// different threads, same object, at least one write — is a thread-safety
// violation caught red-handed, so reports have no false positives by
// construction.
//
// In the pipeline, core sits between the instrumented surface and the
// reporting layer: internal/collections (and anything rewritten by
// internal/instrument) funnels every thread-unsafe call into a Detector
// built by New from an internal/config.Config, identified by
// internal/ids tokens, timed by an internal/clock.Clock, and emitting
// internal/report violations.
//
// OnCall is the hot path and is deliberately near-contention-free: accesses
// carry dense interned site ids (internal/sites) so per-site state lives in
// plain arrays, per-object and per-thread state hang off lock-free
// integer-keyed registries, counters are per-thread or atomic, and only
// small cold-path locks (trap set, finished-delay log) are shared. An
// admitted conflict-free call stores to no cache line another thread reads:
// it records into a ring its thread owns — the object's fixed publication ring
// while the thread is the object's only user, its thread's stripe once the
// object is shared and only being read (objState.writer, readSet) — and its
// time into its thread's own state. Other threads read that time only when a
// near miss, or a site not yet seen concurrently, asks for the
// concurrent-phase verdict (§3.4.3, TSVD.concurrent), which is computed then
// from every thread's latest call and is exact under the clock's order but
// for a call whose clock read precedes it and whose store is not yet visible.
// docs/PERFORMANCE.md documents the cost model layer by layer.
package core

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/report"
	"repro/internal/sites"
	"repro/internal/trace"
)

// Kind classifies a thread-unsafe API as read or write, per the API list the
// instrumenter ships with (§4).
type Kind uint8

const (
	// KindRead may run concurrently with other reads.
	KindRead Kind = iota
	// KindWrite requires exclusive access.
	KindWrite
)

// Conflicts reports whether two access kinds violate the thread-safety
// contract when concurrent: at least one of them must be a write.
func Conflicts(a, b Kind) bool { return a == KindWrite || b == KindWrite }

// Access describes one instrumented thread-unsafe call: the (thread_id,
// obj_id, op_id) triple of §3.1 plus the interned site handle. It carries no
// strings — API metadata (class, method) lives in the detector's site
// registry, interned once at registration time, and is resolved back only
// when a report is built.
type Access struct {
	Thread ids.ThreadID
	Obj    ids.ObjectID
	Op     ids.OpID
	// Site is the dense handle of the interned (location, class, method,
	// kind) tuple, from the detector's sites.Registry. Every access carries
	// one: the detector does not resolve a site from Op.
	Site ids.SiteID
	Kind Kind
}

// Detector is the runtime interface instrumented programs call into.
//
// OnCall is the hot path, invoked before every thread-unsafe operation.
// The On{Fork,Join,Lock*} synchronization hooks exist only for the TSVDHB
// variant; TSVD deliberately ignores them — not needing synchronization
// monitoring is its core design point — and the default implementations are
// no-ops.
type Detector interface {
	// OnCall is invoked right before a thread-unsafe API call executes.
	// It may block the calling goroutine for an injected delay.
	OnCall(a Access)

	// OnFork records that parent spawned child.
	OnFork(parent, child ids.ThreadID)
	// OnJoin records that waiter observed done's completion.
	OnJoin(waiter, done ids.ThreadID)
	// OnLockAcquire records that t acquired lock.
	OnLockAcquire(t ids.ThreadID, lock ids.ObjectID)
	// OnLockRelease records that t released lock.
	OnLockRelease(t ids.ThreadID, lock ids.ObjectID)

	// Sites returns the detector's site registry — the intern table Access
	// site ids resolve through. Instrumentation prologues use it to intern
	// sites; report/trace serialization uses it to resolve metadata.
	Sites() *sites.Registry

	// Reports returns the violations collected so far.
	Reports() *report.Collector
	// Stats returns a snapshot of the detector's counters.
	Stats() Stats
	// ExportTraps returns the current dangerous-pair set for trap-file
	// persistence (§3.4.6), nil when it is empty.
	ExportTraps() []report.PairKey
	// Tracer returns the detector's event tracer, or nil when tracing is
	// disabled (config.Trace). The harness drains it after each module run;
	// see docs/OBSERVABILITY.md.
	Tracer() *trace.Tracer
}

// Stats are the counters the evaluation section reports: delay counts for
// Table 2, trap-set churn for understanding pruning, and coverage counters
// (§5.2 "Actionable Reports" mentions instrumentation-point coverage).
type Stats struct {
	// OnCalls counts instrumented calls observed.
	OnCalls int64
	// DelaysInjected counts injected delays (Table 2 "# delay").
	DelaysInjected int64
	// TotalDelay is the cumulative injected delay time.
	TotalDelay time.Duration
	// NearMisses counts dangerous-pair sightings (§3.4.2).
	NearMisses int64
	// PairsAdded counts unique pairs ever added to the trap set.
	PairsAdded int64
	// PairsPrunedHB counts pairs pruned by happens-before inference
	// (or analysis, for TSVDHB).
	PairsPrunedHB int64
	// PairsPrunedDecay counts pairs pruned by probability decay.
	PairsPrunedDecay int64
	// Violations counts dynamic violations (pre-dedup).
	Violations int64
	// LocationsSeen counts distinct static TSVD points executed.
	LocationsSeen int64
	// LocationsSeenConcurrent counts distinct TSVD points executed during
	// a concurrent phase (coverage statistics, §5.2).
	LocationsSeenConcurrent int64
	// SequentialSkips counts near-miss candidates discarded because the
	// program was in a sequential phase (§3.4.3).
	SequentialSkips int64
	// DelaysSkippedSequential counts delays not planned because the call's
	// phase was sequential (§3.4.3): the location was eligible and won its
	// coin flip.
	DelaysSkippedSequential int64
	// DelaysSkippedOccupied counts delays not injected because another
	// thread was parked on the call's object (TSVD and TSVDHB; one parked
	// thread per object, docs/ALGORITHM.md).
	DelaysSkippedOccupied int64
	// DelaysSkippedBudget counts delays not injected because the thread's
	// delay budget (config.Config.MaxDelayPerThread) was spent.
	DelaysSkippedBudget int64
	// CallsSampledOut counts instrumented calls the sampling gate skipped
	// before analysis (config.ModeSampled; docs/SAMPLING.md). Skipped calls
	// still count in OnCalls and are still checked against parked traps.
	CallsSampledOut int64
	// DelaysSuppressed counts delays observe-only mode vetoed — calls where
	// the detector decided to inject and recorded the trap logically but
	// did not sleep (config.ModeObserveOnly).
	DelaysSuppressed int64
	// SamplerThrottles counts adaptive-sampling controller runs that
	// adjusted the global admission probability (config.Config.OverheadTarget).
	SamplerThrottles int64
	// NearMissGaps is a log₂ histogram of the time gap between the two
	// sides of each near miss, in microseconds: bucket i counts gaps in
	// [2^i, 2^(i+1)) µs. It quantifies the coarse-interleaving-hypothesis
	// discussion of §6 (Snorlax observed 154–3505 µs windows).
	NearMissGaps GapHistogram
}

// Add folds o into s: every StatCounters row, then the gap histogram. Suite
// totals and the /metrics sums are built here (TestStatCountersCoverEveryField
// keeps the table complete).
func (s *Stats) Add(o Stats) {
	for i := range StatCounters {
		*StatCounters[i].In(s) += *StatCounters[i].In(&o)
	}
	s.NearMissGaps.Add(o.NearMissGaps)
}

// GapHistogram is a log₂-bucketed duration histogram (µs granularity).
type GapHistogram [20]int64

// gapBucket returns the log₂ bucket index for a gap (shared by the public
// histogram and the runtime's atomic mirror).
func gapBucket(d time.Duration) int {
	us := d.Microseconds()
	b := 0
	for us > 1 && b < len(GapHistogram{})-1 {
		us >>= 1
		b++
	}
	return b
}

// Observe adds one gap to the histogram.
func (h *GapHistogram) Observe(d time.Duration) {
	h[gapBucket(d)]++
}

// Add folds another histogram into h.
func (h *GapHistogram) Add(other GapHistogram) {
	for i := range h {
		h[i] += other[i]
	}
}

// Total counts all observations.
func (h GapHistogram) Total() int64 {
	var n int64
	for _, c := range h {
		n += c
	}
	return n
}

// String renders the non-empty buckets as "≥2^i µs: count" pairs.
func (h GapHistogram) String() string {
	var b []byte
	for i, c := range h {
		if c == 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, []byte(fmt.Sprintf("[%dµs,%dµs):%d", 1<<i, 1<<(i+1), c))...)
	}
	if len(b) == 0 {
		return "(empty)"
	}
	return string(b)
}

// Option configures a detector at construction.
type Option func(*options)

type options struct {
	clk          clock.Clock
	initialTraps []report.PairKey
	metrics      *DetectorMetrics
	shared       *SharedSampler
}

// WithClock substitutes the time source (tests use scaled clocks).
func WithClock(c clock.Clock) Option {
	return func(o *options) { o.clk = c }
}

// WithInitialTraps seeds the trap set from a previous run's trap file, so
// the second run can inject delays at pairs on their very first occurrence
// (§3.4.6 "Multiple testing runs"). New and Renew read pairs before they
// return and keep no reference to it.
func WithInitialTraps(pairs []report.PairKey) Option {
	return func(o *options) { o.initialTraps = pairs }
}

// WithDetectorMetrics attaches the detector to a live metrics view. One
// DetectorMetrics may be shared by many detectors (the harness attaches
// every module detector of a suite), in which case the exported series are
// the live sum across all of them. m may be nil (no-op).
func WithDetectorMetrics(m *DetectorMetrics) Option {
	return func(o *options) { o.metrics = m }
}

// New builds the detector selected by cfg.Algorithm: Renew(nil, cfg, opts...).
func New(cfg config.Config, opts ...Option) (Detector, error) {
	return Renew(nil, cfg, opts...)
}

// Renew builds the detector selected by cfg.Algorithm for another run. When
// prev is a detector of that variant, the new one is prev itself, rebuilt in
// place on the storage its last run allocated — its registries' tables and
// value chunks, the coverage table, the report collector, the trap set's
// maps, the coin-flip source and the tracer's rings, all emptied — and it
// behaves exactly as a new detector New(cfg, opts...) would: everything else
// starts from the zero value. Anything else as prev (nil, the Nop baseline,
// another variant) is left alone, and Renew builds a new detector.
//
// prev must be quiescent: no call into it may be in flight or still to come,
// and nothing obtained from it (its Reports collector, its Tracer, a Stats
// snapshot taken later) may be used after Renew returns. What its accessors
// returned before — Stats, Bugs, Violations, ExportTraps, drained events —
// are copies and stay valid. Its metrics view keeps what it counted (see
// DetectorMetrics).
func Renew(prev Detector, cfg config.Config, opts ...Option) (Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := options{clk: clock.Real{}}
	for _, opt := range opts {
		opt(&o)
	}
	switch cfg.Algorithm {
	case config.AlgoNop:
		return NewNop(), nil
	case config.AlgoTSVD:
		return renew[TSVD](prev, cfg, o), nil
	case config.AlgoTSVDHB:
		return renew[TSVDHB](prev, cfg, o), nil
	case config.AlgoDynamicRandom:
		return renew[DynamicRandom](prev, cfg, o), nil
	case config.AlgoStaticRandom:
		return renew[StaticRandom](prev, cfg, o), nil
	default:
		return nil, errUnknownAlgo
	}
}

// variant is a pointer to an analysing detector: a Detector on the shared
// runtime, whose zero value runtime.init makes ready.
type variant[T any] interface {
	*T
	Detector
	base() *detectorBase
}

// renew is Renew for the variant T: prev emptied and zeroed when it is a *T,
// a new T otherwise, then initialized on what prev's run allocated.
func renew[T any, P variant[T]](prev Detector, cfg config.Config, o options) P {
	var s storage
	d, _ := prev.(P)
	if d == nil {
		d = new(T)
	} else {
		d.base().rt.release(&s)
		*d = *new(T)
	}
	d.base().rt.init(cfg, o, &s)
	return d
}

type coreError string

func (e coreError) Error() string { return "core: " + string(e) }

var errUnknownAlgo = coreError("unknown algorithm")

// NopDetector ignores everything; it is the uninstrumented baseline used for
// overhead measurements.
type NopDetector struct {
	nopSyncHooks
	reports *report.Collector
	sites   *sites.Registry
}

// NewNop returns a detector that does nothing.
func NewNop() *NopDetector {
	return &NopDetector{reports: report.NewCollector(), sites: sites.New()}
}

// OnCall implements Detector.
func (*NopDetector) OnCall(Access) {}

// Sites implements Detector; the registry interns but drives nothing.
func (n *NopDetector) Sites() *sites.Registry { return n.sites }

// Reports implements Detector.
func (n *NopDetector) Reports() *report.Collector { return n.reports }

// Stats implements Detector.
func (*NopDetector) Stats() Stats { return Stats{} }

// ExportTraps implements Detector.
func (*NopDetector) ExportTraps() []report.PairKey { return nil }

// Tracer implements Detector; the baseline traces nothing.
func (*NopDetector) Tracer() *trace.Tracer { return nil }

// nopSyncHooks provides the no-op synchronization hooks that every variant
// but TSVDHB embeds: they are oblivious to synchronization by design.
type nopSyncHooks struct{}

func (nopSyncHooks) OnFork(parent, child ids.ThreadID)               {}
func (nopSyncHooks) OnJoin(waiter, done ids.ThreadID)                {}
func (nopSyncHooks) OnLockAcquire(t ids.ThreadID, lock ids.ObjectID) {}
func (nopSyncHooks) OnLockRelease(t ids.ThreadID, lock ids.ObjectID) {}
