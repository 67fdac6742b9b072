package core

import (
	"errors"
	"fmt"
	"sync"
	"time"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/sampler"
	"repro/internal/trace"
)

// DetectorMetrics exports live detector state into a metrics.Registry
// (docs/OBSERVABILITY.md, "Live metrics"). One DetectorMetrics can be
// attached to any number of detectors via WithDetectorMetrics — the harness
// attaches every module detector of a suite to one instance, so the
// registry's view is the suite-wide sum, live while modules are still
// running.
//
// A detector that Renew rebuilds stays attached once. Before its counters
// start again from zero, what they hold, its trace totals and its trap set's
// final size are folded into retired totals, under the lock every scrape
// holds from start to end: a series never decreases across a renew, and the
// view only holds the detectors still running, not every one that ran.
//
// Two export mechanisms, chosen per metric by what keeps the hot path free:
//
//   - Every Stats counter (and the parked/trap-set gauges) is exported as a
//     function-backed series reading the runtime's existing atomics at
//     scrape time. The hot path gains zero work, and the exported value
//     reconciles exactly against Detector.Stats by construction.
//   - The three histograms (near-miss gap, granted delay, trap-set
//     occupancy) have no pre-existing source, so they observe directly —
//     but only on detector *action* paths (a near miss, a granted delay, a
//     pair insertion), which are rare relative to OnCall volume and already
//     off the conflict-free fast path. Each Observe is a short bounds scan
//     plus three atomic adds, allocation-free.
//
// Exact-reconciliation contract (enforced by CheckCounters): the
// gap histogram's count equals Stats.NearMisses, the granted-delay
// histogram's count equals Stats.DelaysInjected, and the occupancy
// histogram's count equals Stats.PairsAdded — every increment of those
// counters is co-located with exactly one Observe.
type DetectorMetrics struct {
	gaps      *metrics.Histogram
	delays    *metrics.Histogram
	occupancy *metrics.Histogram

	mu sync.Mutex
	// live are the attached runtimes; retired is what the runtimes renewed
	// since counted before, and attached the number of attachments ever made.
	live     []*runtime
	retired  retired
	attached int
}

// retired holds the counts of finished runs that renewed runtimes no longer
// hold: their counters, their trace totals and their final trap-set sizes.
type retired struct {
	stats            Stats
	emitted, dropped int64
	pairs            int64
}

// stat indexes StatCounters and the runtime's counter array.
type stat int

const (
	statOnCalls stat = iota
	statDelaysInjected
	statTotalDelay
	statNearMisses
	statPairsAdded
	statPairsPrunedHB
	statPairsPrunedDecay
	statViolations
	statLocationsSeen
	statLocationsSeenConcurrent
	statSequentialSkips
	statDelaysSkippedSequential
	statDelaysSkippedOccupied
	statDelaysSkippedBudget
	statCallsSampledOut
	statDelaysSuppressed
	statSamplerThrottles
	numStats
)

// StatCounter is one Stats counter: the field it is, the series it is
// exported as, and the trace event kinds that count it.
type StatCounter struct {
	Series, Help string
	// Field is the counter's offset in a Stats (every counter is 64 bits
	// wide). An offset rather than an accessor function: a Stats handed to
	// an indirect call escapes to the heap, and Stats.Add and the runtime's
	// snapshot run once per module run.
	Field uintptr
	// Seconds marks a time.Duration counter, exported in seconds.
	Seconds bool
	// Mirrors are the event kinds emitted exactly once per unit of the
	// counter, so a loss-free trace holds exactly that many of each. A kind
	// several rows mirror is emitted once per unit of each: a trace holds
	// their sum (every delay_planned has one outcome).
	Mirrors []trace.Kind
}

// In returns the counter's field in s.
func (c *StatCounter) In(s *Stats) *int64 {
	return (*int64)(unsafe.Add(unsafe.Pointer(s), c.Field))
}

// Value reads the counter from s in its series' unit.
func (c *StatCounter) Value(s Stats) float64 {
	v := *c.In(&s)
	if c.Seconds {
		return time.Duration(v).Seconds()
	}
	return float64(v)
}

// StatCounters is the one place the detector's counter set is decided: Stats.Add
// sums these rows, the runtime counts into an array indexed by their stat,
// NewDetectorMetrics registers them, CheckCounters reconciles against them and
// Stats.TraceExpectations turns their Mirrors into a trace summary's expected
// counts. Adding a counter is a Stats field, a row and its increment sites.
var StatCounters = [numStats]StatCounter{
	statOnCalls: {Series: "tsvd_detector_on_calls_total",
		Help:  "Instrumented thread-unsafe calls observed.",
		Field: unsafe.Offsetof(Stats{}.OnCalls)},
	statDelaysInjected: {Series: "tsvd_detector_delays_injected_total",
		Help:    "Injected delays (trap set and slept).",
		Field:   unsafe.Offsetof(Stats{}.DelaysInjected),
		Mirrors: []trace.Kind{trace.KindTrapSet, trace.KindDelayInjected, trace.KindDelayPlanned}},
	statTotalDelay: {Series: "tsvd_detector_delay_seconds_total",
		Help:    "Cumulative injected delay time.",
		Field:   unsafe.Offsetof(Stats{}.TotalDelay),
		Seconds: true},
	statNearMisses: {Series: "tsvd_detector_near_misses_total",
		Help:    "Dangerous-pair sightings within the near-miss window.",
		Field:   unsafe.Offsetof(Stats{}.NearMisses),
		Mirrors: []trace.Kind{trace.KindNearMiss}},
	statPairsAdded: {Series: "tsvd_detector_pairs_added_total",
		Help:    "Unique pairs ever added to the trap set.",
		Field:   unsafe.Offsetof(Stats{}.PairsAdded),
		Mirrors: []trace.Kind{trace.KindPairAdded}},
	statPairsPrunedHB: {Series: "tsvd_detector_pairs_pruned_hb_total",
		Help:    "Pairs pruned by happens-before inference or analysis.",
		Field:   unsafe.Offsetof(Stats{}.PairsPrunedHB),
		Mirrors: []trace.Kind{trace.KindPairPrunedHB}},
	statPairsPrunedDecay: {Series: "tsvd_detector_pairs_pruned_decay_total",
		Help:    "Pairs pruned by probability decay.",
		Field:   unsafe.Offsetof(Stats{}.PairsPrunedDecay),
		Mirrors: []trace.Kind{trace.KindPairPrunedDecay}},
	statViolations: {Series: "tsvd_detector_violations_total",
		Help:    "Thread-safety violations caught red-handed (pre-dedup).",
		Field:   unsafe.Offsetof(Stats{}.Violations),
		Mirrors: []trace.Kind{trace.KindTrapSprung}},
	statLocationsSeen: {Series: "tsvd_detector_locations_seen_total",
		Help:  "Distinct static TSVD points executed.",
		Field: unsafe.Offsetof(Stats{}.LocationsSeen)},
	statLocationsSeenConcurrent: {Series: "tsvd_detector_locations_seen_concurrent_total",
		Help:  "Distinct TSVD points executed during a concurrent phase.",
		Field: unsafe.Offsetof(Stats{}.LocationsSeenConcurrent)},
	statSequentialSkips: {Series: "tsvd_detector_sequential_skips_total",
		Help:  "Near-miss candidates discarded in sequential phases.",
		Field: unsafe.Offsetof(Stats{}.SequentialSkips)},
	statDelaysSkippedSequential: {Series: "tsvd_detector_delays_skipped_sequential_total",
		Help:  "Delays not planned because the call's phase was sequential.",
		Field: unsafe.Offsetof(Stats{}.DelaysSkippedSequential)},
	statDelaysSkippedOccupied: {Series: "tsvd_detector_delays_skipped_occupied_total",
		Help:    "Delays not injected because another thread was parked on the call's object.",
		Field:   unsafe.Offsetof(Stats{}.DelaysSkippedOccupied),
		Mirrors: []trace.Kind{trace.KindDelayPlanned}},
	statDelaysSkippedBudget: {Series: "tsvd_detector_delays_skipped_budget_total",
		Help:    "Delays not injected because the thread's delay budget was spent.",
		Field:   unsafe.Offsetof(Stats{}.DelaysSkippedBudget),
		Mirrors: []trace.Kind{trace.KindDelayPlanned}},
	statCallsSampledOut: {Series: "tsvd_sampler_calls_sampled_out_total",
		Help:  "Instrumented calls skipped by the sampling gate (ModeSampled).",
		Field: unsafe.Offsetof(Stats{}.CallsSampledOut)},
	statDelaysSuppressed: {Series: "tsvd_sampler_delays_suppressed_total",
		Help:    "Delays vetoed by observe-only mode (logical trap firings).",
		Field:   unsafe.Offsetof(Stats{}.DelaysSuppressed),
		Mirrors: []trace.Kind{trace.KindDelaySuppressed, trace.KindDelayPlanned}},
	statSamplerThrottles: {Series: "tsvd_sampler_throttles_total",
		Help:    "Adaptive-sampling controller adjustments toward the overhead target.",
		Field:   unsafe.Offsetof(Stats{}.SamplerThrottles),
		Mirrors: []trace.Kind{trace.KindSamplerThrottle}},
}

// TraceExpectations returns the count s gives each event kind StatCounters
// rows mirror, summed over the rows: the detector's half of a trace summary's
// expectations (trace.Summary.Expected).
func (s Stats) TraceExpectations() map[string]int64 {
	want := map[string]int64{}
	for i := range StatCounters {
		c := &StatCounters[i]
		for _, k := range c.Mirrors {
			want[k.String()] += *c.In(&s)
		}
	}
	return want
}

// CheckCounters reconciles a scrape against st exactly: every StatCounters
// series, and the three histogram counts that are co-located with a counter
// by contract. The exposition format round-trips float64 exactly and every
// value is summed from the same int64s, so there is no tolerance — a
// mismatch, however small, means a counting path diverged. All mismatches
// are reported, not just the first.
func CheckCounters(scraped map[string]float64, st Stats) error {
	var errs []error
	check := func(series string, want float64) {
		if got := scraped[series]; got != want {
			errs = append(errs, fmt.Errorf("%s = %v, Stats say %v", series, got, want))
		}
	}
	for i := range StatCounters {
		check(StatCounters[i].Series, StatCounters[i].Value(st))
	}
	check("tsvd_detector_near_miss_gap_seconds_count", float64(st.NearMisses))
	check("tsvd_detector_granted_delay_seconds_count", float64(st.DelaysInjected))
	check("tsvd_detector_trap_set_occupancy_pairs_count", float64(st.PairsAdded))
	return errors.Join(errs...)
}

// NewDetectorMetrics registers the detector metric family on reg and returns
// the instance to attach with WithDetectorMetrics. reg may be nil, in which
// case every exported series is dropped and the histograms are nil (their
// Observe hooks become no-ops) — "metrics off" costs nothing.
func NewDetectorMetrics(reg *metrics.Registry) *DetectorMetrics {
	m := &DetectorMetrics{
		// Powers-of-two µs from 1µs to ~524ms, mirroring Stats.NearMissGaps
		// (§6 discusses 154–3505µs observed windows; the range brackets it).
		gaps: reg.Histogram("tsvd_detector_near_miss_gap_seconds",
			"Time gap between the two sides of each near miss.",
			1e-9, metrics.ExpBounds(int64(time.Microsecond), 2, 20)),
		// Granted delays scale with Config.DelayTime (100ms unscaled):
		// 100µs up to ~3.3s covers every TimeScale the suite uses.
		delays: reg.Histogram("tsvd_detector_granted_delay_seconds",
			"Delay durations granted by the per-thread budget at injection.",
			1e-9, metrics.ExpBounds(int64(100*time.Microsecond), 2, 15)),
		occupancy: reg.Histogram("tsvd_detector_trap_set_occupancy_pairs",
			"Trap-set size observed at each pair insertion.",
			1, metrics.ExpBounds(1, 2, 11)),
	}
	for i := range StatCounters {
		c := &StatCounters[i]
		reg.CounterFunc(c.Series, c.Help, func() float64 { return c.Value(m.sum()) })
	}
	reg.CounterFunc("tsvd_trace_emitted_total",
		"Trace events accepted into the per-detector ring buffers.",
		func() float64 { e, _ := m.traceTotals(); return float64(e) })
	reg.CounterFunc("tsvd_trace_dropped_total",
		"Trace events lost to ring overflow (non-zero corrupts explanation slices; see docs/OBSERVABILITY.md).",
		func() float64 { _, d := m.traceTotals(); return float64(d) })
	reg.GaugeFunc("tsvd_sampler_probability",
		"Minimum current global admission probability across attached sampled-mode detectors (1 when none).",
		func() float64 { return m.samplerProbability() })
	// The overhead series read the accumulators the controller steers on —
	// there is no second account to drift from the first.
	reg.GaugeFunc("tsvd_overhead_ratio",
		"Overhead the sampling controller observed over its last interval: time charged (floor included) per unit of wall time; the highest across attached samplers.",
		func() float64 { return m.overhead(func(a sampler.Adjustment) float64 { return a.Observed }) })
	reg.GaugeFunc("tsvd_overhead_floor_ratio",
		"The part of tsvd_overhead_ratio that rejected calls cost; at or above the target, no admission probability can meet it.",
		func() float64 { return m.overhead(func(a sampler.Adjustment) float64 { return a.Floor }) })
	for l := sampler.Layer(0); l < sampler.NumLayers; l++ {
		reg.CounterFunc("tsvd_overhead_seconds_total",
			"Time charged to the sampled tier's overhead account, by what it paid for.",
			func() float64 { return m.overheadSeconds(l) },
			metrics.Label{Name: "layer", Value: l.String()})
	}
	reg.GaugeFunc("tsvd_detector_parked_threads",
		"Threads currently parked in an injected delay.",
		func() float64 { return float64(m.parked()) })
	reg.GaugeFunc("tsvd_detector_trap_set_pairs",
		"Live dangerous pairs across attached trap sets.",
		func() float64 { return float64(m.trapSetPairs()) })
	reg.GaugeFunc("tsvd_detector_instances",
		"Detector instances attached to this registry.",
		func() float64 { return float64(m.instances()) })
	return m
}

// attach registers a detector's runtime for the scrape-time sums. Called by
// runtime.init; nil-safe.
func (m *DetectorMetrics) attach(r *runtime) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.live = append(m.live, r)
	m.attached++
}

// retire folds what r counted and its trap set's size into the retired
// totals and lets go of r, in one step under m.mu, so a scrape sees r's counts
// exactly once whichever side of the step it runs on. Called by
// runtime.release before it empties r, which is quiescent; nil-safe.
func (m *DetectorMetrics) retire(r *runtime) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retired.stats.Add(r.snapshotStats())
	t := r.tr.Totals()
	m.retired.emitted += t.Emitted
	m.retired.dropped += t.Dropped
	m.retired.pairs += int64(r.set.size())
	for i, a := range m.live {
		if a == r {
			m.live = append(m.live[:i], m.live[i+1:]...)
			break
		}
	}
}

// sum adds the attached runtimes' counters to the retired ones.
// Scrape-time only; snapshotStats is lock-free, so a scrape never blocks a
// running detector, and holding m.mu throughout keeps a renew from moving
// counts between the retired totals and a runtime while it reads.
func (m *DetectorMetrics) sum() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.retired.stats
	for _, r := range m.live {
		out.Add(r.snapshotStats())
	}
	return out
}

// samplerProbability reports the lowest current admission probability among
// attached sampled-mode detectors — the most-throttled view, which is the
// one an operator watching an overhead SLO cares about. 1 when no attached
// detector samples.
func (m *DetectorMetrics) samplerProbability() float64 {
	p := 1.0
	for _, s := range m.samplers() {
		if s.Probability < p {
			p = s.Probability
		}
	}
	return p
}

// samplers snapshots every distinct sampler behind the attached detectors
// (the detectors of one harness run share one).
func (m *DetectorMetrics) samplers() []sampler.Snapshot {
	m.mu.Lock()
	seen := map[*sampler.Sampler]bool{}
	for _, r := range m.live {
		if r.samp != nil {
			seen[r.samp] = true
		}
	}
	m.mu.Unlock()
	out := make([]sampler.Snapshot, 0, len(seen))
	for s := range seen {
		out = append(out, s.Snapshot())
	}
	return out
}

// overhead reports the highest value of one field of the controllers' last
// adjustments — the sampler furthest over budget. 0 when none has ticked.
func (m *DetectorMetrics) overhead(field func(sampler.Adjustment) float64) float64 {
	var worst float64
	for _, s := range m.samplers() {
		if v := field(s.Last); v > worst {
			worst = v
		}
	}
	return worst
}

// overheadSeconds sums one layer of the attached samplers' accounts.
func (m *DetectorMetrics) overheadSeconds(l sampler.Layer) float64 {
	var total time.Duration
	for _, s := range m.samplers() {
		total += s.Layers[l]
	}
	return total.Seconds()
}

// traceTotals sums the attached tracers' cumulative emit/drop counters and
// the retired ones. Detectors without tracing attach a nil tracer, whose
// Totals are zero.
func (m *DetectorMetrics) traceTotals() (emitted, dropped int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	emitted, dropped = m.retired.emitted, m.retired.dropped
	for _, r := range m.live {
		t := r.tr.Totals()
		emitted += t.Emitted
		dropped += t.Dropped
	}
	return emitted, dropped
}

func (m *DetectorMetrics) parked() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, r := range m.live {
		n += r.parked.Load()
	}
	return n
}

// trapSetPairs sums the live pairs of every trap set attached: the running
// detectors' current sets and the final sets of the runs renewed since.
func (m *DetectorMetrics) trapSetPairs() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.retired.pairs
	for _, r := range m.live {
		n += int64(r.set.size())
	}
	return n
}

// instances counts attachments: a renewed detector counts once per run.
func (m *DetectorMetrics) instances() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.attached
}

// observeGap records one near-miss gap (0 for TSVDHB, which proves
// concurrency by clocks rather than time windows). Nil-safe; called by
// runtime.nearMiss only.
func (m *DetectorMetrics) observeGap(d time.Duration) {
	if m == nil {
		return
	}
	m.gaps.Observe(int64(d))
}

// observeDelay records one granted delay. Nil-safe; co-located with every
// stats.delaysInjected increment.
func (m *DetectorMetrics) observeDelay(d time.Duration) {
	if m == nil {
		return
	}
	m.delays.Observe(int64(d))
}

// observeOccupancy records the trap-set size right after a pair insertion.
// Nil-safe; co-located with every stats.pairsAdded increment.
func (m *DetectorMetrics) observeOccupancy(pairs int) {
	if m == nil {
		return
	}
	m.occupancy.Observe(int64(pairs))
}
