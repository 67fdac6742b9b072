// Package trace is the detector runtime's event-level observability layer.
// The aggregate counters in core.Stats say *how many* delays were injected or
// pairs pruned; the tracer records *which* — every planned/injected/productive
// delay, every near miss with its gap, every trap set and sprung, every HB
// edge and every prune — as fixed-size structured events in striped
// ring buffers, with zero allocation at the emission site.
//
// Design constraints, in order:
//
//  1. The OnCall hot path must not regress. Events are only emitted on
//     detector *actions* (near miss, delay, prune, violation), which are rare
//     relative to OnCalls; the conflict-free fast path crosses no emission
//     point at all. Emission itself writes scalars into a preallocated slot
//     under a striped leaf mutex — no allocation, no channel, no I/O.
//  2. Accounting is exact, including under the race detector: every event is
//     either drained or counted as dropped, never silently lost
//     (emitted == drained + dropped + buffered is a checked invariant).
//  3. The buffers are bounded. When a ring is full the oldest event is
//     overwritten and the drop is counted, so a tracer can run unattended
//     without growing; callers that need loss-free traces size the buffer
//     (config.TraceBufferSize) and drain once per module run, as the harness
//     does.
//
// Post-run, Drain empties the buffers; WriteJSONL serializes events one JSON
// object per line, and Aggregate folds them into a per-location metrics
// table. docs/OBSERVABILITY.md documents the schema and the workflow.
package trace

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/ids"
)

// Kind identifies what happened. The set mirrors the decisions §3.4 describes
// and maps one-to-one onto the core.Stats counters where one exists, so a
// drained trace reconciles exactly with the aggregate statistics; the
// Mirrors of core.StatCounters decide which kind mirrors which counter.
type Kind uint8

const (
	// KindUnknown is the zero Kind; it never appears in a drained trace.
	KindUnknown Kind = iota
	// KindDelayPlanned: should_delay fired — the location participates in a
	// live dangerous pair and passed its probability coin flip (§3.4.1).
	// OpA is the location. Every plan has one outcome: its count equals
	// Stats.DelaysInjected + DelaysSuppressed + DelaysSkippedOccupied +
	// DelaysSkippedBudget.
	KindDelayPlanned
	// KindTrapSet: a trap was registered and the thread parked (Figure 5
	// "set trap"). OpA is the location, Dur the granted delay. Count equals
	// Stats.DelaysInjected.
	KindTrapSet
	// KindDelayInjected: the parked thread woke and unregistered its trap.
	// OpA is the location, Dur the time actually slept. Count equals
	// Stats.DelaysInjected (every set trap finishes its sleep).
	KindDelayInjected
	// KindDelayProductive: the delay ended with the trap's conflict flag
	// set — it exposed a violation (§3.4.5 "productive"). OpA is the
	// location, Dur the time slept. Subset of KindDelayInjected.
	KindDelayProductive
	// KindTrapSprung: an access ran into a conflicting parked trap — a
	// violation caught red-handed. OpA is the trapped location, OpB the
	// conflicting one. Count equals Stats.Violations.
	KindTrapSprung
	// KindNearMiss: two conflicting accesses from different threads within
	// the near-miss window (§3.4.2). OpA is the earlier location, OpB the
	// later, Dur the gap. Count equals Stats.NearMisses.
	KindNearMiss
	// KindPairAdded: a dangerous pair entered the trap set. Count equals
	// Stats.PairsAdded.
	KindPairAdded
	// KindHBEdge: HB inference attributed an inter-access gap (or a k_hb
	// inheritance window) to an injected delay (§3.4.4). OpA is the delayed
	// location, OpB the blocked one. No Stats counterpart: an edge over an
	// already-suppressed or self pair prunes nothing.
	KindHBEdge
	// KindPairPrunedHB: a pair left the trap set (TSVD) or was rejected as a
	// candidate (TSVDHB) because the accesses are happens-before ordered.
	// Count equals Stats.PairsPrunedHB.
	KindPairPrunedHB
	// KindPairPrunedDecay: a pair was suppressed because a location's delay
	// probability decayed below the prune threshold (§3.4.5). Count equals
	// Stats.PairsPrunedDecay.
	KindPairPrunedDecay
	// KindStoreFetch: a trap store served a snapshot of the shared
	// dangerous-pair set (fleet mode, §3.4.6 across shards). OpA is the
	// store's interned endpoint key, Dur the request duration. Count equals
	// the store's Totals().Fetches.
	KindStoreFetch
	// KindStorePublish: a run's dangerous pairs were published to a trap
	// store. OpA is the store's interned endpoint key, Dur the request
	// duration. Count equals the store's Totals().Publishes.
	KindStorePublish
	// KindStoreFallback: the primary (remote) trap store was unreachable and
	// the operation degraded to the local store. OpA is the primary store's
	// interned endpoint key. Count equals the store's Totals().Fallbacks.
	KindStoreFallback
	// KindDelaySuppressed: observe-only mode vetoed a delay the detector
	// would otherwise have injected — a "logical trap firing"
	// (docs/SAMPLING.md). OpA is the location, Dur the delay that was not
	// slept. Count equals Stats.DelaysSuppressed.
	KindDelaySuppressed
	// KindSamplerThrottle: the sampling controller adjusted the global
	// admission probability toward the overhead target. OpA is the interned
	// "sampler" pseudo-location, Dur the detection time spent during the
	// interval. Count equals Stats.SamplerThrottles. Per-call sampled-out
	// skips are deliberately counter-only (Stats.CallsSampledOut) — emitting
	// an event per skipped call would defeat the point of sampling.
	KindSamplerThrottle

	numKinds
)

var kindNames = [numKinds]string{
	KindUnknown:         "unknown",
	KindDelayPlanned:    "delay_planned",
	KindTrapSet:         "trap_set",
	KindDelayInjected:   "delay_injected",
	KindDelayProductive: "delay_productive",
	KindTrapSprung:      "trap_sprung",
	KindNearMiss:        "near_miss",
	KindPairAdded:       "pair_added",
	KindHBEdge:          "hb_edge",
	KindPairPrunedHB:    "pair_pruned_hb",
	KindPairPrunedDecay: "pair_pruned_decay",
	KindStoreFetch:      "store_fetch",
	KindStorePublish:    "store_publish",
	KindStoreFallback:   "store_fallback",
	KindDelaySuppressed: "delay_suppressed",
	KindSamplerThrottle: "sampler_throttle",
}

// String returns the snake_case wire name used in the JSONL schema.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts String; it returns KindUnknown, false for names
// outside the schema.
func KindFromString(s string) (Kind, bool) {
	for k, name := range kindNames {
		if Kind(k) != KindUnknown && name == s {
			return Kind(k), true
		}
	}
	return KindUnknown, false
}

// Event is one detector event. It is a fixed-size scalar-only struct so a
// ring slot can be overwritten in place: emission allocates nothing and an
// Event never retains heap memory.
type Event struct {
	Kind   Kind
	Thread ids.ThreadID
	Obj    ids.ObjectID
	// OpA is the primary location; OpB the partner location for pair-shaped
	// events (near miss, pair added/pruned, trap sprung, HB edge) and zero
	// otherwise.
	OpA, OpB ids.OpID
	// At is the emission time relative to detector start.
	At time.Duration
	// Dur is kind-specific: the near-miss gap, the granted or slept delay.
	Dur time.Duration
	// seq orders events across stripes in Drain; stripes are drained
	// atomically but independently, so At alone (coarse clocks, equal
	// timestamps) cannot reconstruct a stable interleaving.
	seq uint64
}

// ring is one stripe: a bounded circular buffer plus its accounting, all
// under one leaf mutex. Padding keeps neighbouring stripe locks off a shared
// cache line, mirroring the detector's shards.
type ring struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest buffered event
	count   int // buffered events
	emitted int64
	dropped int64
	_       [64]byte
}

// Tracer records events into stripes selected by thread id. The zero-value
// *Tracer (nil) is a valid disabled tracer: every method is nil-safe, so
// call sites need no separate enabled flag.
type Tracer struct {
	rings []ring
	shift uint
}

// DefaultBufferSize is the per-detector event capacity used when the
// TraceBufferSize knob is zero: large enough to hold a generated module's
// full run loss-free (a module run emits hundreds of events, not tens of
// thousands) while costing ~4 MB per traced detector.
const DefaultBufferSize = 1 << 16

// New returns a tracer with capacity total event slots, split across
// a power-of-two number of stripes derived from GOMAXPROCS. capacity <= 0
// selects DefaultBufferSize.
func New(capacity int) *Tracer {
	stripes, per := shape(capacity)
	shift := uint(64)
	for m := stripes; m > 1; m >>= 1 {
		shift--
	}
	t := &Tracer{rings: make([]ring, stripes), shift: shift}
	for i := range t.rings {
		t.rings[i].buf = make([]Event, per)
	}
	return t
}

// shape is the number of stripes New(capacity) makes and the slots of each.
func shape(capacity int) (stripes, per int) {
	if capacity <= 0 {
		capacity = DefaultBufferSize
	}
	stripes = 1
	for stripes < runtime.GOMAXPROCS(0) && stripes < 32 {
		stripes <<= 1
	}
	return stripes, max(capacity, stripes) / stripes
}

// Reuse returns t emptied — no events buffered, every total zero — if it has
// the stripes and slots New(capacity) would give, and New(capacity)
// otherwise. t may be nil, and must not be in use; the events a Drain
// returned are copies and stay as they were.
func Reuse(t *Tracer, capacity int) *Tracer {
	if stripes, per := shape(capacity); t == nil || len(t.rings) != stripes || len(t.rings[0].buf) != per {
		return New(capacity)
	}
	for i := range t.rings {
		r := &t.rings[i]
		r.start, r.count, r.emitted, r.dropped = 0, 0, 0, 0
	}
	return t
}

// Capacity returns the total number of event slots.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.rings) * len(t.rings[0].buf)
}

// ringFor stripes by thread id so concurrently emitting threads rarely share
// a lock; the Fibonacci hash matches the detector's shard selection.
func (t *Tracer) ringFor(thread ids.ThreadID) *ring {
	return &t.rings[(uint64(thread)*0x9E3779B97F4A7C15)>>t.shift]
}

// Emit records one event. It is the only function on the detector's action
// paths: no allocation, no I/O, one striped leaf mutex. Safe on a nil
// tracer (tracing disabled) and from any number of goroutines.
func (t *Tracer) Emit(k Kind, thread ids.ThreadID, obj ids.ObjectID, opA, opB ids.OpID, at, dur time.Duration) {
	if t == nil {
		return
	}
	r := t.ringFor(thread)
	r.mu.Lock()
	r.emitted++
	e := Event{
		Kind: k, Thread: thread, Obj: obj, OpA: opA, OpB: opB,
		At: at, Dur: dur,
		seq: uint64(r.emitted),
	}
	if r.count < len(r.buf) {
		r.buf[(r.start+r.count)%len(r.buf)] = e
		r.count++
	} else {
		// Full: overwrite the oldest event and account the loss.
		r.buf[r.start] = e
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	}
	r.mu.Unlock()
}

// Drain removes and returns every buffered event, ordered by emission time
// (per-stripe sequence as tiebreak). It may run concurrently with Emit; each
// stripe is emptied atomically. Nil-safe.
func (t *Tracer) Drain() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.rings {
		r := &t.rings[i]
		r.mu.Lock()
		for j := 0; j < r.count; j++ {
			out = append(out, r.buf[(r.start+j)%len(r.buf)])
		}
		r.start, r.count = 0, 0
		r.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// Totals is the tracer's loss accounting. At any quiescent point (no Emit in
// flight) Emitted == Dropped + Buffered + (events returned by past Drains);
// after a final Drain, Emitted == Dropped + total drained.
type Totals struct {
	Emitted  int64
	Dropped  int64
	Buffered int64
}

// Totals snapshots the accounting across all stripes. Nil-safe.
func (t *Tracer) Totals() Totals {
	var tot Totals
	if t == nil {
		return tot
	}
	for i := range t.rings {
		r := &t.rings[i]
		r.mu.Lock()
		tot.Emitted += r.emitted
		tot.Dropped += r.dropped
		tot.Buffered += int64(r.count)
		r.mu.Unlock()
	}
	return tot
}

// ModuleTrace is one module run's drained trace, the unit the harness
// aggregates into an Outcome.
type ModuleTrace struct {
	// Module is the workload module name; Run the 1-based run number.
	Module string
	Run    int
	Events []Event
	// Emitted and Dropped are the tracer's accounting at drain time.
	Emitted int64
	Dropped int64
}

// CountByKind tallies events per kind name across module traces: a
// summary's by_kind.
func CountByKind(mods []ModuleTrace) map[string]int64 {
	out := map[string]int64{}
	for _, m := range mods {
		for _, e := range m.Events {
			out[e.Kind.String()]++
		}
	}
	return out
}
