// Package sampler implements the production sampling tier in front of the
// detector (docs/SAMPLING.md): probabilistic admission with an adaptive
// overhead budget.
//
// Admission is a two-stage thinning, so that a rejected call never has to
// know its call site. Stage one runs before identity: NextGap draws, from the
// global probability p, how many calls a goroutine rejects before the next
// one goes on (a geometric gap, so each call is still admitted independently
// with probability p) — the detector turns that into a per-goroutine
// countdown. Stage two, AdmitSite, runs on the survivors, which have bought
// their call site: the site's threshold admits at sp/p, so a site's overall
// admission probability is exactly the sp the controller assigned it. Admit
// is the one-shot form of the same decision for callers that present every
// call with its site. All draws take a caller-supplied xorshift random — no
// shared RNG, no mutex.
//
// When an overhead target is configured the sampler is a measured closed
// loop: the detector charges what every call costs, by layer (Observe: the
// floor rejected calls pay, the identity and analysis admitted calls pay,
// injected delay), and Tick periodically compares the spend rate against
// the target, steering p with a multiplicative EWMA-smoothed controller. A
// per-interval clock.Budget backs the controller with a hard cap on what
// admission adds on top of the floor — if a burst spends the interval's
// entire allowance before the next tick, admission stops outright until the
// controller runs again. Per-site fairness keeps one hot call site from
// monopolizing the budget: sites whose estimated per-interval call count
// exceeds the mean get proportionally lower thresholds, flattening coverage
// across the program the way per-site sampling in the race-detection
// literature preserves recall.
//
// All time is passed in by the caller, so the controller is fully
// deterministic under test.
package sampler

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/ids"
)

// thresholdBits is the fixed-point resolution of admission thresholds: a
// probability p maps to p·2^53, compared against the top 53 bits of a
// 64-bit random. 53 bits keeps the mapping exact for every float64 in [0,1].
const thresholdBits = 53

// minProbability is the floor the controller will not throttle below, so a
// misconfigured target can never silence detection entirely.
const minProbability = 1e-4

// ewmaAlpha is the smoothing weight of the newest overhead observation.
const ewmaAlpha = 0.5

// maxStepRatio bounds how much one tick may scale the global probability in
// either direction, keeping the control loop stable under bursty load.
const maxStepRatio = 2.0

// MaxSkip bounds one stage-one gap, and with it how stale a goroutine's
// countdown can be: a gap drawn before a tick changed p runs out within
// MaxSkip calls. A geometric draw that exceeds it is cut there and redrawn
// when it runs out, which leaves the distribution exact (it is memoryless).
const MaxSkip = 256

// CappedSkip is the gap handed out while the interval's hard budget is
// exhausted: short, so a goroutine notices the cap lifting within 64 calls
// and the controller is offered its tick that often.
const CappedSkip = 64

// Layer names what a charge paid for. The controller steers on their sum;
// the split is what tsvd_overhead_seconds_total reports.
type Layer int

const (
	// LayerSkip is the floor: what calls rejected by stage one cost. It
	// does not depend on p, so it is charged to the controller but not to
	// the hard cap — suspending admission cannot reduce it.
	LayerSkip Layer = iota
	// LayerPrologue is the identity (goroutine, call site, site id) bought
	// by calls that survived stage one.
	LayerPrologue
	// LayerAnalysis is detector time from OnCall entry to the end of the
	// analysis section, for the same calls.
	LayerAnalysis
	// LayerDelay is injected sleep.
	LayerDelay
	// NumLayers is the number of layers.
	NumLayers
)

var layerNames = [NumLayers]string{"skip", "prologue", "analysis", "delay"}

// String returns the layer's metric label.
func (l Layer) String() string { return layerNames[l] }

// Params configures a Sampler.
type Params struct {
	// BaseProbability is the initial global admission probability in [0,1].
	// With no OverheadTarget it is also the permanent probability.
	BaseProbability float64
	// OverheadTarget is the overhead fraction the controller steers toward
	// (e.g. 0.01 for ~1% overhead): charged time, floor included, over
	// caller time elapsed. Zero disables the controller: the probability
	// stays fixed at BaseProbability and Tick is a no-op.
	OverheadTarget float64
	// Interval is the control-loop period: how much caller time must elapse
	// between Tick adjustments, and the window the hard budget cap covers.
	Interval time.Duration
}

// site is the per-call-site admission state: the fixed-point thresholds and
// the estimated call count for the running interval.
type site struct {
	// threshold admits at the site's probability sp (Admit); second admits
	// at sp/p, the stage-two share of a call that already passed stage one
	// (AdmitSite).
	threshold atomic.Uint64
	second    atomic.Uint64
	// hits estimates the calls the site made this interval: one per call
	// Admit saw, 1/p per stage-one survivor AdmitSite saw.
	hits atomic.Int64
}

// siteTable is the dense per-site state store, indexed directly by
// ids.SiteID. Entries are pointers so growth copies only pointer words —
// never a live site's atomics — and a reader holding the old table keeps
// operating on the same site objects the new table references.
type siteTable []atomic.Pointer[site]

// stageOne is the global admission state one Tick publishes as a unit, so a
// gap is always drawn from one consistent probability.
type stageOne struct {
	p float64
	// invLog is 1/ln(1-p), the geometric draw's scale (p in (0,1) only).
	invLog float64
	// weight is round(1/p): how many calls one survivor stands for.
	weight int64
}

func newStageOne(p float64) *stageOne {
	g := &stageOne{p: p, weight: 1}
	if p > 0 && p < 1 {
		g.invLog = 1 / math.Log1p(-p)
		g.weight = int64(math.Round(1 / p))
	}
	return g
}

// Sampler is the admission gate plus its adaptive controller. All methods
// are safe for concurrent use; NextGap, AdmitSite, Admit and Observe are
// lock-free.
type Sampler struct {
	params Params

	// global is the current stage-one state.
	global atomic.Pointer[stageOne]
	// states is the dense per-site admission table indexed by ids.SiteID
	// (grow-by-doubling, republished via atomic pointer swap). Lookups are
	// one bounds check and two loads — no hashing, no interface boxing.
	states atomic.Pointer[siteTable]
	// stateMu serializes first-sighting inserts and table growth.
	stateMu sync.Mutex
	// nSites counts distinct sites seen, for Snapshot.
	nSites atomic.Int64
	// capped is set when the interval's hard budget is exhausted; admission
	// refuses everything until the next Tick resets it.
	capped atomic.Bool
	// budget is the current interval's hard cap, swapped on every Tick.
	budget atomic.Pointer[clock.Budget]
	// spent accumulates charged nanoseconds per layer; the controller and
	// the exported overhead series read the same words.
	spent [NumLayers]atomic.Int64

	// lastTick is the caller-time of the last controller run, loaded
	// lock-free for the due check.
	lastTick atomic.Int64

	// tickMu serializes controller runs; the fields below it are only
	// touched under the lock.
	tickMu    sync.Mutex
	lastSpent [NumLayers]int64
	ewma      float64
	ticks     int64
	last      Adjustment
}

// New returns a Sampler for p. BaseProbability is clamped to [0,1]; a zero
// Interval disables the hard cap (the controller then relies on Tick alone).
func New(p Params) *Sampler {
	if p.BaseProbability < 0 {
		p.BaseProbability = 0
	}
	if p.BaseProbability > 1 {
		p.BaseProbability = 1
	}
	s := &Sampler{params: p}
	s.global.Store(newStageOne(p.BaseProbability))
	if p.OverheadTarget > 0 && p.Interval > 0 {
		s.budget.Store(s.newBudget())
	}
	return s
}

// newBudget returns a fresh per-interval hard cap: the overhead target's
// share of one interval of wall time.
func (s *Sampler) newBudget() *clock.Budget {
	return &clock.Budget{Max: time.Duration(s.params.OverheadTarget * float64(s.params.Interval))}
}

// thresholdFor converts a probability to its fixed-point admission threshold.
func thresholdFor(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << thresholdBits
	}
	return uint64(p * (1 << thresholdBits))
}

// Gap is one stage-one draw.
type Gap struct {
	// Skip is how many calls to reject, at most max.
	Skip int64
	// Admit reports whether the call after those goes on to stage two; when
	// false (the gap was cut at max, or admission is capped) the caller
	// draws again instead.
	Admit bool
	// Weight is how many calls a survivor of this draw stands for (1/p),
	// passed back to AdmitSite.
	Weight int64
}

// NextGap draws the stage-one gap for one goroutine from rnd: the number of
// calls it rejects before the next survivor, geometric in the current
// global probability and cut at max (≤ MaxSkip). While the interval's hard
// budget is exhausted it hands out short survivor-less gaps instead, so the
// caller comes back — and can offer the controller its tick — every
// CappedSkip calls. It never returns a zero gap without a survivor.
func (s *Sampler) NextGap(rnd uint64, max int64) Gap {
	if max > MaxSkip {
		max = MaxSkip
	}
	g := s.global.Load()
	switch {
	case s.capped.Load():
		if max > CappedSkip {
			max = CappedSkip
		}
		return Gap{Skip: max, Weight: g.weight}
	case g.p >= 1:
		return Gap{Admit: true, Weight: 1}
	case g.p <= 0:
		return Gap{Skip: max, Weight: 1}
	}
	// Inverse-CDF geometric draw from a uniform in (0,1).
	u := (float64(rnd>>(64-thresholdBits)) + 0.5) / (1 << thresholdBits)
	if n := math.Log(u) * g.invLog; n < float64(max) {
		return Gap{Skip: int64(n), Admit: true, Weight: g.weight}
	}
	return Gap{Skip: max, Weight: g.weight}
}

// AdmitSite is stage two: whether a call that survived stage one at weight
// (Gap.Weight) enters the detector, given its site. The site's estimated
// call count grows by the weight, so hot-site detection works from admitted
// calls alone. It refuses everything while capped.
func (s *Sampler) AdmitSite(siteID ids.SiteID, rnd uint64, weight int64) bool {
	if s.capped.Load() {
		return false
	}
	st := s.siteFor(siteID)
	st.hits.Add(weight)
	return rnd>>(64-thresholdBits) < st.second.Load()
}

// Admit decides in one step whether this access enters the detector, for
// callers that present every call with its site. siteID is the access's
// dense registry id (ids.SiteID) and rnd a fresh 64-bit random from the
// calling thread's Rand state. Hits are counted per site per interval so
// the controller can flatten coverage across hot and cold sites; while the
// interval's hard budget is exhausted Admit refuses everything without
// touching the site table.
func (s *Sampler) Admit(siteID ids.SiteID, rnd uint64) bool {
	if s.capped.Load() {
		return false
	}
	st := s.siteFor(siteID)
	st.hits.Add(1)
	return rnd>>(64-thresholdBits) < st.threshold.Load()
}

// siteFor returns the site state, creating it at the current global
// probability on first sight. The steady-state path is one table-pointer
// load, one bounds check and one entry load.
func (s *Sampler) siteFor(siteID ids.SiteID) *site {
	if t := s.states.Load(); t != nil && int(siteID) < len(*t) {
		if st := (*t)[siteID].Load(); st != nil {
			return st
		}
	}
	return s.siteForSlow(siteID)
}

func (s *Sampler) siteForSlow(siteID ids.SiteID) *site {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	t := s.states.Load()
	if t == nil || int(siteID) >= len(*t) {
		size := 64
		if t != nil {
			size = len(*t)
		}
		for size <= int(siteID) {
			size *= 2
		}
		nt := make(siteTable, size)
		if t != nil {
			for i := range *t {
				nt[i].Store((*t)[i].Load())
			}
		}
		s.states.Store(&nt)
		t = &nt
	}
	if st := (*t)[siteID].Load(); st != nil {
		return st
	}
	st := &site{}
	st.threshold.Store(thresholdFor(s.Probability()))
	st.second.Store(thresholdFor(1))
	(*t)[siteID].Store(st)
	s.nSites.Add(1)
	return st
}

// Observe charges d to layer l of the overhead account. Every layer but the
// floor also draws on the interval's hard cap; when a charge no longer
// fits, admission stops until the next Tick.
func (s *Sampler) Observe(l Layer, d time.Duration) {
	if d <= 0 {
		return
	}
	s.spent[l].Add(int64(d))
	if l == LayerSkip {
		return
	}
	if b := s.budget.Load(); b != nil && b.Allow(d) < d {
		s.capped.Store(true)
	}
}

// ObserveCost charges d of detector analysis time.
func (s *Sampler) ObserveCost(d time.Duration) { s.Observe(LayerAnalysis, d) }

// ObserveDelay charges d of injected delay time. Delay shares the cap with
// analysis: a sleeping production request is overhead whether the time went
// to analysis or to a trap.
func (s *Sampler) ObserveDelay(d time.Duration) { s.Observe(LayerDelay, d) }

// Adjustment describes one controller run: the new global probability, the
// overhead observed over the interval, and the detection time spent in it.
type Adjustment struct {
	// Probability is the global admission probability after the adjustment.
	Probability float64
	// Observed is the measured overhead fraction of the interval (time
	// charged, floor included / caller time elapsed), before EWMA smoothing.
	Observed float64
	// Floor is the LayerSkip share of Observed: what the interval would
	// have cost had nothing been admitted.
	Floor float64
	// FloorBound reports that the floor alone met or exceeded the target:
	// no admission probability can reach it, and the controller is on its
	// way down to (or holding at) the minimum probability.
	FloorBound bool
	// Spent is the time charged during the interval.
	Spent time.Duration
	// Capped reports whether the interval's hard budget was exhausted
	// before this tick ran.
	Capped bool
}

// Tick runs the controller if an interval has elapsed since the last run.
// now is the caller's monotonic time (e.g. duration since detector start);
// all scheduling derives from it, so tests drive the loop deterministically.
// It returns false when the controller did not run — target disabled, the
// interval not yet elapsed, or another thread mid-tick.
func (s *Sampler) Tick(now time.Duration) (Adjustment, bool) {
	if s.params.OverheadTarget <= 0 || s.params.Interval <= 0 {
		return Adjustment{}, false
	}
	last := time.Duration(s.lastTick.Load())
	if now-last < s.params.Interval {
		return Adjustment{}, false
	}
	if !s.tickMu.TryLock() {
		return Adjustment{}, false
	}
	defer s.tickMu.Unlock()
	// Re-check under the lock: another thread may have ticked between the
	// due check and the acquire.
	last = time.Duration(s.lastTick.Load())
	elapsed := now - last
	if elapsed < s.params.Interval {
		return Adjustment{}, false
	}

	var spent, floor int64
	for l := range s.spent {
		total := s.spent[l].Load()
		d := total - s.lastSpent[l]
		s.lastSpent[l] = total
		spent += d
		if Layer(l) == LayerSkip {
			floor = d
		}
	}
	observed := float64(spent) / float64(elapsed)

	if s.ticks == 0 {
		s.ewma = observed
	} else {
		s.ewma = ewmaAlpha*observed + (1-ewmaAlpha)*s.ewma
	}
	s.ticks++

	p := s.Probability()
	ratio := maxStepRatio
	if s.ewma > 0 {
		ratio = s.params.OverheadTarget / s.ewma
	}
	if ratio > maxStepRatio {
		ratio = maxStepRatio
	}
	if ratio < 1/maxStepRatio {
		ratio = 1 / maxStepRatio
	}
	p *= ratio
	if p < minProbability {
		p = minProbability
	}
	if p > 1 {
		p = 1
	}
	s.global.Store(newStageOne(p))
	s.rebalanceSites(p)

	wasCapped := s.capped.Load()
	s.budget.Store(s.newBudget())
	s.capped.Store(false)
	s.lastTick.Store(int64(now))

	s.last = Adjustment{
		Probability: p,
		Observed:    observed,
		Floor:       float64(floor) / float64(elapsed),
		Spent:       time.Duration(spent),
		Capped:      wasCapped,
	}
	s.last.FloorBound = s.last.Floor >= s.params.OverheadTarget
	return s.last, true
}

// rebalanceSites pushes the new global probability to every site, lowering
// hot sites proportionally: a site with k times the mean estimated call
// count gets p/k, so the budget spreads across the program instead of
// pooling on one hot loop. Counts reset for the next interval.
func (s *Sampler) rebalanceSites(p float64) {
	t := s.states.Load()
	if t == nil {
		return
	}
	var totalHits, n int64
	for i := range *t {
		if st := (*t)[i].Load(); st != nil {
			totalHits += st.hits.Load()
			n++
		}
	}
	var mean float64
	if n > 0 {
		mean = float64(totalHits) / float64(n)
	}
	for i := range *t {
		st := (*t)[i].Load()
		if st == nil {
			continue
		}
		hits := float64(st.hits.Swap(0))
		sp := p
		if mean > 0 && hits > mean {
			sp = p * mean / hits
			if sp < minProbability {
				sp = minProbability
			}
		}
		st.threshold.Store(thresholdFor(sp))
		st.second.Store(thresholdFor(sp / p))
	}
}

// Probability returns the current global admission probability.
func (s *Sampler) Probability() float64 { return s.global.Load().p }

// Snapshot is a point-in-time view of the sampler, safe to take while
// detection runs.
type Snapshot struct {
	// Probability is the current global admission probability.
	Probability float64
	// Capped reports whether the current interval's hard budget is
	// exhausted (admission suspended until the next tick).
	Capped bool
	// Sites is the number of distinct call sites seen so far.
	Sites int
	// Spent is the total time charged since construction.
	Spent time.Duration
	// Layers splits Spent by what it paid for.
	Layers [NumLayers]time.Duration
	// Ticks is the number of controller runs so far.
	Ticks int64
	// Last is the most recent controller run (zero before the first): the
	// controller's current belief about the overhead the program pays.
	Last Adjustment
}

// Snapshot returns the sampler's current state.
func (s *Sampler) Snapshot() Snapshot {
	snap := Snapshot{
		Probability: s.Probability(),
		Capped:      s.capped.Load(),
		Sites:       int(s.nSites.Load()),
	}
	for l := range s.spent {
		snap.Layers[l] = time.Duration(s.spent[l].Load())
		snap.Spent += snap.Layers[l]
	}
	s.tickMu.Lock()
	snap.Ticks, snap.Last = s.ticks, s.last
	s.tickMu.Unlock()
	return snap
}

// Rand advances a per-thread xorshift64 state and returns the next random.
// Callers keep one state per thread (plain field, owner-only) so admission
// never touches a shared RNG.
func Rand(state *uint64) uint64 {
	x := *state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*state = x
	return x
}

// SeedRand derives a nonzero xorshift64 seed from a configuration seed and a
// thread id, so runs are reproducible per (Config.Seed, thread).
func SeedRand(seed, thread int64) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(thread)*0xBF58476D1CE4E5B9
	if x == 0 {
		x = 0x2545F4914F6CDD1D
	}
	return x
}
