package core

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/sampler"
	"repro/internal/sites"
	"repro/internal/trace"
)

// Admission (config.ModeSampled, docs/SAMPLING.md) is decided before
// identity. Stage one is a per-goroutine countdown of calls to reject, drawn
// by the sampler from the global probability: a rejected call is one atomic
// decrement on the goroutine's own line and a branch, and knows neither its
// call site nor its object. Only the call that runs the countdown out goes
// on to buy a site, and stage two (the site's share of the global
// probability) then decides whether it is analysed. A parked trap overrides
// a rejection as far as the red-handed check: that is never sampled out.

// verdict is what admit decides for one call.
type verdict uint8

const (
	// verdictNone is the zero value: no decision is pending.
	verdictNone verdict = iota
	// verdictSkip: rejected, and nothing is parked — the call is over.
	verdictSkip
	// verdictTrapOnly: rejected, but a trap is parked somewhere — run the
	// red-handed check and nothing else.
	verdictTrapOnly
	// verdictFull: survived stage one — take the full path.
	verdictFull
)

// admit is the one admission function: it consumes one call of st's
// countdown and says what the call may do. perSkip is what a rejected call
// costs on the asking path, charged in bulk when the countdown is refilled.
// Only called in sampled mode (r.samp != nil); st is the calling
// goroutine's own state.
func (r *runtime) admit(st *threadState, perSkip time.Duration) verdict {
	if st.skip.Add(-1) < 0 && !r.refill(st, perSkip) {
		return verdictFull
	}
	if r.parked.Load() > 0 {
		return verdictTrapOnly
	}
	return verdictSkip
}

// refill runs when st's countdown is out. Either the call is the survivor
// the last draw promised, or a new gap is drawn and the call is the first
// rejection of it (reported as true). The block that just ran out is charged
// at the floor here, and a block that ends without a survivor — a cut gap,
// or the interval cap — offers the controller its tick with one clock read,
// so a probability change or a lifted cap reaches every goroutine within
// one block.
func (r *runtime) refill(st *threadState, perSkip time.Duration) (rejected bool) {
	done := st.block
	st.block = 0
	r.samp.Observe(sampler.LayerSkip, time.Duration(done)*perSkip)
	if !st.survivorNext {
		if done > 0 {
			r.sampleTick(r.now())
		}
		// Gaps start short and double, so a goroutine that makes only a few
		// calls still charges most of them before it exits mid-block.
		if st.maxGap < sampler.MaxSkip {
			st.maxGap = 2*st.maxGap + 1
		}
		g := r.samp.NextGap(sampler.Rand(&st.rng), st.maxGap)
		st.weight = g.Weight
		if g.Skip > 0 {
			st.survivorNext = g.Admit
			st.block = g.Skip
			st.granted.Add(g.Skip)
			st.skip.Store(g.Skip - 1)
			return true
		}
	}
	st.survivorNext = false
	return false
}

// rejected is the number of st's calls the sampler rejected: the stage-two
// rejections counted one by one plus the part of the granted countdown
// already consumed. Exact at quiescence; a scrape racing a refill can be off
// by that one gap.
func (st *threadState) rejected() int64 {
	left := st.skip.Load()
	if left < 0 {
		left = 0
	}
	return st.sampledOut.Load() + st.granted.Load() - left
}

// enter is the front half every variant's OnCall shares once something can
// end a call before analysis — a sampler, or a parked trap: the admission
// verdict (taken here unless the proxy already asked through Gate), the
// red-handed check, the site stage, and the entry timestamp the overhead
// account is charged from. It reports whether the call goes on to analysis.
// A pair caught red-handed leaves a trapping variant's set for good.
func (r *runtime) enter(st *threadState, a *Access) bool {
	v := verdictFull
	if r.samp != nil {
		if v = st.pending; v != verdictNone {
			st.pending = verdictNone
		} else if v = r.admit(st, r.costs.skip+r.costs.prologue); v == verdictSkip {
			return false
		}
		if v == verdictFull {
			st.enteredAt = r.now()
		}
	}
	// check_for_trap: catch conflicting parked threads red-handed.
	if r.parked.Load() > 0 {
		os := r.objStateFor(st, a.Obj)
		os.mu.Lock()
		found := r.checkForTraps(os, a)
		os.mu.Unlock()
		if r.trapping() {
			for _, key := range found {
				r.set.suppress(key)
			}
		}
	}
	if v == verdictTrapOnly {
		return false
	}
	if r.samp != nil && !r.samp.AdmitSite(a.Site, sampler.Rand(&st.rng), st.weight) {
		// Rejected by its site's share. The call did buy an identity and
		// the front half, so it is charged like an admitted one.
		st.sampledOut.Add(1)
		r.leave(st)
		return false
	}
	return true
}

// leave closes an admitted call's account in sampled mode: the calibrated
// identity prologue plus the measured time since enter, then the
// controller's tick. Sleep is charged separately inside injectDelay, so
// nothing is counted twice.
func (r *runtime) leave(st *threadState) {
	now := r.now()
	r.samp.Observe(sampler.LayerPrologue, r.costs.prologue)
	r.samp.Observe(sampler.LayerAnalysis, now-st.enteredAt)
	r.sampleTick(now)
}

// sampleTick runs the adaptive-sampling controller if its interval has
// elapsed, recording every adjustment in the stats and the trace. The
// event's duration field carries the observed overhead — floor included —
// as time charged per second of wall time.
func (r *runtime) sampleTick(now time.Duration) {
	if adj, ok := r.samp.Tick(now + r.sampBase); ok {
		r.stats.count[statSamplerThrottles].Add(1)
		r.tr.Emit(trace.KindSamplerThrottle, 0, 0, r.samplerOp, 0, now,
			time.Duration(adj.Observed*float64(time.Second)))
	}
}

// Gate lets an instrumentation proxy ask for the admission verdict before
// it builds an Access: with only the goroutine id in hand, so a rejected
// call never pays for ids.CallerOp, sites.ForCall or OnCall. Only sampled
// detectors have one (GateOf).
type Gate runtime

// GateOf returns det's admission gate, or nil when det admits every call
// (any mode but config.ModeSampled, the no-op detector, foreign detectors).
func GateOf(det Detector) *Gate {
	if b, ok := det.(interface{ base() *detectorBase }); ok {
		if rt := &b.base().rt; rt.samp != nil {
			return (*Gate)(rt)
		}
	}
	return nil
}

func (b *detectorBase) base() *detectorBase { return b }

// Admit consumes thread t's admission decision for the call it is about to
// report, and reports whether OnCall must be called at all. After true the
// caller must call OnCall for that call, on the same goroutine, which then
// does not decide again.
func (g *Gate) Admit(t ids.ThreadID) bool {
	r := (*runtime)(g)
	st, ok := r.threads.GetFast(int64(t))
	if !ok {
		st = r.threadStateFor(t)
	}
	v := r.admit(st, r.costs.skip)
	if v == verdictSkip {
		return false
	}
	st.pending = v
	return true
}

// costs are the per-call constants the overhead account cannot measure call
// by call without becoming the overhead: what a rejected call costs through
// a proxy that asks Gate first (skip), and what identity costs a call that
// builds an Access (prologue: goroutine id, ids.CallerOp, sites.ForCall).
type costs struct {
	skip, prologue time.Duration
}

var (
	calibrated costs
	calibrate  sync.Once
)

// callCosts returns the calibrated constants, measuring them once per
// process: each is the fastest of eight short batches on the real code (the
// minimum is the estimator that a preempted batch cannot inflate), ≈ 80 µs
// in all. Warm-loop numbers are a lower bound on what a call costs in the
// middle of a program; docs/SAMPLING.md states the resulting tolerance.
func callCosts() costs {
	calibrate.Do(func() {
		const batches, batch = 8, 192
		fastest := func(fn func()) time.Duration {
			for i := 0; i < batch; i++ { // intern the site, warm the caches
				fn()
			}
			best := time.Duration(1 << 62)
			for b := 0; b < batches; b++ {
				start := time.Now()
				for i := 0; i < batch; i++ {
					fn()
				}
				if d := time.Since(start); d < best {
					best = d
				}
			}
			// Rounded up: a sub-nanosecond remainder is still paid.
			return best/batch + 1
		}

		var r runtime
		r.clk, r.start = clock.Real{}, time.Now()
		r.samp = sampler.New(sampler.Params{})
		g := (*Gate)(&r)
		calibrated.skip = fastest(func() { proxyShape(g) })

		reg := sites.New()
		calibrated.prologue = fastest(func() {
			op := ids.CallerOp(0)
			calibrationSink = Access{
				Thread: ids.CurrentThreadID(),
				Op:     op,
				Site:   reg.ForCall(op, "calibration", "Call", true),
			}
		})
	})
	return calibrated
}

var calibrationSink Access

// proxyShape stands in for an instrumented container method asking the gate:
// a call of its own around the goroutine id and the verdict.
//
//go:noinline
func proxyShape(g *Gate) bool { return g.Admit(ids.CurrentThreadID()) }

// SharedSampler is one sampler — one probability, one interval budget, one
// overhead account — on a time axis of its own, for every detector of a run
// that builds many (the harness builds one per module): a detector that is
// given none makes its own, so each would start at the configured probability
// with a fresh budget, and "1 % of the run" would mean "1 % of each module's
// first interval".
type SharedSampler struct {
	samp  *sampler.Sampler
	start time.Time
}

// NewSharedSampler returns the sampler cfg describes, or nil outside
// config.ModeSampled.
func NewSharedSampler(cfg config.Config) *SharedSampler {
	if cfg.Mode != config.ModeSampled {
		return nil
	}
	return &SharedSampler{start: time.Now(), samp: sampler.New(sampler.Params{
		BaseProbability: cfg.SampleProbability,
		OverheadTarget:  cfg.OverheadTarget,
		Interval:        cfg.EffectiveSamplerInterval(),
	})}
}

// Snapshot returns the shared sampler's state. Nil-safe (the zero Snapshot).
func (s *SharedSampler) Snapshot() sampler.Snapshot {
	if s == nil {
		return sampler.Snapshot{}
	}
	return s.samp.Snapshot()
}

// WithSharedSampler makes a sampled-mode detector draw on s instead of a
// sampler of its own. s may be nil (no-op).
func WithSharedSampler(s *SharedSampler) Option {
	return func(o *options) { o.shared = s }
}
