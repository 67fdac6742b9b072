// Package config holds every tunable of the TSVD runtime with the defaults
// the paper settles on in §5.4 (Figure 9). One Config value fully describes
// a detector run, which keeps parameter-sweep experiments trivial.
//
// In the pipeline, config is the single source of truth consumed by
// internal/core when a detector is built: algorithm selection, the paper's
// detection parameters, time scaling for fast tests, and the shared site
// registry (Sites) the detector interns instrumentation sites into.
package config

import (
	"time"

	"repro/internal/sites"
)

// Algorithm selects which detection variant the runtime executes (§3).
type Algorithm int

const (
	// AlgoNop performs no analysis and injects no delays. It is the
	// uninstrumented baseline used to compute overheads.
	AlgoNop Algorithm = iota
	// AlgoTSVD is the paper's contribution (§3.4): near-miss tracking,
	// concurrent-phase inference, HB inference, delay decay, trap-file
	// persistence, same-run planning+injection.
	AlgoTSVD
	// AlgoTSVDHB is the RaceFuzzer-style variant (§3.5): full vector-clock
	// happens-before analysis over monitored synchronization, with the
	// paper's immutable-clock optimizations, same-run injection.
	AlgoTSVDHB
	// AlgoDynamicRandom injects a delay at every TSVD point with a fixed
	// small probability (§3.2).
	AlgoDynamicRandom
	// AlgoStaticRandom emulates DataCollider: static program locations are
	// sampled uniformly, irrespective of how often each executes (§3.3).
	AlgoStaticRandom
)

// String returns the name used in the paper's tables.
func (a Algorithm) String() string {
	switch a {
	case AlgoNop:
		return "Nop"
	case AlgoTSVD:
		return "TSVD"
	case AlgoTSVDHB:
		return "TSVDHB"
	case AlgoDynamicRandom:
		return "DynamicRandom"
	case AlgoStaticRandom:
		return "DataCollider"
	default:
		return "unknown"
	}
}

// Mode selects the detector's production operating tier (docs/SAMPLING.md).
// The algorithm is unchanged across modes; what varies is how much of the
// OnCall pipeline runs per instrumented call, which is the overhead knob for
// always-on production deployment.
type Mode int

const (
	// ModeFull runs the complete analysis and delay-injection pipeline on
	// every instrumented call — the paper's testing-time behavior and the
	// zero value, so existing configurations are unchanged.
	ModeFull Mode = iota
	// ModeSampled decides admission before a call buys its identity: a
	// rejected call costs a countdown decrement, an admitted one the whole
	// pipeline. With OverheadTarget set, a control loop steers the admission
	// probability so that the overhead as the harness measures it — what
	// every call costs, rejected ones included — meets the target; otherwise
	// the probability stays fixed at SampleProbability. Trap checking
	// (red-handed catching) is never sampled out.
	ModeSampled
	// ModeObserveOnly runs the full analysis — near-miss recording, trap-set
	// bookkeeping, coverage — but suppresses every delay injection, so the
	// detector never parks a thread. The would-be injections are counted and
	// traced as logical trap firings, making it the zero-risk first step of
	// a production rollout.
	ModeObserveOnly
)

// String returns the wire name used by flags and docs: "full", "sampled" or
// "observe-only".
func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeSampled:
		return "sampled"
	case ModeObserveOnly:
		return "observe-only"
	default:
		return "unknown"
	}
}

// ParseMode inverts Mode.String, for the -mode CLI flag.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "full":
		return ModeFull, nil
	case "sampled":
		return ModeSampled, nil
	case "observe-only", "observe":
		return ModeObserveOnly, nil
	default:
		return ModeFull, errValue("unknown mode " + s + " (want full, sampled or observe-only)")
	}
}

// Config is the complete parameter set for one detector instance.
type Config struct {
	// Algorithm selects the detection technique (§3: TSVD, TSVDHB, the
	// random baselines, or Nop).
	Algorithm Algorithm

	// --- Near-miss tracking (§3.4.2, Fig. 9b/9c) ---

	// ObjHistory (N_nm) is the number of recent accesses kept per object.
	ObjHistory int
	// NearMissWindow (T_nm) is the physical-time window within which two
	// conflicting accesses from different threads count as a near miss.
	NearMissWindow time.Duration

	// --- HB inference (§3.4.4, Fig. 9d/9e) ---

	// HBBlockThreshold (δ_hb) scales DelayTime to the minimum inter-access
	// gap that is attributed to an injected delay.
	HBBlockThreshold float64
	// HBInferenceWindow (k_hb) is how many subsequent accesses of the
	// blocked thread inherit the inferred happens-after relationship.
	HBInferenceWindow int
	// DisableHBInference turns §3.4.4 off entirely (Table 3 ablation).
	DisableHBInference bool

	// --- Concurrent-phase inference (§3.4.3, Fig. 9f) ---

	// PhaseBufferSize is the length of the global ring buffer of recently
	// executed TSVD points; >1 distinct threads in the buffer means the
	// program is in a concurrent phase.
	PhaseBufferSize int
	// DisablePhaseDetection turns §3.4.3 off (Table 3 ablation).
	DisablePhaseDetection bool

	// DisableNearMissWindow makes every pair of conflicting accesses by
	// different threads a near miss regardless of the time gap
	// ("No windowing" row of Table 3).
	DisableNearMissWindow bool

	// --- Delay injection (§3.4.5/§3.4.6, Fig. 9g/9h) ---

	// DelayTime is the length of one injected delay.
	DelayTime time.Duration
	// DecayFactor f reduces a location's injection probability to
	// P·(1-f) after every delay that exposes no conflict. 0 disables decay
	// (the pathological configuration of Fig. 9g).
	DecayFactor float64
	// PruneProbability is the threshold below which a location's delay
	// probability is treated as zero and its pairs leave the trap set.
	PruneProbability float64
	// AvoidOverlappingDelays suppresses a delay when another thread is
	// already parked (the rejected alternative design in §3.4.6, kept as
	// an ablation).
	AvoidOverlappingDelays bool
	// MaxDelayPerThread caps the total delay charged to one thread so
	// instrumented tests do not time out (§4 runtime feature 2).
	// Zero means unlimited.
	MaxDelayPerThread time.Duration

	// Sites is the site registry the detector interns instrumentation
	// sites into and resolves report metadata from. Sharing one registry
	// across detectors (the harness does this per suite) keeps SiteIDs
	// consistent in merged outputs; nil makes core.New create a private
	// registry.
	Sites *sites.Registry

	// --- Production sampling tier (docs/SAMPLING.md) ---

	// Mode selects the operating tier: ModeFull (default, the paper's
	// testing-time behavior), ModeSampled (probabilistic admission with an
	// optional measured-overhead control loop) or ModeObserveOnly
	// (full analysis, zero delay injection).
	Mode Mode
	// SampleProbability is ModeSampled's initial probability of running the
	// analysis pipeline for a call. With OverheadTarget unset it
	// stays fixed; with a target it is only the starting point the control
	// loop throttles from. Defaults to 1.0 so sampled mode starts at full
	// recall and earns its cheapness from the throttle.
	SampleProbability float64
	// OverheadTarget, when positive, closes the loop in ModeSampled on the
	// overhead as the harness measures it: every SamplerInterval the sampler
	// compares what instrumentation cost the program — rejected calls at a
	// calibrated floor, admitted calls from proxy entry through analysis,
	// injected delays — against elapsed wall time, and multiplicatively
	// adjusts the admission probability toward this fraction (0.01 = "~1%
	// overhead"). When rejecting calls alone costs more than the target it
	// holds at the minimum probability and reports the floor
	// (tsvd_overhead_floor_ratio). Zero keeps SampleProbability fixed.
	// Ignored outside ModeSampled.
	OverheadTarget float64
	// SamplerInterval is the control-loop period of the adaptive sampler:
	// per interval the spent-time budget is refreshed and the per-site
	// probabilities are rebalanced (hot sites are throttled harder so cold
	// sites keep their coverage). Scaled by TimeScale like every duration;
	// 0 selects the 100ms default.
	SamplerInterval time.Duration

	// --- Observability (docs/OBSERVABILITY.md) ---

	// Trace enables the per-shard ring-buffer event tracer: structured
	// detector events (delays, near misses, trap churn, prunes) recorded
	// with zero allocation on the hot path and drained post-run into JSONL
	// and per-location metrics. Off by default; the disabled tracer costs
	// one nil check per emission point.
	Trace bool
	// TraceBufferSize is the total buffered-event capacity per detector
	// instance. When the buffer is full the oldest event is overwritten and
	// counted as dropped — reconciliation against Stats then fails loudly.
	// 0 selects trace.DefaultBufferSize, sized to hold a full module run.
	TraceBufferSize int

	// --- Random variants (§3.2/§3.3) ---

	// RandomDelayProbability is DynamicRandom's per-call delay
	// probability.
	RandomDelayProbability float64
	// StaticSampleProbability is StaticRandom's (DataCollider's)
	// per-window location-arming probability: the analogue of its
	// breakpoint-set size.
	StaticSampleProbability float64

	// Seed drives every probabilistic decision the detector makes, so runs
	// are reproducible.
	Seed int64

	// TimeScale uniformly shrinks (or stretches) every physical duration
	// above: DelayTime, NearMissWindow and MaxDelayPerThread are multiplied
	// by it when the detector starts. 1.0 reproduces the paper's scale;
	// tests use small values to run fast. Ratios are unaffected.
	TimeScale float64
}

// Defaults returns the paper's default configuration for the given variant
// (§5.4: N_nm=5, T_nm=100ms, δ_hb=0.5, k_hb=5, buffer=16, delay=100ms;
// DynamicRandom probability 0.05 per Table 2).
func Defaults(algo Algorithm) Config {
	return Config{
		Algorithm:               algo,
		ObjHistory:              5,
		NearMissWindow:          100 * time.Millisecond,
		HBBlockThreshold:        0.5,
		HBInferenceWindow:       5,
		PhaseBufferSize:         16,
		DelayTime:               100 * time.Millisecond,
		DecayFactor:             0.5,
		PruneProbability:        0.02,
		MaxDelayPerThread:       5 * time.Second,
		SampleProbability:       1.0,
		SamplerInterval:         100 * time.Millisecond,
		RandomDelayProbability:  0.05,
		StaticSampleProbability: 0.25,
		Seed:                    1,
		TimeScale:               1.0,
	}
}

// Scaled returns a copy of c with TimeScale set, for fast tests/benches.
func (c Config) Scaled(factor float64) Config {
	c.TimeScale = factor
	return c
}

// EffectiveDelay returns DelayTime after TimeScale is applied.
func (c Config) EffectiveDelay() time.Duration {
	return scale(c.DelayTime, c.TimeScale)
}

// EffectiveNearMissWindow returns NearMissWindow after TimeScale is applied.
func (c Config) EffectiveNearMissWindow() time.Duration {
	return scale(c.NearMissWindow, c.TimeScale)
}

// EffectiveMaxDelayPerThread returns MaxDelayPerThread after TimeScale.
func (c Config) EffectiveMaxDelayPerThread() time.Duration {
	return scale(c.MaxDelayPerThread, c.TimeScale)
}

// EffectiveSamplerInterval returns SamplerInterval after TimeScale, with 0
// resolved to the 100ms default first.
func (c Config) EffectiveSamplerInterval() time.Duration {
	iv := c.SamplerInterval
	if iv == 0 {
		iv = 100 * time.Millisecond
	}
	return scale(iv, c.TimeScale)
}

func scale(d time.Duration, f float64) time.Duration {
	if f == 0 || f == 1.0 {
		return d
	}
	s := time.Duration(float64(d) * f)
	if s <= 0 && d > 0 {
		s = time.Microsecond
	}
	return s
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.ObjHistory < 1:
		return errValue("ObjHistory must be >= 1")
	case c.NearMissWindow <= 0:
		return errValue("NearMissWindow must be positive")
	case c.HBBlockThreshold < 0:
		return errValue("HBBlockThreshold must be >= 0")
	case c.HBInferenceWindow < 0:
		return errValue("HBInferenceWindow must be >= 0")
	case c.PhaseBufferSize < 2 && !c.DisablePhaseDetection:
		return errValue("PhaseBufferSize must be >= 2")
	case c.DelayTime <= 0:
		return errValue("DelayTime must be positive")
	case c.DecayFactor < 0 || c.DecayFactor >= 1:
		return errValue("DecayFactor must be in [0,1)")
	case c.PruneProbability < 0 || c.PruneProbability >= 1:
		return errValue("PruneProbability must be in [0,1)")
	case c.Mode < ModeFull || c.Mode > ModeObserveOnly:
		return errValue("Mode must be full, sampled or observe-only")
	case c.SampleProbability < 0 || c.SampleProbability > 1:
		return errValue("SampleProbability must be in [0,1]")
	case c.OverheadTarget < 0 || c.OverheadTarget >= 1:
		return errValue("OverheadTarget must be in [0,1)")
	case c.SamplerInterval < 0:
		return errValue("SamplerInterval must be >= 0 (0 selects the default)")
	case c.RandomDelayProbability < 0 || c.RandomDelayProbability > 1:
		return errValue("RandomDelayProbability must be in [0,1]")
	case c.StaticSampleProbability < 0 || c.StaticSampleProbability > 1:
		return errValue("StaticSampleProbability must be in [0,1]")
	case c.TimeScale < 0:
		return errValue("TimeScale must be >= 0")
	case c.TraceBufferSize < 0:
		return errValue("TraceBufferSize must be >= 0 (0 selects the default)")
	}
	return nil
}

type errValue string

func (e errValue) Error() string { return "config: " + string(e) }
