package core

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/metrics"
)

// modeConfig is testConfig with the sampling tier configured.
func modeConfig(algo config.Algorithm, mode config.Mode) config.Config {
	cfg := testConfig(algo)
	cfg.Mode = mode
	return cfg
}

// TestObserveOnlyInjectsNothing is the mode's core contract: the detector
// still finds near misses and decides to trap, but no thread ever sleeps —
// DelaysInjected and TotalDelay stay zero while DelaysSuppressed counts the
// logical trap firings.
func TestObserveOnlyInjectsNothing(t *testing.T) {
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB} {
		t.Run(algo.String(), func(t *testing.T) {
			d := mustNew(t, modeConfig(algo, config.ModeObserveOnly))
			const obj = ids.ObjectID(1)
			d1 := hammer(200, time.Millisecond, func(int) { d.OnCall(acc(1, obj, 101, KindWrite)) })
			d2 := hammer(200, time.Millisecond, func(int) { d.OnCall(acc(2, obj, 102, KindWrite)) })
			<-d1
			<-d2

			st := d.Stats()
			if st.DelaysInjected != 0 {
				t.Errorf("observe-only injected %d delays", st.DelaysInjected)
			}
			if st.TotalDelay != 0 {
				t.Errorf("observe-only slept %v", st.TotalDelay)
			}
			if st.NearMisses == 0 {
				t.Error("observe-only recorded no near misses; analysis should be unaffected")
			}
			if st.DelaysSuppressed == 0 {
				t.Error("observe-only never reached a trap decision; expected suppressed delays")
			}
			if ts, ok := d.(interface{ TrapSetSize() int }); ok && ts.TrapSetSize() == 0 {
				t.Error("observe-only kept no dangerous pairs; trap bookkeeping should continue")
			}
		})
	}
}

// TestObserveOnlyRandomVariants covers the same contract for the variants
// that route every delay through the shared injectDelay funnel.
func TestObserveOnlyRandomVariants(t *testing.T) {
	for _, algo := range []config.Algorithm{config.AlgoDynamicRandom, config.AlgoStaticRandom} {
		t.Run(algo.String(), func(t *testing.T) {
			d := mustNew(t, modeConfig(algo, config.ModeObserveOnly))
			const obj = ids.ObjectID(1)
			d1 := hammer(500, 0, func(int) { d.OnCall(acc(1, obj, 101, KindWrite)) })
			d2 := hammer(500, 0, func(int) { d.OnCall(acc(2, obj, 102, KindWrite)) })
			<-d1
			<-d2
			st := d.Stats()
			if st.DelaysInjected != 0 || st.TotalDelay != 0 {
				t.Errorf("observe-only injected: %d delays, %v slept", st.DelaysInjected, st.TotalDelay)
			}
			if st.DelaysSuppressed == 0 {
				t.Error("expected suppressed delays from the random planner")
			}
		})
	}
}

// TestSampledZeroProbabilitySkipsAnalysis: with p=0 every call is sampled
// out after the trap check — no near misses, no delays, all skips counted.
func TestSampledZeroProbabilitySkipsAnalysis(t *testing.T) {
	cfg := modeConfig(config.AlgoTSVD, config.ModeSampled)
	cfg.SampleProbability = 0
	d := mustNew(t, cfg)
	const obj = ids.ObjectID(1)
	d1 := hammer(200, 0, func(int) { d.OnCall(acc(1, obj, 101, KindWrite)) })
	d2 := hammer(200, 0, func(int) { d.OnCall(acc(2, obj, 102, KindWrite)) })
	<-d1
	<-d2
	st := d.Stats()
	if st.CallsSampledOut != 400 {
		t.Errorf("CallsSampledOut = %d, want 400", st.CallsSampledOut)
	}
	if st.OnCalls != 400 {
		t.Errorf("OnCalls = %d, want 400 (skips still count)", st.OnCalls)
	}
	if st.NearMisses != 0 || st.DelaysInjected != 0 {
		t.Errorf("p=0 ran analysis: %+v", st)
	}
}

// TestSampledFullProbabilityMatchesFull: p=1 with no overhead target admits
// everything; detection works exactly as in full mode.
func TestSampledFullProbabilityMatchesFull(t *testing.T) {
	cfg := modeConfig(config.AlgoTSVD, config.ModeSampled)
	cfg.SampleProbability = 1
	d := mustNew(t, cfg)
	const obj = ids.ObjectID(1)
	d1 := hammer(200, time.Millisecond, func(int) { d.OnCall(acc(1, obj, 101, KindWrite)) })
	d2 := hammer(200, time.Millisecond, func(int) { d.OnCall(acc(2, obj, 102, KindWrite)) })
	<-d1
	<-d2
	st := d.Stats()
	if st.CallsSampledOut != 0 {
		t.Errorf("p=1 sampled out %d calls", st.CallsSampledOut)
	}
	if st.NearMisses == 0 {
		t.Error("p=1 found no near misses")
	}
	if len(d.Reports().Bugs()) == 0 {
		t.Error("p=1 caught no violation on a hammered shared object")
	}
}

// TestSampledAutoThrottle: with an overhead target, a hot loop must drive
// the admission probability down from 1 and record controller adjustments
// in both Stats and the tsvd_sampler_probability gauge.
func TestSampledAutoThrottle(t *testing.T) {
	cfg := modeConfig(config.AlgoTSVD, config.ModeSampled)
	cfg.SampleProbability = 1
	cfg.OverheadTarget = 0.001
	cfg.SamplerInterval = 5 * time.Millisecond
	// Unscaled interval: Scaled(0.1) in testConfig already shrank TimeScale,
	// and EffectiveSamplerInterval scales again. Counteract for a fast test.
	cfg.SamplerInterval = time.Duration(float64(cfg.SamplerInterval) / cfg.TimeScale)

	reg := metrics.NewRegistry()
	m := NewDetectorMetrics(reg)
	d := mustNew(t, cfg, WithDetectorMetrics(m))

	const obj = ids.ObjectID(1)
	deadline := time.Now().Add(2 * time.Second)
	d1 := hammer(200000, 0, func(int) {
		if time.Now().Before(deadline) {
			d.OnCall(acc(1, obj, 101, KindWrite))
		}
	})
	d2 := hammer(200000, 0, func(int) {
		if time.Now().Before(deadline) {
			d.OnCall(acc(2, obj, 102, KindWrite))
		}
	})
	<-d1
	<-d2

	st := d.Stats()
	if st.SamplerThrottles == 0 {
		t.Fatalf("controller never ticked: %+v", st)
	}
	if st.CallsSampledOut == 0 {
		t.Fatal("controller ticked but nothing was sampled out; throttle had no effect")
	}
	got := reg.Values()
	if p := got["tsvd_sampler_probability"]; p >= 1 {
		t.Errorf("tsvd_sampler_probability = %v, want < 1 after throttling", p)
	}
	if got["tsvd_sampler_throttles_total"] != float64(st.SamplerThrottles) {
		t.Errorf("tsvd_sampler_throttles_total = %v, stats say %d",
			got["tsvd_sampler_throttles_total"], st.SamplerThrottles)
	}
	if got["tsvd_sampler_calls_sampled_out_total"] != float64(st.CallsSampledOut) {
		t.Errorf("tsvd_sampler_calls_sampled_out_total = %v, stats say %d",
			got["tsvd_sampler_calls_sampled_out_total"], st.CallsSampledOut)
	}
}

// TestSampledOutCallStillSpringsTraps pins the gate's soundness property:
// even at p=0, a call that conflicts with a parked trap is caught
// red-handed, because the gate sits after the trap check.
func TestSampledOutCallStillSpringsTraps(t *testing.T) {
	cfg := modeConfig(config.AlgoTSVD, config.ModeSampled)
	cfg.SampleProbability = 0
	det := mustNew(t, cfg)
	d := det.(*TSVD)

	// Park a trap directly through the runtime, exactly as an admitted
	// call's should_delay would, then hit the object from another thread.
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.rt.injectDelay(d.rt.threadStateFor(1), acc(1, 1, 101, KindWrite), 500*time.Millisecond, 0, false)
	}()
	for i := 0; i < 5000 && d.rt.parked.Load() == 0; i++ {
		time.Sleep(100 * time.Microsecond)
	}
	if d.rt.parked.Load() == 0 {
		t.Fatal("trap never parked")
	}

	det.OnCall(acc(2, 1, 102, KindWrite)) // sampled out, but must spring the trap
	<-done

	if len(det.Reports().Bugs()) == 0 {
		t.Fatal("sampled-out call failed to spring a parked trap")
	}
	if st := det.Stats(); st.CallsSampledOut != 1 {
		t.Fatalf("skip accounting after trap spring: %+v", st)
	}
}
