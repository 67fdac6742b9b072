package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/sampler"
)

// parkTrap parks thread 1 in a trap on obj, as an admitted call's
// should_delay would, and returns once it is registered. The returned channel
// closes when the sleeper wakes.
func parkTrap(t *testing.T, rt *runtime, obj ids.ObjectID) chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.injectDelay(rt.threadStateFor(1), acc(1, obj, 101, KindWrite), 2*time.Second, 0, false)
	}()
	for i := 0; rt.parked.Load() == 0; i++ {
		if i > 50000 {
			t.Fatal("trap never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return done
}

// TestRejectedCallsStillSpringTraps: the countdown's skip path never hides a
// parked trap — at a probability that rejects practically every call, and
// while the interval cap rejects all of them, in every variant.
func TestRejectedCallsStillSpringTraps(t *testing.T) {
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB, config.AlgoDynamicRandom, config.AlgoStaticRandom} {
		for _, capped := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/capped=%v", algo, capped), func(t *testing.T) {
				cfg := modeConfig(algo, config.ModeSampled)
				cfg.SampleProbability = 1e-4
				if capped {
					cfg.OverheadTarget = 0.01
					cfg.SamplerInterval = time.Hour // no tick lifts the cap
				}
				det := mustNew(t, cfg)
				rt := &det.(interface{ base() *detectorBase }).base().rt
				if capped {
					rt.samp.Observe(sampler.LayerAnalysis, time.Hour)
					if !rt.samp.Snapshot().Capped {
						t.Fatal("charge did not trip the cap")
					}
				}
				// Run thread 2 into its countdown first, so the conflicting
				// call is a plain countdown decrement, not a refill.
				for i := 0; i < 3; i++ {
					det.OnCall(acc(2, 7, 102, KindRead))
				}
				done := parkTrap(t, rt, 1)
				det.OnCall(acc(2, 1, 102, KindWrite))
				<-done
				if len(det.Reports().Bugs()) != 1 {
					t.Fatalf("rejected call did not spring the parked trap: %+v", det.Stats())
				}
				if st := det.Stats(); st.OnCalls != 4 || st.CallsSampledOut != 4 {
					t.Fatalf("OnCalls = %d, CallsSampledOut = %d, want 4 and 4", st.OnCalls, st.CallsSampledOut)
				}
			})
		}
	}
}

// analysed counts the calls d ran its analysis on, from where the variant
// records them — TSVD's per-object publication counts, the others' per-thread
// tallies — not from the admission countdown the sampled-out count is
// derived from.
func analysed(rt *runtime) int64 {
	var n int64
	rt.threads.Each(func(_ int64, ts *threadState) { n += ts.onCalls.Load() })
	rt.objs.Each(func(_ int64, os *objState) { n += int64(os.ring.pub.Load() &^ ringClosed) })
	return n
}

// TestSampledCountersExact: with 8 goroutines on disjoint objects, OnCalls
// equals the calls issued and CallsSampledOut equals the calls that were not
// analysed, exactly, at every kind of probability — although a rejected call
// is counted by nothing but its countdown decrement.
func TestSampledCountersExact(t *testing.T) {
	const workers, calls = 8, 20000
	type variant struct {
		name   string
		p      float64
		target float64
	}
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB, config.AlgoDynamicRandom} {
		for _, v := range []variant{{"p=0", 0, 0}, {"p=0.01", 0.01, 0}, {"p=1", 1, 0}, {"auto", 1, 0.01}} {
			t.Run(fmt.Sprintf("%v/%s", algo, v.name), func(t *testing.T) {
				cfg := modeConfig(algo, config.ModeSampled)
				cfg.SampleProbability, cfg.OverheadTarget = v.p, v.target
				cfg.RandomDelayProbability = 0
				det := mustNew(t, cfg)
				rt := &det.(interface{ base() *detectorBase }).base().rt
				var wg sync.WaitGroup
				for w := 1; w <= workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						a := acc(ids.ThreadID(w), ids.ObjectID(w), ids.OpID(100+w), KindWrite)
						for i := 0; i < calls; i++ {
							det.OnCall(a)
						}
					}(w)
				}
				wg.Wait()
				st := det.Stats()
				if st.OnCalls != workers*calls {
					t.Errorf("OnCalls = %d, %d were issued", st.OnCalls, workers*calls)
				}
				if want := workers*calls - analysed(rt); st.CallsSampledOut != want {
					t.Errorf("CallsSampledOut = %d, but %d calls were not analysed", st.CallsSampledOut, want)
				}
				switch v.name {
				case "p=0":
					if st.CallsSampledOut != workers*calls {
						t.Errorf("p=0 sampled out %d of %d", st.CallsSampledOut, workers*calls)
					}
				case "p=1":
					if st.CallsSampledOut != 0 {
						t.Errorf("p=1 sampled out %d calls", st.CallsSampledOut)
					}
				case "p=0.01":
					n, p := float64(workers*calls), 0.99
					if dev := math.Abs(float64(st.CallsSampledOut) - n*p); dev > 6*math.Sqrt(n*p*(1-p)) {
						t.Errorf("p=0.01 sampled out %d of %d", st.CallsSampledOut, workers*calls)
					}
				case "auto":
					if st.CallsSampledOut == 0 {
						t.Error("a 1% target sampled nothing out of a hot loop")
					}
				}
			})
		}
	}
}

// TestPerSiteFractionsThroughOnCall is the detector-level view of the
// two-stage thinning (the sampler's own test checks every site against its
// assigned probability): after one rebalance, calls from cold sites are
// analysed at the global probability within a binomial bound, and the hot
// site well below it. Deterministic: seeded draws, hand-cranked clock, one
// goroutine per site driven in turn.
func TestPerSiteFractionsThroughOnCall(t *testing.T) {
	cfg := modeConfig(config.AlgoTSVDHB, config.ModeSampled)
	cfg.SampleProbability = 0.2
	cfg.OverheadTarget = 0.9
	cfg.SamplerInterval = time.Duration(float64(time.Hour) / cfg.TimeScale) // 1h after scaling: the cap is out of reach
	clk := &stepClock{}
	det := mustNew(t, cfg, WithClock(clk))
	rt := &det.(*TSVDHB).rt

	// One thread, one object and one site per program location, so the
	// thread's analysed-call tally is the site's.
	const hot, sitesN = 1, 5
	call := func(s int) { det.OnCall(acc(ids.ThreadID(s), ids.ObjectID(s), ids.OpID(100+s), KindWrite)) }
	admitted := func(s int) int64 { return rt.threads.Get(int64(s)).onCalls.Load() }

	// Interval one: the hot site makes 50× the calls of each cold one.
	for i := 0; i < 100_000; i++ {
		call(hot)
		if i%50 == 0 {
			for s := 2; s <= sitesN; s++ {
				call(s)
			}
		}
	}
	// Two hours pass: whatever was charged is negligible, so the tick doubles
	// the probability (the step clamp) and rebalances the sites.
	clk.at.Store(int64(2 * time.Hour))
	for i := 0; rt.stats.count[statSamplerThrottles].Load() == 0; i++ {
		if i > 2*sampler.MaxSkip {
			t.Fatal("no goroutine offered the controller its tick within a block")
		}
		call(2)
	}
	if p := rt.samp.Probability(); p != 0.4 {
		t.Fatalf("probability after the tick = %v, want 0.4", p)
	}
	// Let every countdown drawn under the old probability run out.
	for s := 1; s <= sitesN; s++ {
		for i := 0; i < sampler.MaxSkip; i++ {
			call(s)
		}
	}

	const n = 200_000
	frac := make([]float64, sitesN+1)
	for s := 1; s <= sitesN; s++ {
		before := admitted(s)
		for i := 0; i < n; i++ {
			call(s)
		}
		k := admitted(s) - before
		frac[s] = float64(k) / n
		if s != hot {
			if dev := math.Abs(float64(k) - n*0.4); dev > 5*math.Sqrt(n*0.4*0.6) {
				t.Errorf("cold site %d analysed %d of %d calls, want 0.4 of them", s, k, n)
			}
		}
	}
	if frac[hot] > 0.15 {
		t.Errorf("hot site analysed at %.3f, cold sites at %.3f: fairness should cut it to about 0.4/4.6", frac[hot], frac[2])
	}
	if rt.stats.count[statSamplerThrottles].Load() != 1 {
		t.Fatalf("%d ticks ran; the measurement assumes one", rt.stats.count[statSamplerThrottles].Load())
	}
}

// TestTickReachesEveryGoroutineWithinABlock: a countdown is drawn under the
// probability and cap of its moment, so it is stale for at most one block.
// After a tick lifts the cap, every goroutine — including one whose next
// call is a call site it has never executed — is admitted again within
// CappedSkip calls; and after a tick changes the probability, every
// goroutine draws under the new one within MaxSkip calls.
func TestTickReachesEveryGoroutineWithinABlock(t *testing.T) {
	const workers = 8
	cfg := modeConfig(config.AlgoTSVDHB, config.ModeSampled)
	cfg.SampleProbability = 1
	cfg.OverheadTarget = 0.5
	cfg.SamplerInterval = time.Duration(float64(time.Second) / cfg.TimeScale) // 1s after scaling
	clk := &stepClock{}
	det := mustNew(t, cfg, WithClock(clk))
	rt := &det.(*TSVDHB).rt
	call := func(w int, op ids.OpID) { det.OnCall(acc(ids.ThreadID(w), ids.ObjectID(w), op, KindWrite)) }
	admitted := func(w int) int64 { return rt.threads.Get(int64(w)).onCalls.Load() }

	for w := 1; w <= workers; w++ {
		call(w, 100)
		if admitted(w) != 1 {
			t.Fatalf("goroutine %d: first call at p=1 was not admitted", w)
		}
	}
	// Trip the cap (budget: half of one second) and run every goroutine into
	// a capped countdown.
	rt.samp.Observe(sampler.LayerAnalysis, 600*time.Millisecond)
	for w := 1; w <= workers; w++ {
		for i := 0; i < 3*sampler.CappedSkip; i++ {
			call(w, 100)
		}
		if admitted(w) != 1 {
			t.Fatalf("goroutine %d was admitted while capped", w)
		}
	}
	// Ten seconds on, 0.6 s charged is 6 % against a 50 % target: the first
	// goroutine to refill runs the tick, which lifts the cap and keeps p = 1.
	clk.at.Store(int64(10 * time.Second))
	for w := 1; w <= workers; w++ {
		newSite := ids.OpID(200 + w)
		for i := 1; admitted(w) == 1; i++ {
			if i > sampler.CappedSkip {
				t.Fatalf("goroutine %d still starved %d calls after the cap lifted", w, i)
			}
			call(w, newSite)
		}
	}
	if p := rt.samp.Probability(); p != 1 || rt.samp.Snapshot().Capped {
		t.Fatalf("after the lift: p = %v, capped = %v", p, rt.samp.Snapshot().Capped)
	}

	// Now a tick that changes the probability. At p = 1 nothing is stale, so
	// first go down: a heavy charge halves p at the next tick (p = 0.5), and
	// every goroutine must be drawing at weight 2 within one block.
	rt.samp.Observe(sampler.LayerAnalysis, time.Hour)
	clk.at.Store(int64(20 * time.Second))
	for i := 0; rt.stats.count[statSamplerThrottles].Load() < 2; i++ {
		if i > 2*sampler.CappedSkip {
			t.Fatal("goroutine 1 did not offer the controller its tick within a block")
		}
		call(1, 100)
	}
	if p := rt.samp.Probability(); p != 0.5 {
		t.Fatalf("probability after the overload tick = %v, want 0.5", p)
	}
	for w := 1; w <= workers; w++ {
		for i := 0; i <= sampler.MaxSkip; i++ {
			call(w, 100)
		}
		if wt := rt.threads.Get(int64(w)).weight; wt != 2 {
			t.Errorf("goroutine %d still draws at weight %d a block after p became 0.5", w, wt)
		}
	}
}

// TestShortLivedGoroutinesAreCharged: a goroutine's first gaps are short, so
// one that makes only a few calls has most of them charged at the floor
// before it exits mid-countdown.
func TestShortLivedGoroutinesAreCharged(t *testing.T) {
	cfg := modeConfig(config.AlgoTSVD, config.ModeSampled)
	cfg.SampleProbability = 0
	det := mustNew(t, cfg)
	rt := &det.(*TSVD).rt
	const goroutines, calls = 100, 20
	for g := 1; g <= goroutines; g++ {
		for i := 0; i < calls; i++ {
			det.OnCall(acc(ids.ThreadID(g), 1, 101, KindRead))
		}
	}
	perCall := rt.costs.skip + rt.costs.prologue
	charged := rt.samp.Snapshot().Layers[sampler.LayerSkip]
	if want := time.Duration(goroutines*calls) * perCall; charged < want/2 || charged > want {
		t.Fatalf("charged %v for %d rejected calls at %v each", charged, goroutines*calls, perCall)
	}
}
