package core_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/collections"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ids"
)

func sampledConfig(p, target float64) config.Config {
	cfg := config.Defaults(config.AlgoTSVD).Scaled(0.1)
	cfg.Mode = config.ModeSampled
	cfg.SampleProbability, cfg.OverheadTarget = p, target
	return cfg
}

// TestContainerCallStillSpringsTrap: a call through a public container asks
// the admission gate with only its goroutine id in hand and normally returns
// before it has a call site — but never past a parked trap, at a probability
// that rejects practically every call and while the interval cap rejects all
// of them.
func TestContainerCallStillSpringsTrap(t *testing.T) {
	for _, capped := range []bool{false, true} {
		cfg := sampledConfig(1e-4, 0)
		if capped {
			cfg.OverheadTarget = 0.01
			cfg.SamplerInterval = time.Hour // no tick lifts the cap
		}
		det, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if capped && !core.TripCap(det) {
			t.Fatal("charge did not trip the cap")
		}
		d := collections.NewDictionary[int, int](det)
		for i := 0; i < 3; i++ { // into the countdown: the next call is a plain decrement
			d.Set(i, i)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			core.InjectDelay(det, core.Access{
				Thread: 1 << 40, Obj: d.ObjectID(), Op: ids.InternKey("test/parked"), Kind: core.KindWrite,
			}, 2*time.Second)
		}()
		for i := 0; core.Parked(det) == 0; i++ {
			if i > 50000 {
				t.Fatal("trap never parked")
			}
			time.Sleep(100 * time.Microsecond)
		}
		d.Set(7, 7)
		<-done
		if n := len(det.Reports().Bugs()); n != 1 {
			t.Fatalf("capped=%v: container call did not spring the parked trap (%d bugs, %+v)", capped, n, det.Stats())
		}
		if st := det.Stats(); st.OnCalls != 4 || st.CallsSampledOut != 4 {
			t.Fatalf("capped=%v: OnCalls = %d, CallsSampledOut = %d, want 4 and 4", capped, st.OnCalls, st.CallsSampledOut)
		}
	}
}

// TestContainerCountersExact: OnCalls counts every call made through the
// public containers by 8 goroutines — the rejected ones never reach OnCall —
// and CallsSampledOut is all of them at p = 0 and none at p = 1.
func TestContainerCountersExact(t *testing.T) {
	const workers, calls = 8, 20000
	for _, v := range []struct {
		name      string
		p, target float64
	}{{"p=0", 0, 0}, {"p=0.01", 0.01, 0}, {"p=1", 1, 0}, {"auto", 1, 0.01}} {
		t.Run(v.name, func(t *testing.T) {
			det, err := core.New(sampledConfig(v.p, v.target))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					d := collections.NewDictionary[int, int](det)
					for i := 0; i < calls; i++ {
						if i%4 == 0 {
							d.Set(i&63, i)
						} else {
							d.ContainsKey(i & 63)
						}
					}
				}()
			}
			wg.Wait()
			st := det.Stats()
			if st.OnCalls != workers*calls {
				t.Errorf("OnCalls = %d, %d were issued", st.OnCalls, workers*calls)
			}
			switch {
			case v.p == 0 && st.CallsSampledOut != workers*calls:
				t.Errorf("p=0 sampled out %d of %d", st.CallsSampledOut, workers*calls)
			case v.p == 1 && v.target == 0 && st.CallsSampledOut != 0:
				t.Errorf("p=1 sampled out %d calls", st.CallsSampledOut)
			case v.p == 0.01 && (st.CallsSampledOut < workers*calls*98/100 || st.CallsSampledOut >= workers*calls):
				t.Errorf("p=0.01 sampled out %d of %d", st.CallsSampledOut, workers*calls)
			case v.target > 0 && st.CallsSampledOut == 0:
				t.Error("a 1% target sampled nothing out of a hot loop")
			}
			if st.DelaysInjected != 0 || det.Reports().UniqueBugs() != 0 {
				t.Errorf("conflict-free workload: %d delays, %d bugs", st.DelaysInjected, det.Reports().UniqueBugs())
			}
		})
	}
}
