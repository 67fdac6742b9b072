package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/trace"
)

// TestTracerStressUnderDetector drives a traced detector from many goroutines
// making genuinely conflicting accesses — so the full emission surface fires
// (near misses, pair adds, delays, possibly violations) — while a drainer
// loops concurrently. The tracer's buffer is tiny to force overwrites. At
// quiescence, the exactness invariant must hold:
//
//	emitted == drained + dropped
//
// Run under -race this also proves every emission path is data-race-free
// against concurrent Drain/Totals.
func TestTracerStressUnderDetector(t *testing.T) {
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB} {
		t.Run(algo.String(), func(t *testing.T) {
			cfg := testConfig(algo)
			cfg.Trace = true
			cfg.TraceBufferSize = 64 // force drops under load
			d := mustNew(t, cfg)
			tr := d.Tracer()
			if tr == nil {
				t.Fatal("Trace enabled but detector has no tracer")
			}

			const (
				goroutines = 6
				perG       = 400
			)
			stop := make(chan struct{})
			var drainWG sync.WaitGroup
			var drained int64
			drainWG.Add(1)
			go func() {
				defer drainWG.Done()
				for {
					drained += int64(len(tr.Drain()))
					select {
					case <-stop:
						return
					default:
						time.Sleep(100 * time.Microsecond)
					}
				}
			}()

			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						// All goroutines write the same few objects from a
						// small set of static locations: a near-miss factory.
						obj := ids.ObjectID(i % 3)
						op := ids.OpID(100 + g)
						d.OnCall(acc(ids.ThreadID(g+1), obj, op, KindWrite))
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			drainWG.Wait()
			drained += int64(len(tr.Drain()))

			tot := tr.Totals()
			if tot.Emitted == 0 {
				t.Fatal("conflicting workload emitted no events")
			}
			if tot.Buffered != 0 {
				t.Fatalf("buffered = %d after final drain", tot.Buffered)
			}
			if drained+tot.Dropped != tot.Emitted {
				t.Fatalf("accounting broken: drained %d + dropped %d != emitted %d",
					drained, tot.Dropped, tot.Emitted)
			}
		})
	}
}

// TestTracerDisabledMeansNil: tracing off must mean a nil tracer — the
// disabled path is the nil receiver, not an enabled-but-empty tracer.
func TestTracerDisabledMeansNil(t *testing.T) {
	for _, algo := range []config.Algorithm{
		config.AlgoTSVD, config.AlgoTSVDHB,
		config.AlgoDynamicRandom, config.AlgoStaticRandom,
	} {
		d := mustNew(t, testConfig(algo))
		if d.Tracer() != nil {
			t.Fatalf("%v: tracer present with Trace=false", algo)
		}
	}
	var nop NopDetector
	if nop.Tracer() != nil {
		t.Fatal("NopDetector has a tracer")
	}
}

// TestTracedDetectorEventsMatchStats: on a deterministic single-module
// workload, drained per-kind counts must equal the Stats counters — the same
// reconciliation the harness and tsvd-triage perform, pinned at the
// detector level.
func TestTracedDetectorEventsMatchStats(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.Trace = true
	d := mustNew(t, cfg)

	d1 := hammer(40, time.Millisecond, func(i int) { d.OnCall(acc(1, 5, 201, KindWrite)) })
	d2 := hammer(40, time.Millisecond, func(i int) { d.OnCall(acc(2, 5, 202, KindWrite)) })
	<-d1
	<-d2

	events := d.Tracer().Drain()
	tot := d.Tracer().Totals()
	if tot.Dropped != 0 {
		t.Fatalf("%d events dropped with default buffer", tot.Dropped)
	}
	counts := trace.CountByKind([]trace.ModuleTrace{{Events: events}})
	st := d.Stats()
	if err := trace.Reconcile(counts, trace.StatTotals{
		DelaysInjected:   st.DelaysInjected,
		NearMisses:       st.NearMisses,
		PairsAdded:       st.PairsAdded,
		PairsPrunedHB:    st.PairsPrunedHB,
		PairsPrunedDecay: st.PairsPrunedDecay,
		Violations:       st.Violations,
	}, trace.StoreTotals{}, tot.Dropped); err != nil {
		t.Fatal(err)
	}
	if counts["near_miss"] == 0 {
		t.Fatal("conflicting workload produced no near misses")
	}
}
