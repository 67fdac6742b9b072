package core

import (
	"bytes"
	"maps"
	"strings"
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
	mods := []trace.ModuleTrace{{Module: "m", Run: 1, Events: events}}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, mods[0], d.Sites()); err != nil {
		t.Fatal(err)
	}
	jes, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum := trace.Summary{
		Drained:  int64(len(jes)),
		Dropped:  tot.Dropped,
		ByKind:   trace.CountByKind(mods),
		Expected: d.Stats().TraceExpectations(),
	}
	if _, err := sum.Check(jes); err != nil {
		t.Fatal(err)
	}
	if sum.ByKind["near_miss"] == 0 {
		t.Fatal("conflicting workload produced no near misses")
	}
}

// TestSummaryCheckCatchesEveryOffByOne is the negative control of the trace
// accounting contract: on a trace that matches its summary exactly, moving
// any one expected count by one — of every kind a StatCounters row mirrors,
// and of every store kind — must fail Summary.Check, naming that kind. Which
// counter each kind mirrors is pinned here by name, independently of the
// table; delay_planned is the sum of a planned delay's four outcomes.
func TestSummaryCheckCatchesEveryOffByOne(t *testing.T) {
	st := Stats{
		OnCalls: 1, DelaysInjected: 2, TotalDelay: 3, NearMisses: 4,
		PairsAdded: 5, PairsPrunedHB: 6, PairsPrunedDecay: 7, Violations: 8,
		LocationsSeen: 9, LocationsSeenConcurrent: 10, SequentialSkips: 11,
		CallsSampledOut: 12, DelaysSuppressed: 13, SamplerThrottles: 14,
		DelaysSkippedOccupied: 18, DelaysSkippedBudget: 19, DelaysSkippedSequential: 20,
	}
	want := map[string]int64{
		"delay_planned": 2 + 13 + 18 + 19,
		"trap_set":      2, "delay_injected": 2, "near_miss": 4, "pair_added": 5,
		"pair_pruned_hb": 6, "pair_pruned_decay": 7, "trap_sprung": 8,
		"delay_suppressed": 13, "sampler_throttle": 14,
		"store_fetch": 15, "store_publish": 16, "store_fallback": 17,
	}
	expected := st.TraceExpectations()
	trace.StoreTotals{Fetches: 15, Publishes: 16, Fallbacks: 17}.Expect(expected)
	if !maps.Equal(expected, want) {
		t.Fatalf("expected counts %v, want %v", expected, want)
	}

	var jes []trace.JSONEvent
	for kind, n := range want {
		for range n {
			jes = append(jes, trace.JSONEvent{Ev: kind})
		}
	}
	sum := trace.Summary{Drained: int64(len(jes)), ByKind: want, Expected: expected}
	if _, err := sum.Check(jes); err != nil {
		t.Fatalf("exact trace rejected: %v", err)
	}
	for kind := range want {
		for _, delta := range []int64{-1, 1} {
			off := sum
			off.Expected = maps.Clone(expected)
			off.Expected[kind] += delta
			if _, err := off.Check(jes); err == nil || !strings.Contains(err.Error(), kind+" events") {
				t.Errorf("%s expected off by %+d: Check = %v", kind, delta, err)
			}
		}
	}
}
