package core

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// TestDynamicRandomFindsHotBug: with a high injection probability the
// random baseline does catch an always-overlapping hot-path bug.
func TestDynamicRandomFindsHotBug(t *testing.T) {
	cfg := testConfig(config.AlgoDynamicRandom)
	cfg.RandomDelayProbability = 0.5
	d := mustNew(t, cfg)
	const obj = ids.ObjectID(20)
	d1 := hammer(200, time.Millisecond, func(int) { d.OnCall(acc(1, obj, 2001, KindWrite)) })
	d2 := hammer(200, time.Millisecond, func(int) { d.OnCall(acc(2, obj, 2002, KindWrite)) })
	<-d1
	<-d2
	if d.Reports().UniqueBugs() == 0 {
		t.Fatal("DynamicRandom at p=0.5 missed an always-hot bug")
	}
	if d.ExportTraps() != nil {
		t.Fatal("DynamicRandom should have no trap set to export")
	}
}

// TestDynamicRandomInjectsEverywhere: delays land in sequential phases too —
// the indiscriminate behaviour that motivates TSVD (§3.4 intro).
func TestDynamicRandomInjectsEverywhere(t *testing.T) {
	cfg := testConfig(config.AlgoDynamicRandom)
	cfg.RandomDelayProbability = 1.0
	d := mustNew(t, cfg)
	// Entirely sequential single-threaded execution.
	for i := 0; i < 20; i++ {
		d.OnCall(acc(1, 21, 2101, KindWrite))
	}
	st := d.Stats()
	if st.DelaysInjected != 20 {
		t.Fatalf("DelaysInjected = %d, want 20 (p=1, no selectivity)", st.DelaysInjected)
	}
	if d.Reports().UniqueBugs() != 0 {
		t.Fatal("sequential run produced a report")
	}
}

// TestTSVDSkipsSequentialDelays is the contrast: TSVD injects nothing in a
// single-threaded run because no dangerous pair ever forms.
func TestTSVDSkipsSequentialDelays(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVD))
	for i := 0; i < 500; i++ {
		d.OnCall(acc(1, 22, 2201, KindWrite))
		d.OnCall(acc(1, 22, 2202, KindWrite))
	}
	if st := d.Stats(); st.DelaysInjected != 0 {
		t.Fatalf("TSVD injected %d delays into a sequential run", st.DelaysInjected)
	}
}

// TestStaticRandomSamplesStatically: a hot location fires at most once per
// sampling window regardless of how often it executes — unlike
// DynamicRandom, which piles delays onto the hot path (§3.3).
func TestStaticRandomSamplesStatically(t *testing.T) {
	cfg := testConfig(config.AlgoStaticRandom)
	cfg.StaticSampleProbability = 1.0 // arm deterministically
	d := mustNew(t, cfg)
	// Hot location: many executions across a few resample windows.
	const calls = 3 * resamplePeriod
	for i := 0; i < calls; i++ {
		d.OnCall(acc(1, 23, 2301, KindWrite))
	}
	st := d.Stats()
	// One firing opportunity per window (plus the initial arming), far
	// below the per-call volume DynamicRandom would produce.
	maxFires := int64(calls/resamplePeriod + 1)
	if st.DelaysInjected > maxFires {
		t.Fatalf("DelaysInjected = %d, want <= %d (static sampling)",
			st.DelaysInjected, maxFires)
	}
	if st.DelaysInjected == 0 {
		t.Fatal("static sampling never fired across three windows")
	}
}

func TestStaticRandomFindsBug(t *testing.T) {
	cfg := testConfig(config.AlgoStaticRandom)
	cfg.StaticSampleProbability = 1.0
	d := mustNew(t, cfg)
	const obj = ids.ObjectID(25)
	// Each location fires once per arming window, and a firing is wasted
	// when both threads trap in the same instant (neither is left to spring
	// the other's trap) — which a loaded machine makes likely for the very
	// first call. Run long enough for five windows, not two.
	const calls = 5 * resamplePeriod / 2
	d1 := hammer(calls, time.Millisecond, func(int) { d.OnCall(acc(1, obj, 2501, KindWrite)) })
	d2 := hammer(calls, time.Millisecond, func(int) { d.OnCall(acc(2, obj, 2502, KindWrite)) })
	<-d1
	<-d2
	if d.Reports().UniqueBugs() == 0 {
		t.Fatal("StaticRandom at p=1 missed the bug")
	}
}

// --- TSVDHB ---

// TestTSVDHBFindsConcurrentBug: unordered conflicting accesses form a
// dangerous pair and get caught exactly like TSVD.
func TestTSVDHBFindsConcurrentBug(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVDHB))
	const obj = ids.ObjectID(30)
	d1 := hammer(200, time.Millisecond, func(int) { d.OnCall(acc(1, obj, 3001, KindWrite)) })
	d2 := hammer(200, time.Millisecond, func(int) { d.OnCall(acc(2, obj, 3002, KindWrite)) })
	<-d1
	<-d2
	if d.Reports().UniqueBugs() == 0 {
		t.Fatal("TSVDHB missed a concurrent write-write bug")
	}
}

// TestTSVDHBForkJoinOrders: accesses ordered by fork or join never enter
// the trap set.
func TestTSVDHBForkJoinOrders(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVDHB)).(*TSVDHB)
	const obj = ids.ObjectID(31)

	// Parent writes, forks child, child writes: ordered by fork.
	d.OnCall(acc(1, obj, 3101, KindWrite))
	d.OnFork(1, 2)
	d.OnCall(acc(2, obj, 3102, KindWrite))
	// Child finishes; parent joins, then writes: ordered by join.
	d.OnJoin(1, 2)
	d.OnCall(acc(1, obj, 3103, KindWrite))

	if n := d.TrapSetSize(); n != 0 {
		t.Fatalf("fork/join-ordered accesses created %d dangerous pairs", n)
	}
	if st := d.Stats(); st.PairsPrunedHB == 0 {
		t.Fatalf("HB analysis ordered nothing: %+v", st)
	}
	if d.Reports().UniqueBugs() != 0 {
		t.Fatal("ordered accesses reported as a bug")
	}
}

// TestTSVDHBLockOrders: lock-protected accesses are HB-ordered via the
// lock's clock, so no dangerous pair forms (and no delay is wasted, unlike
// TSVD which must first infer the relationship).
func TestTSVDHBLockOrders(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVDHB)).(*TSVDHB)
	const obj = ids.ObjectID(32)
	const lock = ids.ObjectID(900)

	// Serialized lock regions with conflicting accesses inside. The test
	// serializes for determinism: thread 1's region, then thread 2's.
	d.OnLockAcquire(1, lock)
	d.OnCall(acc(1, obj, 3201, KindWrite))
	d.OnLockRelease(1, lock)

	d.OnLockAcquire(2, lock)
	d.OnCall(acc(2, obj, 3202, KindWrite))
	d.OnLockRelease(2, lock)

	if n := d.TrapSetSize(); n != 0 {
		t.Fatalf("lock-ordered accesses created %d dangerous pairs", n)
	}
	if d.Stats().DelaysInjected != 0 {
		t.Fatal("TSVDHB wasted a delay on lock-ordered accesses")
	}
}

// TestTSVDHBUnmonitoredSyncMissesEdges: TSVDHB only knows about
// synchronization it monitors. Ad-hoc synchronization (here: the test's own
// channel ordering, invisible to the detector) yields a dangerous pair even
// though the accesses are actually ordered — the spurious-pair weakness of
// HB analysis (§2.3). No false *report* can result: delays alone cannot
// make ordered accesses overlap.
func TestTSVDHBUnmonitoredSyncMissesEdges(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVDHB)).(*TSVDHB)
	const obj = ids.ObjectID(33)
	d.OnCall(acc(1, obj, 3301, KindWrite))
	// Real code would pass a baton through an un-instrumented channel
	// here; the detector sees nothing.
	d.OnCall(acc(2, obj, 3302, KindWrite))
	if n := d.TrapSetSize(); n == 0 {
		t.Fatal("expected a (spurious) dangerous pair for unmonitored sync")
	}
	if d.Reports().UniqueBugs() != 0 {
		t.Fatal("spurious pair must not produce a report")
	}
}

// TestTSVDHBTransitiveOrder: fork edges compose transitively through chains
// of tasks.
func TestTSVDHBTransitiveOrder(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVDHB)).(*TSVDHB)
	const obj = ids.ObjectID(34)
	d.OnCall(acc(1, obj, 3401, KindWrite))
	d.OnFork(1, 2)
	d.OnFork(2, 3)
	d.OnCall(acc(3, obj, 3402, KindWrite))
	if n := d.TrapSetSize(); n != 0 {
		t.Fatalf("transitively ordered accesses created %d pairs", n)
	}
}

// TestTSVDHBJoinReferenceFastPath: joining a task that performed no TSVD
// points leaves the waiter's clock untouched (same reference).
func TestTSVDHBJoinReferenceFastPath(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVDHB)).(*TSVDHB)
	d.OnCall(acc(1, 35, 3501, KindWrite))
	d.OnFork(1, 2)
	// Task 2 does nothing instrumented.
	d.OnJoin(1, 2)
	w := d.threadTree(1)
	c := d.threadTree(2)
	if !vclock.SameRef(w, c) {
		t.Fatal("join of an untouched task did not share the clock reference")
	}
}

func TestTSVDHBExportAndSeedTraps(t *testing.T) {
	cfg := testConfig(config.AlgoTSVDHB)
	d := mustNew(t, cfg).(*TSVDHB)
	const obj = ids.ObjectID(36)
	d.OnCall(acc(1, obj, 3601, KindWrite))
	d.OnCall(acc(2, obj, 3602, KindWrite)) // concurrent: pair added
	traps := d.ExportTraps()
	if len(traps) != 1 {
		t.Fatalf("ExportTraps = %v, want one pair", traps)
	}
	d2 := mustNew(t, cfg, WithInitialTraps(traps)).(*TSVDHB)
	if d2.TrapSetSize() != 1 {
		t.Fatal("seeded trap set empty")
	}
}

// TestRandomVariantsKeepNoTrapSet: DynamicRandom and StaticRandom ignore
// WithInitialTraps. Seeded with a pair and made to spring a trap, they count
// no pair, trace no pair_added, gauge an empty set and export nil.
func TestRandomVariantsKeepNoTrapSet(t *testing.T) {
	for _, algo := range []config.Algorithm{config.AlgoDynamicRandom, config.AlgoStaticRandom} {
		t.Run(algo.String(), func(t *testing.T) {
			cfg := testConfig(algo)
			cfg.RandomDelayProbability, cfg.StaticSampleProbability = 1, 1
			cfg.Trace = true
			reg := metrics.NewRegistry()
			clk := &scriptClock{}
			d := mustNew(t, cfg, WithClock(clk), WithDetectorMetrics(NewDetectorMetrics(reg)),
				WithInitialTraps([]report.PairKey{report.KeyOf(4101, 4102)}))
			// Thread 1's call delays, and inside its sleep thread 2's
			// conflicting call springs the trap.
			clk.during = func() { d.OnCall(acc(2, 41, 4102, KindWrite)) }
			d.OnCall(acc(1, 41, 4101, KindWrite))

			st := d.Stats()
			if st.Violations == 0 {
				t.Fatalf("no trap sprung: %+v", st)
			}
			if st.PairsAdded != 0 {
				t.Errorf("PairsAdded = %d, want 0", st.PairsAdded)
			}
			if ts, ok := d.(interface{ TrapSetSize() int }); ok && ts.TrapSetSize() != 0 {
				t.Errorf("TrapSetSize = %d, want 0", ts.TrapSetSize())
			}
			if n := reg.Values()["tsvd_detector_trap_set_pairs"]; n != 0 {
				t.Errorf("tsvd_detector_trap_set_pairs = %v, want 0", n)
			}
			for _, e := range d.Tracer().Drain() {
				if e.Kind == trace.KindPairAdded {
					t.Errorf("pair_added event %+v", e)
				}
			}
			if traps := d.ExportTraps(); traps != nil {
				t.Errorf("ExportTraps = %#v, want nil", traps)
			}
		})
	}
}
