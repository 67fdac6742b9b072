package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sites"
	"repro/internal/trace"
)

// testSites is the site registry of the package's test detectors: acc
// interns its accesses' sites here, so a detector built by testConfig or
// mustNew knows every site an acc access carries.
var testSites = sites.New()

// testConfig returns TSVD defaults scaled for fast tests: 10 ms delays and
// near-miss windows.
func testConfig(algo config.Algorithm) config.Config {
	cfg := config.Defaults(algo).Scaled(0.1)
	cfg.Sites = testSites
	return cfg
}

func mustNew(t *testing.T, cfg config.Config, opts ...Option) Detector {
	t.Helper()
	if cfg.Sites == nil {
		cfg.Sites = testSites
	}
	d, err := New(cfg, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

// acc is an access at the anonymous site of (op, kind): no class, no method.
func acc(thread ids.ThreadID, obj ids.ObjectID, op ids.OpID, kind Kind) Access {
	return Access{Thread: thread, Obj: obj, Op: op, Kind: kind,
		Site: testSites.Register(op, "", "", kind == KindWrite)}
}

// hammer runs fn in its own goroutine n times with the given pacing and
// returns a done channel.
func hammer(n int, pause time.Duration, fn func(i int)) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			fn(i)
			if pause > 0 {
				time.Sleep(pause)
			}
		}
	}()
	return done
}

// TestTSVDCatchesPlantedViolation is the core end-to-end property: two
// threads making conflicting writes to one object close together in time
// must be caught red-handed within one "run".
func TestTSVDCatchesPlantedViolation(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVD))
	const obj = ids.ObjectID(1)
	const op1, op2 = ids.OpID(101), ids.OpID(102)

	d1 := hammer(200, time.Millisecond, func(int) { d.OnCall(acc(1, obj, op1, KindWrite)) })
	d2 := hammer(200, time.Millisecond, func(int) { d.OnCall(acc(2, obj, op2, KindWrite)) })
	<-d1
	<-d2

	bugs := d.Reports().Bugs()
	if len(bugs) == 0 {
		t.Fatal("planted write-write violation not detected")
	}
	found := false
	for _, b := range bugs {
		if b.Key == report.KeyOf(op1, op2) {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected pair (101,102), got %+v", bugs)
	}
	st := d.Stats()
	if st.NearMisses == 0 || st.PairsAdded == 0 || st.DelaysInjected == 0 {
		t.Fatalf("stats incomplete: %+v", st)
	}
}

// TestTSVDReadWriteConflict checks the read side of the contract.
func TestTSVDReadWriteConflict(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVD))
	const obj = ids.ObjectID(2)
	d1 := hammer(200, time.Millisecond, func(int) { d.OnCall(acc(1, obj, 201, KindWrite)) })
	d2 := hammer(200, time.Millisecond, func(int) { d.OnCall(acc(2, obj, 202, KindRead)) })
	<-d1
	<-d2
	if d.Reports().UniqueBugs() == 0 {
		t.Fatal("read-write violation not detected")
	}
	v := d.Reports().Violations()[0]
	if !v.ReadWrite() {
		t.Fatalf("violation misclassified: %+v", v)
	}
}

// TestTSVDNoFalsePositiveOnReads: concurrent reads never violate the
// contract and must never be reported, no matter how tight the interleaving.
func TestTSVDNoFalsePositiveOnReads(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVD))
	const obj = ids.ObjectID(3)
	d1 := hammer(300, 0, func(int) { d.OnCall(acc(1, obj, 301, KindRead)) })
	d2 := hammer(300, 0, func(int) { d.OnCall(acc(2, obj, 302, KindRead)) })
	<-d1
	<-d2
	if n := d.Reports().UniqueBugs(); n != 0 {
		t.Fatalf("reported %d bugs for read-read accesses", n)
	}
	if st := d.Stats(); st.NearMisses != 0 {
		t.Fatalf("read-read counted as near miss: %+v", st)
	}
}

// TestTSVDNoFalsePositiveSameThread: one thread interleaving writes on one
// object is sequential by definition.
func TestTSVDNoFalsePositiveSameThread(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVD))
	const obj = ids.ObjectID(4)
	for i := 0; i < 500; i++ {
		d.OnCall(acc(1, obj, 401, KindWrite))
		d.OnCall(acc(1, obj, 402, KindWrite))
	}
	if n := d.Reports().UniqueBugs(); n != 0 {
		t.Fatalf("reported %d bugs for single-threaded accesses", n)
	}
}

// TestTSVDNoFalsePositiveDifferentObjects: conflicting ops on different
// objects are not violations.
func TestTSVDNoFalsePositiveDifferentObjects(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVD))
	d1 := hammer(300, 0, func(int) { d.OnCall(acc(1, 5, 501, KindWrite)) })
	d2 := hammer(300, 0, func(int) { d.OnCall(acc(2, 6, 502, KindWrite)) })
	<-d1
	<-d2
	if n := d.Reports().UniqueBugs(); n != 0 {
		t.Fatalf("reported %d bugs across distinct objects", n)
	}
}

// TestEveryViolationIsGenuine asserts the red-handed invariant on every
// report a chaotic workload produces: different threads, same object,
// at least one write.
func TestEveryViolationIsGenuine(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVD))
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tid := ids.ThreadID(g + 1)
			for i := 0; i < 150; i++ {
				obj := ids.ObjectID(i % 3)
				kind := KindRead
				if i%2 == 0 {
					kind = KindWrite
				}
				d.OnCall(acc(tid, obj, ids.OpID(600+g), kind))
			}
		}(g)
	}
	wg.Wait()
	for _, v := range d.Reports().Violations() {
		if v.Trapped.Thread == v.Conflicting.Thread {
			t.Fatalf("violation within one thread: %+v", v)
		}
		if !v.Trapped.Write && !v.Conflicting.Write {
			t.Fatalf("read-read violation reported: %+v", v)
		}
		if v.Trapped.Stack == "" || v.Conflicting.Stack == "" {
			t.Fatalf("violation missing a stack trace")
		}
	}
}

// TestNearMissWindowing: accesses farther apart than T_nm are not near
// misses; with windowing disabled (Table 3 "No windowing") they are.
func TestNearMissWindowing(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.DisablePhaseDetection = true // isolate the windowing decision
	cfg.DisableHBInference = true
	window := cfg.EffectiveNearMissWindow()

	d := mustNew(t, cfg)
	const obj = ids.ObjectID(7)
	// Alternate threads with gaps of 3 windows between accesses.
	for i := 0; i < 4; i++ {
		tid := ids.ThreadID(1 + i%2)
		d.OnCall(acc(tid, obj, ids.OpID(701+i%2), KindWrite))
		time.Sleep(3 * window)
	}
	if st := d.Stats(); st.NearMisses != 0 {
		t.Fatalf("distant accesses counted as near misses: %+v", st)
	}

	cfg.DisableNearMissWindow = true
	d2 := mustNew(t, cfg)
	for i := 0; i < 4; i++ {
		tid := ids.ThreadID(1 + i%2)
		d2.OnCall(acc(tid, obj, ids.OpID(701+i%2), KindWrite))
		time.Sleep(3 * window)
	}
	if st := d2.Stats(); st.NearMisses == 0 {
		t.Fatalf("windowing disabled but no near miss recorded: %+v", st)
	}
}

// TestPhaseDetectionSuppressesSequential: when all recent TSVD points come
// from one thread the program is in a sequential phase and near misses are
// not turned into dangerous pairs — and one foreign point mid-flood makes the
// flooding thread wait all over again.
func TestPhaseDetectionSuppressesSequential(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	const w = 8
	cfg.PhaseBufferSize = w
	// The first near miss earns a delay, which would age thread 2's access
	// out of the window before the second sighting.
	cfg.DisableNearMissWindow = true
	d := mustNew(t, cfg)
	const obj = ids.ObjectID(8)
	flood := func(n int) {
		for i := 0; i < n; i++ {
			d.OnCall(acc(1, 900, 802, KindWrite)) // different object
		}
	}
	// Thread 2 touches the object once; thread 1 floods, but thread 2 comes
	// back for one call on yet another object, so w-1 calls later the last w
	// points still hold two threads.
	d.OnCall(acc(2, obj, 801, KindWrite))
	flood(w)
	d.OnCall(acc(2, 901, 804, KindWrite))
	flood(w - 2)
	d.OnCall(acc(1, obj, 803, KindWrite)) // near miss vs 801, concurrent phase
	if st := d.Stats(); st.NearMisses != 1 || st.SequentialSkips != 0 {
		t.Fatalf("a foreign call %d points back did not keep the phase concurrent: %+v", w-1, st)
	}
	// Now thread 1 floods w calls: the last w points before its next
	// sighting next to thread 2's access are all its own, "sequential".
	flood(w)
	d.OnCall(acc(1, obj, 805, KindWrite))
	if st := d.Stats(); st.NearMisses != 1 || st.SequentialSkips == 0 {
		t.Fatalf("sequential phase not detected: %+v", st)
	}
}

// TestHBInferencePrunesLockedPairs reproduces Figure 6: two locations
// consistently protected by one lock. The injected delay at loc1 stalls the
// other thread's lock acquisition, TSVD attributes the stall to the delay,
// infers HB, prunes the pair, and never reports a violation.
func TestHBInferencePrunesLockedPairs(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	d := mustNew(t, cfg)
	const obj = ids.ObjectID(9)
	var mu sync.Mutex

	worker := func(tid ids.ThreadID, op ids.OpID) chan struct{} {
		return hammer(60, time.Millisecond, func(int) {
			mu.Lock()
			d.OnCall(acc(tid, obj, op, KindWrite))
			mu.Unlock()
		})
	}
	d1 := worker(1, 901)
	d2 := worker(2, 902)
	<-d1
	<-d2

	if n := d.Reports().UniqueBugs(); n != 0 {
		t.Fatalf("lock-protected accesses reported as %d violations", n)
	}
	if st := d.Stats(); st.PairsPrunedHB == 0 {
		t.Fatalf("no HB pruning happened: %+v", st)
	}
}

// TestDecayPrunesUnproductivePairs: a pair that near-missed once but whose
// sides never actually overlap decays away and stops costing delays. At the
// default factor 0.5 it takes six failed delays to fall below the 0.02 prune
// threshold, the last of them at a delay probability of 1/32: enough
// iterations that the sixth is all but certain to come.
func TestDecayPrunesUnproductivePairs(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.DisableHBInference = true // isolate decay from HB pruning
	d := mustNew(t, cfg).(*TSVD)
	const obj = ids.ObjectID(10)

	// Strict ping-pong: the threads alternate through channels, so their
	// OnCalls are near misses in time but can never overlap.
	ping, pong := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	const iters = 400
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			d.OnCall(acc(1, obj, 1001, KindWrite))
			ping <- struct{}{}
			<-pong
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			<-ping
			d.OnCall(acc(2, obj, 1002, KindWrite))
			pong <- struct{}{}
		}
	}()
	wg.Wait()

	st := d.Stats()
	if st.PairsAdded == 0 {
		t.Fatalf("ping-pong produced no dangerous pair: %+v", st)
	}
	if st.PairsPrunedDecay == 0 {
		t.Fatalf("unproductive pair never decayed: %+v", st)
	}
	if d.TrapSetSize() != 0 {
		t.Fatalf("trap set still holds %d pairs", d.TrapSetSize())
	}
	// With default decay 0.5 and prune threshold 0.02, a location dies
	// after ~6 failed delays; both endpoints get delayed so the budget is
	// roughly double. Far fewer than the 2*iters=800 occurrences.
	if st.DelaysInjected > 30 {
		t.Fatalf("decay did not curb delays: %d injected", st.DelaysInjected)
	}
}

// TestProductiveDelayDoesNotDecay: only a delay that caught nothing decays
// its location (§3.4.5). A seeded delay at 8001 that springs on 8002 bans that
// pair and leaves 8001's other pair, with 8003, live at probability 1.
func TestProductiveDelayDoesNotDecay(t *testing.T) {
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB} {
		t.Run(algo.String(), func(t *testing.T) {
			clk := &scriptClock{}
			d := mustNew(t, testConfig(algo), WithClock(clk),
				WithInitialTraps([]report.PairKey{report.KeyOf(8001, 8002), report.KeyOf(8001, 8003)}))
			ActivateThread(d, 2)
			clk.during = func() { d.OnCall(acc(2, 80, 8002, KindWrite)) }
			d.OnCall(acc(1, 80, 8001, KindWrite))
			if st := d.Stats(); st.DelaysInjected != 1 || st.Violations != 1 {
				t.Fatalf("want one delay, sprung: %+v", st)
			}
			if traps := d.ExportTraps(); len(traps) != 1 || traps[0] != report.KeyOf(8001, 8003) {
				t.Fatalf("trap set %v, want only (8001,8003)", traps)
			}
			if p, _ := runtimeOf(d).set.eligible(8001, false); p != 1 {
				t.Fatalf("P(8001) = %v after a productive delay, want 1", p)
			}
		})
	}
}

// TestDelayLeavesNoTrapBehind: a trap is on its object only while its
// thread sleeps. After thread 1's delay on object 83 has returned, thread 2's
// conflicting call there — made while thread 3 is parked elsewhere, so the
// red-handed check runs — catches nothing.
func TestDelayLeavesNoTrapBehind(t *testing.T) {
	clk := &scriptClock{}
	d := mustNew(t, testConfig(config.AlgoTSVD), WithClock(clk),
		WithInitialTraps([]report.PairKey{report.KeyOf(8201, 8202), report.KeyOf(8203, 8204)}))
	ActivateThread(d, 2)
	d.OnCall(acc(1, 83, 8201, KindWrite))
	clk.during = func() { d.OnCall(acc(2, 83, 8202, KindWrite)) }
	d.OnCall(acc(3, 84, 8203, KindWrite))
	if st := d.Stats(); st.DelaysInjected < 2 || st.Violations != 0 {
		t.Fatalf("want two delays and no violation: %+v", st)
	}
}

// overshootClock is scriptClock with delays that overlap and overrun: a
// Sleep runs during inside its first level and ends over past its request
// measured from its own start, however long what ran during it took — two
// threads sleeping at once, each woken late by its timer.
type overshootClock struct {
	scriptClock
	over time.Duration
}

func (c *overshootClock) Sleep(d time.Duration, _ <-chan struct{}) (time.Duration, bool) {
	start := c.at
	if c.during != nil && !c.inside {
		c.inside = true
		c.during()
		c.inside = false
	}
	c.at = max(c.at, start+d+c.over)
	return c.at - start, false
}

// TestDelayOvershootIsOwnDelay: a delay is accounted at what it lasted, not
// at what was asked. Thread 1 sleeps at 8401 while thread 2 sleeps at 8403;
// both timers fire later than asked by more than δ_hb·DelayTime. Thread 1's
// next call, right after it wakes, is no blocked gap: its overrun is its own
// delay, so the pair (8403, 8405) is not pruned as happens-before ordered by
// thread 2's delay, and the totals count both sleeps in full.
func TestDelayOvershootIsOwnDelay(t *testing.T) {
	clk := &overshootClock{}
	d := mustNew(t, testConfig(config.AlgoTSVD), WithClock(clk),
		WithInitialTraps([]report.PairKey{report.KeyOf(8401, 8402), report.KeyOf(8403, 8405)}))
	over := 2*runtimeOf(d).hbThreshold + time.Millisecond
	clk.over = over
	ActivateThread(d, 2)
	clk.during = func() { d.OnCall(acc(2, 86, 8403, KindWrite)) }
	d.OnCall(acc(1, 85, 8401, KindWrite))
	clk.at += time.Microsecond
	d.OnCall(acc(1, 87, 8405, KindRead))
	st := d.Stats()
	if st.PairsPrunedHB != 0 {
		t.Errorf("thread 1's own overrun of %v was read as a blocked gap: %d pair(s) pruned", over, st.PairsPrunedHB)
	}
	if want := 2 * (runtimeOf(d).delayTime + over); st.DelaysInjected != 2 || st.TotalDelay != want {
		t.Errorf("%d delays totalling %v, want 2 totalling %v", st.DelaysInjected, st.TotalDelay, want)
	}
}

// TestAvoidOverlappingDelays: one parked thread per object. Thread 1 delays
// reading 81 at 8101; inside its sleep thread 2 reads at 8103, a side of
// another live pair. On object 81, already held by thread 1's trap, thread 2
// injects nothing, gets its budget back and the skip is counted; on object 82
// it delays too.
func TestAvoidOverlappingDelays(t *testing.T) {
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB} {
		for _, obj := range []ids.ObjectID{81, 82} {
			cfg := testConfig(algo)
			cfg.Trace = true
			clk := &scriptClock{}
			d := mustNew(t, cfg, WithClock(clk),
				WithInitialTraps([]report.PairKey{report.KeyOf(8101, 8102), report.KeyOf(8103, 8104)}))
			ActivateThread(d, 2)
			clk.during = func() { d.OnCall(acc(2, obj, 8103, KindRead)) }
			d.OnCall(acc(1, 81, 8101, KindRead))
			want, skipped, charged := int64(2), int64(0), runtimeOf(d).delayTime
			if obj == 81 {
				want, skipped, charged = 1, 1, 0
			}
			st := d.Stats()
			if st.DelaysInjected != want || st.DelaysSkippedOccupied != skipped {
				t.Errorf("%v, thread 2 on object %d: %d delays, %d skipped, want %d and %d",
					algo, obj, st.DelaysInjected, st.DelaysSkippedOccupied, want, skipped)
			}
			if used := runtimeOf(d).threadStateFor(2).budget.Used(); used != charged {
				t.Errorf("%v, thread 2 on object %d: budget charged %v, want %v", algo, obj, used, charged)
			}
			traps := 0
			for _, e := range d.Tracer().Drain() {
				if e.Kind == trace.KindTrapSet {
					traps++
				}
			}
			if int64(traps) != want {
				t.Errorf("%v, thread 2 on object %d: %d trap_set events, want %d", algo, obj, traps, want)
			}
		}
	}
}

// TestEveryPlannedDelayHasOneOutcome: each delay_planned event is counted by
// exactly one outcome counter, so a traced run's summary reconciles the plans
// against their sum. Thread 1, with a budget of one delay, delays at 8101 on
// object 81; inside the sleep thread 2 plans a delay at 8103 on the same
// object and skips it as occupied. Thread 1's next plan at 8101 finds its
// budget spent.
func TestEveryPlannedDelayHasOneOutcome(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.Trace = true
	cfg.DecayFactor = 0 // every plan wins its coin flip
	cfg.MaxDelayPerThread = cfg.DelayTime
	clk := &scriptClock{}
	d := mustNew(t, cfg, WithClock(clk),
		WithInitialTraps([]report.PairKey{report.KeyOf(8101, 8102), report.KeyOf(8103, 8104)}))
	ActivateThread(d, 2)
	clk.during = func() { d.OnCall(acc(2, 81, 8103, KindRead)) }
	d.OnCall(acc(1, 81, 8101, KindRead))
	clk.during = nil
	ActivateThread(d, 2)
	d.OnCall(acc(1, 81, 8101, KindRead))

	st := d.Stats()
	if st.DelaysInjected != 1 || st.DelaysSkippedOccupied != 1 || st.DelaysSkippedBudget != 1 {
		t.Fatalf("%d injected, %d skipped occupied, %d skipped for the budget; want 1 of each",
			st.DelaysInjected, st.DelaysSkippedOccupied, st.DelaysSkippedBudget)
	}
	events := d.Tracer().Drain()
	mods := []trace.ModuleTrace{{Module: "m", Run: 1, Events: events}}
	jes := make([]trace.JSONEvent, len(events))
	for i := range events {
		jes[i].Ev = events[i].Kind.String()
	}
	sum := trace.Summary{
		Drained:  int64(len(events)),
		ByKind:   trace.CountByKind(mods),
		Expected: st.TraceExpectations(),
	}
	if sum.ByKind["delay_planned"] != 3 {
		t.Fatalf("%d delay_planned events, want 3", sum.ByKind["delay_planned"])
	}
	if _, err := sum.Check(jes); err != nil {
		t.Fatal(err)
	}
}

// parkCountClock is the real clock, counting the threads inside a delay.
type parkCountClock struct {
	clock.Real
	in, most atomic.Int32
}

func (c *parkCountClock) Sleep(d time.Duration, cancel <-chan struct{}) (time.Duration, bool) {
	n := c.in.Add(1)
	for m := c.most.Load(); n > m && !c.most.CompareAndSwap(m, n); m = c.most.Load() {
	}
	defer c.in.Add(-1)
	return c.Real.Sleep(d, cancel)
}

// TestNoTwoThreadsParkOnOneObject: four threads read one object at sides of
// live pairs, concurrently, under the real clock. A thread's sleep lies
// inside its trap's registration, so at most one thread is ever inside a
// delay, and the others' delays are counted as skipped.
func TestNoTwoThreadsParkOnOneObject(t *testing.T) {
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB} {
		t.Run(algo.String(), func(t *testing.T) {
			cfg := testConfig(algo)
			cfg.DecayFactor = 0
			cfg.MaxDelayPerThread = 0
			clk := &parkCountClock{}
			var pairs []report.PairKey
			for op := ids.OpID(8601); op <= 8604; op++ {
				pairs = append(pairs, report.KeyOf(op, op+100))
			}
			d := mustNew(t, cfg, WithClock(clk), WithInitialTraps(pairs))
			var wg sync.WaitGroup
			for th := ids.ThreadID(1); th <= 4; th++ {
				ActivateThread(d, th)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range 20 {
						d.OnCall(acc(th, 86, 8600+ids.OpID(th), KindRead))
					}
				}()
			}
			wg.Wait()
			st := d.Stats()
			if most := clk.most.Load(); most != 1 {
				t.Errorf("%d threads parked on one object at once, want 1", most)
			}
			if st.DelaysInjected == 0 || st.DelaysSkippedOccupied == 0 {
				t.Errorf("%d delays, %d skipped: want both", st.DelaysInjected, st.DelaysSkippedOccupied)
			}
		})
	}
}

// TestSkippedDelayLeavesTheCatchToTheNextCall is the shape of a planted
// cache bug on the benchmark's suite: two tasks reach ContainsKey on one
// cache together, and each Adds a little more than δ_hb·DelayTime later.
// Thread 1 delays at ContainsKey. Thread 2's ContainsKey, on the object
// thread 1 is parked on, does not delay, so its Add runs into thread 1's
// trap. Had thread 2 delayed as well, it could wake with thread 1 gone, and
// HB inference would charge the gap before its Add to thread 1's delay and
// prune the pair.
func TestSkippedDelayLeavesTheCatchToTheNextCall(t *testing.T) {
	const contains, add = 930, 931
	clk := &scriptClock{timer: true}
	d := mustNew(t, testConfig(config.AlgoTSVD), WithClock(clk),
		WithInitialTraps([]report.PairKey{report.KeyOf(contains, add)}))
	drive(d, clk, []renewStep{
		call(time.Millisecond, 2, 99, 999, KindRead), // a second thread: the phase is concurrent
		call(time.Millisecond, 1, 1, contains, KindRead),
		call(10*time.Microsecond, 2, 1, contains, KindRead),
		call(runtimeOf(d).hbThreshold+150*time.Microsecond, 2, 1, add, KindWrite),
	})
	st := d.Stats()
	if st.DelaysInjected != 1 || st.DelaysSkippedOccupied != 1 || st.Violations != 1 || st.PairsPrunedHB != 0 {
		t.Fatalf("want one delay, one skipped, the trap sprung and no HB prune: %+v", st)
	}
}

// TestDecayDisabledKeepsDelaying is Fig. 9g's pathological factor-0 setup.
func TestDecayDisabledKeepsDelaying(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.DisableHBInference = true
	cfg.DecayFactor = 0
	d := mustNew(t, cfg).(*TSVD)
	const obj = ids.ObjectID(11)

	ping, pong := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	const iters = 30
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			d.OnCall(acc(1, obj, 1101, KindWrite))
			ping <- struct{}{}
			<-pong
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			<-ping
			d.OnCall(acc(2, obj, 1102, KindWrite))
			pong <- struct{}{}
		}
	}()
	wg.Wait()

	st := d.Stats()
	if st.PairsPrunedDecay != 0 {
		t.Fatalf("decay disabled but pairs pruned: %+v", st)
	}
	// Every occurrence after the first near miss should inject (P stays 1).
	if st.DelaysInjected < 40 {
		t.Fatalf("expected sustained delays with no decay, got %d", st.DelaysInjected)
	}
}

// TestTrapFilePersistence is §3.4.6's two-run scheme: the bug's two sides
// run together only once per run, after the near miss has already passed.
// Run 1 can only learn the pair; run 2, seeded with the trap file, traps on
// the very first occurrence and catches the bug.
func TestTrapFilePersistence(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.DisableHBInference = true
	const obj = ids.ObjectID(12)
	const op1, op2 = ids.OpID(1201), ids.OpID(1202)

	// Run 1: a single near-miss (strictly serialized, no overlap chance).
	run1 := mustNew(t, cfg)
	run1.OnCall(acc(1, obj, op1, KindWrite))
	run1.OnCall(acc(2, obj, op2, KindWrite))
	if run1.Reports().UniqueBugs() != 0 {
		t.Fatal("run 1 unexpectedly reported the bug")
	}
	traps := run1.ExportTraps()
	if len(traps) == 0 {
		t.Fatal("run 1 exported no dangerous pairs")
	}

	// Run 2: the pair is known from the trap file, so the very first
	// occurrence of op1 sets a trap, and op2 arrives during the delay.
	run2 := mustNew(t, cfg, WithInitialTraps(traps))
	ActivateThread(run2, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		run2.OnCall(acc(1, obj, op1, KindWrite)) // delays: op1 is in the trap set
	}()
	go func() {
		defer wg.Done()
		time.Sleep(cfg.EffectiveDelay() / 4) // land inside the delay
		run2.OnCall(acc(2, obj, op2, KindWrite))
	}()
	wg.Wait()
	if run2.Reports().UniqueBugs() == 0 {
		t.Fatal("run 2 with trap file missed the single-occurrence bug")
	}
}

// TestSameLocationBug: the same static location racing with itself from two
// threads (34% of the paper's bugs) must be representable and detectable.
func TestSameLocationBug(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVD))
	const obj = ids.ObjectID(13)
	const op = ids.OpID(1301)
	d1 := hammer(200, time.Millisecond, func(int) { d.OnCall(acc(1, obj, op, KindWrite)) })
	d2 := hammer(200, time.Millisecond, func(int) { d.OnCall(acc(2, obj, op, KindWrite)) })
	<-d1
	<-d2
	bugs := d.Reports().Bugs()
	if len(bugs) == 0 {
		t.Fatal("same-location bug not detected")
	}
	if !bugs[0].First.SameLocation() {
		t.Fatalf("bug not classified same-location: %+v", bugs[0].Key)
	}
}

// TestMaxDelayBudget: the per-thread delay cap stops injection eventually.
func TestMaxDelayBudget(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.DisableHBInference = true
	cfg.DecayFactor = 0 // keep wanting to delay forever
	cfg.MaxDelayPerThread = 5 * cfg.DelayTime
	d := mustNew(t, cfg)
	const obj = ids.ObjectID(14)

	ping, pong := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	const iters = 20
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			d.OnCall(acc(1, obj, 1401, KindWrite))
			ping <- struct{}{}
			<-pong
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			<-ping
			d.OnCall(acc(2, obj, 1402, KindWrite))
			pong <- struct{}{}
		}
	}()
	wg.Wait()

	st := d.Stats()
	max := 2 * cfg.EffectiveMaxDelayPerThread() // two threads
	if st.TotalDelay > max+2*cfg.EffectiveDelay() {
		t.Fatalf("TotalDelay %v exceeds budget %v", st.TotalDelay, max)
	}
}

// TestViolationWakesTrapEarly: catching a conflict releases the sleeper
// before its full delay elapses.
func TestViolationWakesTrapEarly(t *testing.T) {
	cfg := config.Defaults(config.AlgoTSVD) // full 100ms delay
	cfg.DisableHBInference = true
	d := mustNew(t, cfg, WithInitialTraps([]report.PairKey{report.KeyOf(1501, 1502)}))
	const obj = ids.ObjectID(15)
	ActivateThread(d, 2)

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		d.OnCall(acc(1, obj, 1501, KindWrite)) // traps for up to 100ms
	}()
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		d.OnCall(acc(2, obj, 1502, KindWrite)) // conflict: wakes the trap
	}()
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 80*time.Millisecond {
		t.Fatalf("trap not woken early: took %v", elapsed)
	}
	if d.Reports().UniqueBugs() != 1 {
		t.Fatalf("UniqueBugs = %d, want 1", d.Reports().UniqueBugs())
	}
}

// TestViolationReportedOncePerPair: a found pair is suppressed; repeated
// overlap does not inflate the unique-bug count (occurrences may grow).
func TestViolationPairSuppressedAfterReport(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVD)).(*TSVD)
	const obj = ids.ObjectID(16)
	d1 := hammer(150, time.Millisecond, func(int) { d.OnCall(acc(1, obj, 1601, KindWrite)) })
	d2 := hammer(150, time.Millisecond, func(int) { d.OnCall(acc(2, obj, 1602, KindWrite)) })
	<-d1
	<-d2
	if got := d.Reports().UniqueBugs(); got != 1 {
		t.Fatalf("UniqueBugs = %d, want 1", got)
	}
	if d.TrapSetSize() != 0 {
		t.Fatalf("found pair still in trap set")
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := config.Defaults(config.AlgoTSVD)
	cfg.ObjHistory = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
	bad := config.Defaults(config.Algorithm(42))
	if _, err := New(bad); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestNopDetectorInert(t *testing.T) {
	d := NewNop()
	d.OnCall(acc(1, 1, 1, KindWrite))
	d.OnFork(1, 2)
	d.OnJoin(1, 2)
	d.OnLockAcquire(1, 1)
	d.OnLockRelease(1, 1)
	if d.Reports().UniqueBugs() != 0 || d.Stats() != (Stats{}) || d.ExportTraps() != nil {
		t.Fatal("Nop detector is not inert")
	}
}

// stepClock is a hand-cranked Clock: Since returns whatever the test last
// set, and Sleep returns at once.
type stepClock struct{ at atomic.Int64 }

func (c *stepClock) Now() time.Time                { return time.Time{} }
func (c *stepClock) Since(time.Time) time.Duration { return time.Duration(c.at.Load()) }
func (c *stepClock) Sleep(d time.Duration, _ <-chan struct{}) (time.Duration, bool) {
	return d, false
}

// TestNearMissGapIsAbsolute: OnCall reads its timestamp before recordSlow
// takes the object lock, so the entry it scans may carry a later timestamp
// than its own (the other thread read its clock later but locked first). The
// gap between the two accesses is then |t - e.at|; a negative gap used to
// leak into the window test, both gap histograms and the near_miss event's
// Dur (which trace.ReadJSONL rejects).
func TestNearMissGapIsAbsolute(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.DisablePhaseDetection = true // every access counts as concurrent
	cfg.DisableHBInference = true
	cfg.Trace = true
	clk := &stepClock{}
	reg := metrics.NewRegistry()
	d := mustNew(t, cfg, WithClock(clk), WithDetectorMetrics(NewDetectorMetrics(reg)))

	const gap = 2 * time.Millisecond // bucket 10: [1024µs, 2048µs)
	clk.at.Store(int64(5 * time.Millisecond))
	d.OnCall(acc(1, 1, 101, KindWrite))
	clk.at.Store(int64(5*time.Millisecond - gap)) // thread 2 read its clock first
	d.OnCall(acc(2, 1, 102, KindWrite))

	st := d.Stats()
	if st.NearMisses != 1 {
		t.Fatalf("NearMisses = %d, want 1 (stats %+v)", st.NearMisses, st)
	}
	if want := gapBucket(gap); st.NearMissGaps[want] != 1 {
		t.Errorf("NearMissGaps = %v, want the one gap in bucket %d", st.NearMissGaps, want)
	}
	if got := reg.Values()["tsvd_detector_near_miss_gap_seconds_sum"]; got != gap.Seconds() {
		t.Errorf("gap histogram sum = %v s, want %v", got, gap.Seconds())
	}
	var seen bool
	for _, ev := range d.Tracer().Drain() {
		if ev.Kind != trace.KindNearMiss {
			continue
		}
		seen = true
		if ev.Dur != gap {
			t.Errorf("near_miss event Dur = %v, want %v", ev.Dur, gap)
		}
	}
	if !seen {
		t.Error("no near_miss event emitted")
	}
}
