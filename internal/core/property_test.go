package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/report"
	"repro/internal/trace"
)

// TestTrapSetInvariants drives the trap set with random draws of the three
// transitions production makes (add, suppress, decay) and checks its
// structural invariants after every step:
//   - the live counter, the live pairs and the per-location index agree
//     exactly, and a dead pair is in no index and is never re-added;
//   - every live pair's endpoints have probabilities in (0, 1].
func TestTrapSetInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s trapSet
		var stats atomicStats
		ops := []ids.OpID{1, 2, 3, 4, 5, 6}
		randKey := func() report.PairKey {
			return report.KeyOf(ops[rng.Intn(len(ops))], ops[rng.Intn(len(ops))])
		}
		dead := map[report.PairKey]bool{}
		for step := 0; step < 400; step++ {
			switch key := randKey(); rng.Intn(3) {
			case 0:
				s.add(key, &stats, nil)
			case 1:
				s.suppress(key)
			case 2:
				s.decayAfterFailedDelay(key.A, 0.5, 0.1, &stats, nil, 0)
			}
			for key, live := range s.pairs {
				if dead[key] && live {
					return false
				}
				dead[key] = !live
			}
			if !trapSetConsistent(&s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func trapSetConsistent(s *trapSet) bool {
	// Every live pair is indexed under each endpoint, once.
	indexed := 0
	for key, live := range s.pairs {
		for _, loc := range endpoints(key) {
			l := s.locs[loc]
			n := 0
			for i := 0; i < l.live.n; i++ {
				if l.live.at(i) == key {
					n++
				}
			}
			if live && (n != 1 || l.prob <= 0 || l.prob > 1) || !live && n != 0 {
				return false
			}
			indexed += n
		}
	}
	// No stale index entries, the spill holds exactly what the inline slots
	// cannot, and the lock-free counter is exact.
	entries := 0
	for loc, l := range s.locs {
		if len(l.live.spill) != max(0, l.live.n-len(l.live.inline)) {
			return false
		}
		for i := 0; i < l.live.n; i++ {
			if key := l.live.at(i); key.A != loc && key.B != loc {
				return false
			}
		}
		entries += l.live.n
	}
	return entries == indexed && len(s.export()) == s.size()
}

// phaseBelievedAfter is the documented bound on the phase detector's one
// drift: a thread that has made this many consecutive calls with nobody in
// between is sequential on the next one (W would be exact).
func phaseBelievedAfter(w int) int { return w + (w+1)/2 }

// TestPhaseRingProperty states what the claim protocol promises, on random
// bursty schedules of four threads and windows of 2–31:
//
//   - soundness: a sequential verdict means the last min(n, W) observed ids
//     are one thread's — which also makes the first call of a second thread,
//     and the next call of the thread it interrupted, concurrent;
//   - liveness: a thread is sequential from its first call while it is the
//     only thread the detector ever saw, and otherwise on every call past
//     phaseBelievedAfter(W) consecutive ones.
func TestPhaseRingProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 2 + rng.Intn(30)
		p := newPhaseRing(size)
		var locals [5]phaseLocal
		var seen []ids.ThreadID
		streak, threads := 0, 0
		for step := 0; step < 60; step++ {
			tid := ids.ThreadID(rng.Intn(4) + 1)
			burst := 1
			if rng.Intn(3) == 0 {
				burst += rng.Intn(2 * phaseBelievedAfter(size))
			}
			for ; burst > 0; burst-- {
				switch {
				case len(seen) == 0:
					threads = 1
				case seen[len(seen)-1] != tid:
					streak = 0
					threads = 2
				}
				streak++
				concurrent := p.observe(&locals[tid], tid)
				seen = append(seen, tid)
				if !concurrent {
					for _, w := range seen[max(0, len(seen)-size):] {
						if w != tid {
							t.Logf("seed %d W %d: call %d of thread %d sequential with thread %d in the window", seed, size, len(seen), tid, w)
							return false
						}
					}
				} else if threads == 1 || streak > phaseBelievedAfter(size) {
					t.Logf("seed %d W %d: call %d, the %d-th in a row of thread %d, still concurrent", seed, size, len(seen), streak, tid)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPhaseRingTraffic: the shared word is what every thread's every call
// loads, so how often it changes value is what a second thread costs the
// first. Two strictly alternating threads change it at most 8·N/W + 4 times
// in N calls (the exact-window ring changed it N times); one thread alone,
// once believed, never.
func TestPhaseRingTraffic(t *testing.T) {
	for _, size := range []int{2, 3, 16, 31, 256} {
		p := newPhaseRing(size)
		var locals [3]phaseLocal
		changes := func(n int, next func(i int) ids.ThreadID) int {
			c, last := 0, p.state.Load()
			for i := 0; i < n; i++ {
				tid := next(i)
				p.observe(&locals[tid], tid)
				if s := p.state.Load(); s != last {
					c, last = c+1, s
				}
			}
			return c
		}
		const n = 10000
		if c := changes(n, func(i int) ids.ThreadID { return ids.ThreadID(1 + i%2) }); c > 8*n/size+4 {
			t.Errorf("W %d: %d alternating calls changed the word %d times, bound %d", size, n, c, 8*n/size+4)
		}
		changes(phaseBelievedAfter(size), func(int) ids.ThreadID { return 1 })
		if c := changes(n, func(int) ids.ThreadID { return 1 }); c != 0 {
			t.Errorf("W %d: a believed lone thread changed the word %d times", size, c)
		}
	}
}

// TestObjHistoryProperty: the ring keeps exactly the most recent capacity
// entries, in any order.
func TestObjHistoryProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(10)
		h := newHistory(capacity)
		var all []histEntry
		for step := 0; step < 100; step++ {
			e := histEntry{
				thread: ids.ThreadID(rng.Intn(5)),
				op:     ids.OpID(step),
				at:     time.Duration(step),
			}
			h.add(e)
			all = append(all, e)

			want := all
			if len(want) > capacity {
				want = want[len(want)-capacity:]
			}
			seen := map[ids.OpID]bool{}
			count := h.len()
			for _, g := range h.entries[:count] {
				seen[g.op] = true
			}
			if count != len(want) {
				return false
			}
			for _, w := range want {
				if !seen[w.op] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestConflictsTable pins the thread-safety contract conflict matrix.
func TestConflictsTable(t *testing.T) {
	if Conflicts(KindRead, KindRead) {
		t.Fatal("read-read conflicts")
	}
	if !Conflicts(KindRead, KindWrite) || !Conflicts(KindWrite, KindRead) ||
		!Conflicts(KindWrite, KindWrite) {
		t.Fatal("write conflicts missing")
	}
}

// TestHBInferenceWindowWidth: after one inferred HB edge, exactly the next
// k_hb accesses of the blocked thread inherit the happens-after, no more.
func TestHBInferenceWindowWidth(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.HBInferenceWindow = 2
	cfg.DecayFactor = 0 // keep probabilities at 1 for determinism
	d := mustNew(t, cfg).(*TSVD)

	delay := cfg.EffectiveDelay()

	// Fabricate detector state directly: thread 2 had a previous access,
	// and a delay by thread 1 at op 900 recently finished.
	now := d.rt.now()
	st := d.rt.threadStateFor(2)
	st.lastAccess = now - delay
	d.delayMu.Lock()
	d.recentDelays = append(d.recentDelays, delayRecord{
		thread: 1, op: 900, start: now - delay, end: now - delay/4,
	})
	d.delayMu.Unlock()

	// Thread 2's next access after a ≥ δ·delay gap infers HB(900→901) and
	// opens a 2-access inheritance window covering 902 and 903 — not 904.
	d.OnCall(acc(2, 50, 901, KindWrite))
	d.OnCall(acc(2, 50, 902, KindWrite))
	d.OnCall(acc(2, 50, 903, KindWrite))
	d.OnCall(acc(2, 50, 904, KindWrite))

	d.set.mu.RLock()
	defer d.set.mu.RUnlock()
	for _, op := range []ids.OpID{901, 902, 903} {
		if live, known := d.set.pairs[report.KeyOf(900, op)]; !known || live {
			t.Errorf("pair (900,%d) not suppressed by inference window", op)
		}
	}
	if _, known := d.set.pairs[report.KeyOf(900, 904)]; known {
		t.Error("pair (900,904) suppressed beyond the k_hb window")
	}
}

// TestHBInferenceIgnoresOwnDelay: a thread's own injected delay must not be
// attributed as blocking itself.
func TestHBInferenceIgnoresOwnDelay(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	d := mustNew(t, cfg).(*TSVD)
	delay := cfg.EffectiveDelay()

	now := d.rt.now()
	st := d.rt.threadStateFor(1)
	st.lastAccess = now - 2*delay
	st.ownDelay = 2 * delay // the whole gap was its own delay
	d.delayMu.Lock()
	d.recentDelays = append(d.recentDelays, delayRecord{
		thread: 1, op: 910, start: now - 2*delay, end: now - delay,
	})
	d.delayMu.Unlock()

	d.OnCall(acc(1, 60, 911, KindWrite))

	d.set.mu.RLock()
	defer d.set.mu.RUnlock()
	if _, known := d.set.pairs[report.KeyOf(910, 911)]; known {
		t.Fatal("own delay misattributed as a happens-before edge")
	}
}

// TestExportTrapsDeterministic: the trap file contents are sorted.
func TestExportTrapsDeterministic(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.DisableHBInference = true
	for trial := 0; trial < 3; trial++ {
		d := mustNew(t, cfg).(*TSVD)
		var stats atomicStats
		for _, k := range []report.PairKey{
			report.KeyOf(5, 9), report.KeyOf(1, 2), report.KeyOf(3, 3),
		} {
			d.set.add(k, &stats, nil)
		}
		got := d.ExportTraps()
		if len(got) != 3 {
			t.Fatalf("exported %d pairs", len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].A > got[i].A ||
				(got[i-1].A == got[i].A && got[i-1].B > got[i].B) {
				t.Fatalf("export not sorted: %v", got)
			}
		}
	}
}

// TestCoverageCounters: locations seen in any context vs concurrent context
// (the §5.2 "coverage statistics" one team used to find testing blind
// spots).
func TestCoverageCounters(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVD))
	// Location 700 runs only single-threaded; 701/702 run concurrently.
	for i := 0; i < 20; i++ {
		d.OnCall(acc(1, 70, 700, KindWrite))
	}
	d1 := hammer(30, time.Millisecond, func(int) { d.OnCall(acc(2, 71, 701, KindWrite)) })
	d2 := hammer(30, time.Millisecond, func(int) { d.OnCall(acc(3, 71, 702, KindWrite)) })
	<-d1
	<-d2
	st := d.Stats()
	if st.LocationsSeen != 3 {
		t.Fatalf("LocationsSeen = %d, want 3", st.LocationsSeen)
	}
	if st.LocationsSeenConcurrent >= st.LocationsSeen {
		t.Fatalf("sequential-only location counted as concurrent: %+v", st)
	}
	if st.LocationsSeenConcurrent == 0 {
		t.Fatalf("no concurrent coverage recorded: %+v", st)
	}
}

// TestNearMissesMatchRingModel checks the detector's near-miss verdicts
// (§3.4.2) against a reference that shares no code with it: one ring of the
// object's last N accesses, and a call is a near miss against every entry of
// another thread whose kind conflicts and whose gap is inside the window.
// Both are fed one random single-goroutine schedule — a few fabricated thread
// ids (two of which share a read stripe), one object, a clock that strictly
// increases, mixed traffic, read runs long enough to promote the object to
// read-shared and writes that demote it. Every access has an op of its own,
// so a pair names exactly which earlier access was seen.
func TestNearMissesMatchRingModel(t *testing.T) {
	type entry struct {
		thread ids.ThreadID
		op     ids.OpID
		kind   Kind
		at     time.Duration
	}
	type pair struct{ seen, by ids.OpID }
	for n := 1; n <= 8; n++ {
		for _, windowOff := range []bool{false, true} {
			cfg := testConfig(config.AlgoTSVD)
			cfg.ObjHistory = n
			cfg.DisableNearMissWindow = windowOff
			cfg.DisablePhaseDetection = true // every access counts as concurrent
			cfg.DisableHBInference = true
			cfg.Mode = config.ModeObserveOnly // pairs form, nobody sleeps
			cfg.Trace = true
			clk := &stepClock{}
			d := mustNew(t, cfg, WithClock(clk))
			window := cfg.EffectiveNearMissWindow()

			rng := rand.New(rand.NewSource(int64(100*n) + int64(len(t.Name()))))
			threads := []ids.ThreadID{0, 1, 2, 8, 11}[:3+rng.Intn(3)]
			for i := range threads {
				threads[i] += ids.ThreadID(1 + 7*n) // other stripes every time
			}
			var ring []entry // the model: the last n accesses, oldest first
			want, got := map[pair]int{}, map[pair]int{}
			var calls, wantMisses int64
			call := func(kind Kind) {
				// Mostly steps that keep all n entries inside the window, some
				// that push the older ones out of it.
				step := 1 + time.Duration(rng.Int63n(int64(window)/int64(2*n)))
				if rng.Intn(4) == 0 {
					step = 1 + time.Duration(rng.Int63n(int64(window)))
				}
				e := entry{threads[rng.Intn(len(threads))], ids.OpID(1000 + calls), kind, time.Duration(clk.at.Add(int64(step)))}
				calls++
				for _, old := range ring {
					if old.thread != e.thread && Conflicts(old.kind, e.kind) && (windowOff || e.at-old.at <= window) {
						want[pair{old.op, e.op}]++
						wantMisses++
					}
				}
				if ring = append(ring, e); len(ring) > n {
					ring = ring[1:]
				}
				d.OnCall(acc(e.thread, 1, e.op, e.kind))
				for _, ev := range d.Tracer().Drain() {
					if ev.Kind == trace.KindNearMiss {
						got[pair{ev.OpA, ev.OpB}]++
					}
				}
			}
			for segment := 0; segment < 12; segment++ {
				if rng.Intn(2) == 0 {
					for i := 0; i < 20; i++ {
						call(Kind(rng.Intn(3) / 2)) // a third are writes
					}
					continue
				}
				for i, run := 0, 4*n+rng.Intn(6*n+1); i < run; i++ {
					call(KindRead)
				}
				call(KindWrite)
			}

			st := d.Stats()
			if st.NearMisses != wantMisses || st.OnCalls != calls {
				t.Errorf("N %d, window off %v: %d near misses in %d calls, the model has %d in %d",
					n, windowOff, st.NearMisses, st.OnCalls, wantMisses, calls)
			}
			for p, c := range want {
				if got[p] != c {
					t.Errorf("N %d, window off %v: access %d saw access %d %d time(s), the model %d", n, windowOff, p.by, p.seen, got[p], c)
				}
				delete(got, p)
			}
			for p, c := range got {
				t.Errorf("N %d, window off %v: access %d saw access %d %d time(s), the model never", n, windowOff, p.by, p.seen, c)
			}
		}
	}
}
