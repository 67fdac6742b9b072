package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/report"
	"repro/internal/trace"
)

// TestTrapSetInvariants drives the trap set with random draws of the three
// transitions production makes (add, from a near miss or a trap file;
// suppress; decay) and checks its structural invariants after every step:
//   - the live counter, the live pairs and the per-location index agree
//     exactly, and a dead pair is in no index and is never re-added;
//   - every live pair's endpoints have probabilities in (0, 1];
//   - each location's delayable count is the number of its live pairs that
//     may be delayed there, and a pair a near miss ordered is never loaded.
func TestTrapSetInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s trapSet
		ops := []ids.OpID{1, 2, 3, 4, 5, 6}
		randKey := func() report.PairKey {
			return report.KeyOf(ops[rng.Intn(len(ops))], ops[rng.Intn(len(ops))])
		}
		dead, ordered := map[report.PairKey]bool{}, map[report.PairKey]bool{}
		for step := 0; step < 400; step++ {
			switch key := randKey(); rng.Intn(3) {
			case 0:
				first := [3]ids.OpID{0, key.A, key.B}[rng.Intn(3)]
				s.add(key, first)
				ordered[key] = ordered[key] || first != 0 && s.pairs[key] != 0
			case 1:
				s.suppress(key)
			case 2:
				s.decay(key.A, 0.5, nil)
			}
			for key, b := range s.pairs {
				if dead[key] && b != 0 || ordered[key] && b&pairLoaded != 0 {
					return false
				}
				dead[key] = b == 0
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
	for key, b := range s.pairs {
		live := b != 0
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
	// cannot, the delayable counts are exact, and the lock-free counter is.
	entries := 0
	for loc, l := range s.locs {
		if len(l.live.spill) != max(0, l.live.n-len(l.live.inline)) {
			return false
		}
		delayable := 0
		for i := 0; i < l.live.n; i++ {
			key := l.live.at(i)
			if key.A != loc && key.B != loc {
				return false
			}
			if delayableAt(key, s.pairs[key], loc) {
				delayable++
			}
		}
		if l.delayable != delayable {
			return false
		}
		entries += l.live.n
	}
	return entries == indexed && len(s.export()) == s.size()
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

	d.rt.set.mu.RLock()
	defer d.rt.set.mu.RUnlock()
	for _, op := range []ids.OpID{901, 902, 903} {
		if b, known := d.rt.set.pairs[report.KeyOf(900, op)]; !known || b != 0 {
			t.Errorf("pair (900,%d) not suppressed by inference window", op)
		}
	}
	if _, known := d.rt.set.pairs[report.KeyOf(900, 904)]; known {
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

	d.rt.set.mu.RLock()
	defer d.rt.set.mu.RUnlock()
	if _, known := d.rt.set.pairs[report.KeyOf(910, 911)]; known {
		t.Fatal("own delay misattributed as a happens-before edge")
	}
}

// TestHBInferenceSkipsDelaysThatEndedInsideOwnDelay: two threads delay at
// one location together, and the one whose own delay ended later then makes
// a call after a long gap. The other thread's delay ended while this thread
// still slept, so it held nothing up: no edge to the call, and the pair
// (delay location, call) stays in the trap set. (On the benchmark's suite
// the blamed thread's own delay ended 23 µs after the other's, and the
// planted pair was pruned.)
func TestHBInferenceSkipsDelaysThatEndedInsideOwnDelay(t *testing.T) {
	const contains, add = 920, 921
	cfg := testConfig(config.AlgoTSVD)
	clk := &scriptClock{timer: true}
	d := mustNew(t, cfg, WithClock(clk), WithInitialTraps([]report.PairKey{report.KeyOf(contains, add)}))
	drive(d, clk, []renewStep{
		call(time.Millisecond, 2, 99, 999, KindRead), // a second thread: the phase is concurrent
		call(time.Millisecond, 1, 1, contains, KindRead),
		// Inside thread 1's delay: thread 2 delays at the same location and
		// wakes first; thread 3's call keeps thread 1 asleep 2 ms longer.
		call(time.Millisecond, 2, 2, contains, KindRead),
		call(2*time.Millisecond, 3, 3, 998, KindRead),
		call(cfg.EffectiveDelay(), 1, 1, add, KindWrite),
	})
	if st := d.Stats(); st.DelaysInjected != 2 || st.PairsPrunedHB != 0 {
		t.Fatalf("want two delays and no HB prune: %+v", st)
	}
	if traps := d.ExportTraps(); !slices.Contains(traps, report.KeyOf(contains, add)) {
		t.Fatalf("trap set %v lost (%d, %d)", traps, contains, add)
	}
}

// TestExportTrapsDeterministic: the trap file contents are sorted.
func TestExportTrapsDeterministic(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.DisableHBInference = true
	for trial := 0; trial < 3; trial++ {
		d := mustNew(t, cfg).(*TSVD)
		for _, k := range []report.PairKey{
			report.KeyOf(5, 9), report.KeyOf(1, 2), report.KeyOf(3, 3),
		} {
			d.rt.set.add(k, 0)
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
	cycled := false
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
			rt := runtimeOf(d)
			window := cfg.EffectiveNearMissWindow()

			rng := rand.New(rand.NewSource(int64(100*n) + int64(len(t.Name()))))
			threads := []ids.ThreadID{0, 1, 2, 8, 11}[:3+rng.Intn(3)]
			for i := range threads {
				threads[i] += ids.ThreadID(1 + 7*n) // other stripes every time
			}
			var ring []entry // the model: the last n accesses, oldest first
			want, got := map[pair]int{}, map[pair]int{}
			var calls, wantMisses int64
			var cycles, demotions, colliding int // read-shared → shared → read-shared; reads through another thread's stripe
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
				os := rt.objs.Get(1)
				var w, owner int64
				if os != nil {
					w = os.writer.Load()
				}
				if w == writerReadShared {
					owner = os.reads.Load().stripes[uint64(e.thread)%readStripes].owner.Load()
				}
				d.OnCall(acc(e.thread, 1, e.op, e.kind))
				switch now := rt.objs.Get(1).writer.Load(); {
				case w != writerReadShared && now == writerReadShared:
					if demotions > 0 {
						cycles++
					}
				case w == writerReadShared && now != writerReadShared:
					demotions++
				case w == writerReadShared && owner != 0 && owner != int64(e.thread):
					colliding++
				}
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

			t.Logf("N %d, window off %v: %d demotions, %d followed by a promotion, %d reads through another thread's stripe", n, windowOff, demotions, cycles, colliding)
			if cycles >= 3 && colliding > 0 {
				cycled = true
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
	if !cycled {
		t.Error("no schedule took the object read-shared → shared → read-shared 3 times with a read through another thread's stripe")
	}
}
