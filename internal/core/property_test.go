package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/report"
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
		s := newTrapSet()
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
			if l != nil {
				for _, k := range l.live {
					if k == key {
						n++
					}
				}
			}
			if live && (n != 1 || l.prob <= 0 || l.prob > 1) || !live && n != 0 {
				return false
			}
			indexed += n
		}
	}
	// No stale index entries, and the lock-free counter is exact.
	entries := 0
	for loc, l := range s.locs {
		for _, key := range l.live {
			if key.A != loc && key.B != loc {
				return false
			}
		}
		entries += len(l.live)
	}
	return entries == indexed && len(s.export()) == s.size()
}

// TestPhaseRingProperty: the ring must report "concurrent" exactly when the
// last min(n, size) observed thread ids contain two distinct values.
func TestPhaseRingProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 2 + rng.Intn(30)
		p := newPhaseRing(size)
		var window []ids.ThreadID
		for step := 0; step < 300; step++ {
			tid := ids.ThreadID(rng.Intn(4) + 1)
			got := p.observe(tid)
			window = append(window, tid)
			if len(window) > size {
				window = window[1:]
			}
			want := false
			for _, w := range window {
				if w != window[0] {
					want = true
					break
				}
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
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
