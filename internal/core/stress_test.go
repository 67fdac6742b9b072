package core

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/ids"
)

// TestObjHistoryNewestFirst pins the walk both OnCall paths make over the
// per-object ring (len, then newest(0..len-1)): it visits entries newest
// first, both before the ring wraps and after.
func TestObjHistoryNewestFirst(t *testing.T) {
	const capacity = 3
	h := newHistory(capacity)

	collect := func() []ids.OpID {
		var got []ids.OpID
		for i, n := 0, h.len(); i < n; i++ {
			got = append(got, h.newest(i).op)
		}
		return got
	}
	assertOrder := func(want ...ids.OpID) {
		t.Helper()
		got := collect()
		if len(got) != len(want) {
			t.Fatalf("walk visited %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("walk visited %v, want %v (newest first)", got, want)
			}
		}
	}

	assertOrder() // empty ring: no visits
	h.add(histEntry{op: 1})
	assertOrder(1)
	h.add(histEntry{op: 2})
	assertOrder(2, 1)
	h.add(histEntry{op: 3})
	assertOrder(3, 2, 1) // full, not yet wrapped
	h.add(histEntry{op: 4})
	assertOrder(4, 3, 2) // wrapped: oldest (1) evicted
	h.add(histEntry{op: 5})
	h.add(histEntry{op: 6})
	h.add(histEntry{op: 7})
	assertOrder(7, 6, 5) // wrapped more than once
}

// TestDenseRuntimeStress hammers one detector from GOMAXPROCS-scaled
// goroutine counts on a conflict-free workload (each worker owns disjoint
// objects and locations). It must produce zero reports, and the counters
// that have exact expected values — OnCalls, LocationsSeen, Violations —
// must come out exact despite every worker updating them concurrently
// through the per-thread counter tallies, the dense coverage table and the
// site registry's growth path. Run under -race this is the synchronization
// audit of the per-object runtime.
//
// The "presites" variants pre-register every site through the registry (the
// instrumented-prologue shape, exercising concurrent registration and dense
// growth); the others leave Site zero and take the op-keyed fallback.
func TestDenseRuntimeStress(t *testing.T) {
	workers := 2 * goruntime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const (
		callsPerWorker = 2000
		objsPerWorker  = 16
		opsPerWorker   = 8
	)

	algos := []config.Algorithm{
		config.AlgoTSVD, config.AlgoTSVDHB,
		config.AlgoDynamicRandom, config.AlgoStaticRandom,
	}
	for _, presites := range []bool{false, true} {
		for _, algo := range algos {
			t.Run(fmt.Sprintf("%v/presites=%v", algo, presites), func(t *testing.T) {
				cfg := config.Defaults(algo).Scaled(0.001) // 100µs delays
				d := mustNew(t, cfg)

				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < callsPerWorker; i++ {
							a := Access{
								// Read per call, as the proxies do.
								Thread: ids.CurrentThreadID(),
								Obj:    ids.ObjectID(1000 + w*objsPerWorker + i%objsPerWorker),
								Op:     ids.OpID(5000 + w*opsPerWorker + i%opsPerWorker),
								Kind:   KindWrite,
							}
							if presites {
								// Interning every call (not caching the id)
								// deliberately stresses the registry's
								// concurrent fast path and growth.
								a.Site = d.Sites().Register(a.Op, "Test", "Op", true)
							}
							d.OnCall(a)
						}
					}(w)
				}
				wg.Wait()

				if n := d.Reports().UniqueBugs(); n != 0 {
					t.Fatalf("conflict-free workload produced %d reports", n)
				}
				st := d.Stats()
				if want := int64(workers * callsPerWorker); st.OnCalls != want {
					t.Fatalf("OnCalls = %d, want %d (lost updates)", st.OnCalls, want)
				}
				if want := int64(workers * opsPerWorker); st.LocationsSeen != want {
					t.Fatalf("LocationsSeen = %d, want %d", st.LocationsSeen, want)
				}
				if st.Violations != 0 {
					t.Fatalf("Violations = %d on a conflict-free workload", st.Violations)
				}
				if want := workers * opsPerWorker; d.Sites().Len() != want {
					t.Fatalf("Sites().Len() = %d, want %d", d.Sites().Len(), want)
				}
				if n := ids.ThreadIDFailures(); n != 0 {
					t.Fatalf("ids.ThreadIDFailures() = %d: goroutines shared thread state -1", n)
				}
			})
		}
	}
}

// TestDenseRuntimeStressWithConflicts drives real cross-thread conflicts at
// full parallelism: every worker writes the same small object set, so the
// single-writer scan skip, the mixed transition, the object spin locks and
// trap registration all see heavy cross-thread traffic. The point is not
// detection counts (timing-dependent) but that the detector stays
// data-race-free (-race) and every reported violation is a genuine
// same-object write-write pair with its site metadata resolved.
func TestDenseRuntimeStressWithConflicts(t *testing.T) {
	workers := 2 * goruntime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const callsPerWorker = 500

	cfg := config.Defaults(config.AlgoTSVD).Scaled(0.001)
	d := mustNew(t, cfg)
	site := d.Sites().Register(9000, "Test", "Op", true)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			thread := ids.ThreadID(200 + w)
			for i := 0; i < callsPerWorker; i++ {
				// Four shared objects, distinct op per worker parity; even
				// workers carry the interned site, odd ones resolve by op.
				a := Access{
					Thread: thread,
					Obj:    ids.ObjectID(1 + i%4),
					Op:     ids.OpID(9000 + w%2),
					Kind:   KindWrite,
				}
				if w%2 == 0 {
					a.Site = site
				}
				d.OnCall(a)
			}
		}(w)
	}
	wg.Wait()

	st := d.Stats()
	if want := int64(workers * callsPerWorker); st.OnCalls != want {
		t.Fatalf("OnCalls = %d, want %d", st.OnCalls, want)
	}
	for _, v := range d.Reports().Violations() {
		if v.Trapped.Thread == v.Conflicting.Thread {
			t.Fatalf("report pairs accesses from one thread: %+v", v)
		}
		if !v.Trapped.Write && !v.Conflicting.Write {
			t.Fatalf("report with no write side: %+v", v)
		}
		if v.Trapped.Op == 9000 && v.Trapped.Site == site && v.Trapped.Class != "Test" {
			t.Fatalf("interned side lost its class metadata: %+v", v)
		}
	}
}
