package core

import (
	"fmt"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/report"
	"repro/internal/sites"
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
// The "presites" variants intern the site on every call (exercising
// concurrent registration and dense growth); the others intern each site
// once before the calls and carry the id, as a prologue's memo word does.
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
				cfg.Sites = sites.New()                    // Sites().Len() below counts this test's sites only
				d := mustNew(t, cfg)

				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						var cached [opsPerWorker]ids.SiteID
						if !presites {
							for j := range cached {
								cached[j] = d.Sites().Register(ids.OpID(5000+w*opsPerWorker+j), "Test", "Op", true)
							}
						}
						for i := 0; i < callsPerWorker; i++ {
							a := Access{
								// Read per call, as the proxies do.
								Thread: ids.CurrentThreadID(),
								Obj:    ids.ObjectID(1000 + w*objsPerWorker + i%objsPerWorker),
								Op:     ids.OpID(5000 + w*opsPerWorker + i%opsPerWorker),
								Site:   cached[i%opsPerWorker],
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
					t.Fatalf("ids.ThreadIDFailures() = %d: goroutines shared thread state %d", n, ids.NoThread)
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
				// workers carry the interned site, odd ones their op's
				// anonymous site.
				a := acc(thread, ids.ObjectID(1+i%4), ids.OpID(9000+w%2), KindWrite)
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

// TestPhaseVerdictsAcrossGoroutines drives the phase verdict from real
// goroutines. Two of them ping-pong on one object through channels, so every
// call finds the other thread's accesses in the object's history and is
// either a near miss (concurrent phase) or a sequential skip: in 10⁴ strictly
// alternating calls there is no skip at all. Then one goroutine is left
// alone, and after W calls its next one is a skip: the last W points are all
// its own.
func TestPhaseVerdictsAcrossGoroutines(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.Mode = config.ModeObserveOnly // pairs form, nobody sleeps
	cfg.DisableNearMissWindow = true
	cfg.DisableHBInference = true
	w := cfg.PhaseBufferSize
	// The survivor must still find the other thread's accesses after its
	// calls alone.
	cfg.ObjHistory = 2 * w
	d := mustNew(t, cfg)
	const obj, rounds = ids.ObjectID(1), 5000

	ping, pong := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			d.OnCall(acc(1, obj, 101, KindWrite))
			ping <- struct{}{}
			<-pong
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			<-ping
			d.OnCall(acc(2, obj, 102, KindWrite))
			pong <- struct{}{}
		}
	}()
	wg.Wait()
	st := d.Stats()
	if st.SequentialSkips != 0 || st.NearMisses == 0 {
		t.Fatalf("alternating threads: %d sequential skips, %d near misses", st.SequentialSkips, st.NearMisses)
	}

	alone := make(chan struct{})
	go func() {
		defer close(alone)
		for i := 0; i < w; i++ {
			d.OnCall(acc(1, obj, 101, KindWrite))
		}
	}()
	<-alone
	before := d.Stats()
	d.OnCall(acc(1, obj, 101, KindWrite))
	after := d.Stats()
	if after.SequentialSkips == before.SequentialSkips || after.NearMisses != before.NearMisses {
		t.Fatalf("call %d of a thread left alone is still in a concurrent phase: before %+v, after %+v", w+1, before, after)
	}
}

// TestOwnerPublishesLockFreeToEveryObjectItOwns: a goroutine rotating over 16
// objects it owns while a second goroutine takes one of them over mid-stream.
// Every call is counted exactly once, the takeover finds its near miss, and
// the other 15 objects are still the owner's — open ring, writer unchanged —
// so its calls on them never needed the object lock.
func TestOwnerPublishesLockFreeToEveryObjectItOwns(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.Mode = config.ModeObserveOnly
	cfg.DisableNearMissWindow = true
	cfg.DisableHBInference = true
	d := mustNew(t, cfg)
	const objects, ownerCalls, victim = 16, 20000, ids.ObjectID(7)

	midStream := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		x := uint32(1)
		for i := 0; i < ownerCalls; i++ {
			if i == ownerCalls/4 {
				close(midStream)
			}
			x = x*1664525 + 1013904223
			d.OnCall(acc(1, ids.ObjectID(x>>28), 101, KindWrite))
		}
	}()
	go func() {
		defer wg.Done()
		<-midStream
		d.OnCall(acc(2, victim, 102, KindWrite))
	}()
	wg.Wait()

	st := d.Stats()
	if st.OnCalls != ownerCalls+1 {
		t.Fatalf("OnCalls = %d, %d calls were issued", st.OnCalls, ownerCalls+1)
	}
	if traps := d.ExportTraps(); st.NearMisses == 0 || len(traps) != 1 || traps[0] != report.KeyOf(101, 102) {
		t.Fatalf("takeover of object %d: %d near misses, traps %v", victim, st.NearMisses, traps)
	}
	rt := runtimeOf(d)
	for o := ids.ObjectID(0); o < objects; o++ {
		os := rt.objs.Get(int64(o))
		want := int64(1)
		if o == victim {
			want = writerShared
		}
		if w := os.writer.Load(); w != want {
			t.Errorf("object %d: writer = %d, want %d", o, w, want)
		}
		if closed := os.ring.pub.Load()&ringClosed != 0; closed != (o == victim) {
			t.Errorf("object %d: publication ring closed = %v", o, closed)
		}
	}
}

// readSharedConfig is TSVD with everything but near-miss tracking switched
// off: every conflicting pair among an object's last ObjHistory accesses is a
// near miss, nobody sleeps.
func readSharedConfig() config.Config {
	cfg := testConfig(config.AlgoTSVD)
	cfg.Mode = config.ModeObserveOnly
	cfg.DisableNearMissWindow = true
	cfg.DisablePhaseDetection = true
	cfg.DisableHBInference = true
	return cfg
}

// promote reads obj from the given threads until it is read-shared.
func promote(t *testing.T, d Detector, obj ids.ObjectID, threads ...ids.ThreadID) *objState {
	t.Helper()
	rt := runtimeOf(d)
	for i := 0; i < 2+promoteAfter(rt.cfg.ObjHistory); i++ {
		tid := threads[i%len(threads)]
		d.OnCall(acc(tid, obj, ids.OpID(100+tid), KindRead))
	}
	os := rt.objs.Get(int64(obj))
	if w := os.writer.Load(); w != writerReadShared {
		t.Fatalf("object %d: writer = %d after a read run, want read-shared", obj, w)
	}
	return os
}

// TestReadSharedSteadyStateTouchesNoSharedWord: once an object is read-shared,
// 10⁴ reads from each of two goroutines change none of the words its readers
// have in common — the publication count, the shared ring's cursor, the
// writer word — and every one of them is counted.
func TestReadSharedSteadyStateTouchesNoSharedWord(t *testing.T) {
	d := mustNew(t, readSharedConfig())
	os := promote(t, d, 1, 1, 2)
	before := d.Stats().OnCalls
	pub, next, full := os.ring.pub.Load(), os.hist.next, os.hist.full

	const reads = 10000
	var wg sync.WaitGroup
	for tid := ids.ThreadID(1); tid <= 2; tid++ {
		wg.Add(1)
		go func(tid ids.ThreadID) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				d.OnCall(acc(tid, 1, ids.OpID(100+tid), KindRead))
			}
		}(tid)
	}
	wg.Wait()

	os.mu.Lock() // orders this goroutine after whoever last wrote hist
	defer os.mu.Unlock()
	if os.ring.pub.Load() != pub || os.hist.next != next || os.hist.full != full || os.writer.Load() != writerReadShared {
		t.Errorf("read-shared reads stored to shared state: publication count %#x → %#x, ring cursor %d → %d, writer %d",
			pub, os.ring.pub.Load(), next, os.hist.next, os.writer.Load())
	}
	if st := d.Stats(); st.OnCalls != before+2*reads || st.NearMisses != 0 {
		t.Errorf("OnCalls grew by %d for %d reads, %d near misses", st.OnCalls-before, 2*reads, st.NearMisses)
	}
}

// TestWriteDuringReadSharedSeesTheReaders: two goroutines read one object
// flat out while a third writes it every few hundred µs, after at least
// ObjHistory reads since its last write, so the object is promoted and
// demoted around every write. Of a read and a write that race exactly one
// side sees the other, as under the single lock: each write finds ObjHistory
// reads, and is found by the ObjHistory reads that follow it — 2·ObjHistory
// near misses a write, to the one, whichever path each read took. The second
// case puts both readers on one stripe.
func TestWriteDuringReadSharedSeesTheReaders(t *testing.T) {
	for _, readers := range [][2]ids.ThreadID{{1, 2}, {1, 1 + readStripes}} {
		cfg := readSharedConfig()
		d := mustNew(t, cfg)
		os := promote(t, d, 1, readers[0], readers[1])
		const writer, writes = ids.ThreadID(3), 300
		var issued, promoted atomic.Int64
		issued.Store(d.Stats().OnCalls)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for _, tid := range readers {
			wg.Add(1)
			go func(tid ids.ThreadID) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						d.OnCall(acc(tid, 1, ids.OpID(100+tid), KindRead))
						issued.Add(1)
					}
				}
			}(tid)
		}
		wg.Add(1)
		go func() { // a live scrape must not disturb, or be disturbed by, any of it
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if st := d.Stats(); st.OnCalls < 0 {
						t.Error("negative OnCalls in a live snapshot")
					}
					goruntime.Gosched()
				}
			}
		}()
		// Enough reads for a promotion, and then some. In-flight reads may
		// have been recorded before the write they return after: one a reader.
		awaitReads := func() {
			for from := issued.Load(); issued.Load() < from+int64(promoteAfter(cfg.ObjHistory)+cfg.ObjHistory+2); {
				goruntime.Gosched()
			}
		}
		for i := 0; i < writes; i++ {
			awaitReads()
			if os.writer.Load() == writerReadShared {
				promoted.Add(1)
			}
			d.OnCall(acc(writer, 1, 99, KindWrite))
			issued.Add(1)
		}
		awaitReads()
		close(stop)
		wg.Wait()

		st := d.Stats()
		if want := int64(2 * cfg.ObjHistory * writes); st.NearMisses != want {
			t.Errorf("readers %v: %d near misses for %d writes, want %d", readers, st.NearMisses, writes, want)
		}
		if st.OnCalls != issued.Load() {
			t.Errorf("readers %v: OnCalls = %d at quiescence, %d calls were issued", readers, st.OnCalls, issued.Load())
		}
		for _, key := range d.ExportTraps() {
			if key.A != 99 || (key.B != ids.OpID(100+readers[0]) && key.B != ids.OpID(100+readers[1])) {
				t.Errorf("readers %v: pair %v is not a read and the write", readers, key)
			}
		}
		if promoted.Load() < writes/2 {
			t.Errorf("readers %v: only %d of %d writes found the object read-shared", readers, promoted.Load(), writes)
		}
		if w := os.writer.Load(); w != writerShared && w != writerReadShared {
			t.Errorf("readers %v: object ends with writer = %d", readers, w)
		}
	}
}

// TestDemotionMergesEachReadOnce: a demotion merges what each stripe
// published since the one before, never again what that one merged. A read
// recorded under os.mu carries the time it read its clock, before it waited
// for the lock, so it can be stamped earlier than a stripe read published
// ahead of it. Here every read between two writes is, and the stripe read
// before the first write still must not reach the second: ObjHistory near
// misses, all of them reads recorded since the first.
func TestDemotionMergesEachReadOnce(t *testing.T) {
	cfg := readSharedConfig()
	clk := &stepClock{}
	d := mustNew(t, cfg, WithClock(clk))
	clk.at.Store(int64(time.Second))
	os := promote(t, d, 1, 1, 2)
	d.OnCall(acc(3, 1, 103, KindRead)) // claims stripe 3 and publishes
	d.OnCall(acc(9, 1, 99, KindWrite))
	clk.at.Store(int64(time.Millisecond))
	for i := 0; i < promoteAfter(cfg.ObjHistory); i++ {
		d.OnCall(acc(ids.ThreadID(1+i%2), 1, ids.OpID(101+i%2), KindRead))
	}
	if w := os.writer.Load(); w != writerReadShared {
		t.Fatalf("writer = %d after a read run, want read-shared", w)
	}
	clk.at.Store(int64(2 * time.Second))
	before := d.Stats().NearMisses
	d.OnCall(acc(9, 1, 98, KindWrite))
	if slices.Contains(d.ExportTraps(), report.KeyOf(103, 98)) {
		t.Error("the second write found a read the first demotion had merged already")
	}
	if got := d.Stats().NearMisses - before; got != int64(cfg.ObjHistory) {
		t.Errorf("the second write made %d near misses, want %d", got, cfg.ObjHistory)
	}
}

// TestReadRacingDemotionIsSeenByExactlyOneSide steers a read into the
// one window the stripe protocol exists for: the read has loaded its
// stripe's open count, and a write demotes the object before the read's CAS.
// It is OnCall's publication block cut at that point — the ring and count
// come from openRing, as OnCall's do — and resumed as OnCall resumes it. The read must end in exactly one side: the demotion's merge or
// the lock path. On odd objects the CAS comes only after the write has
// returned, so it must fail and the read take recordSlow, where it finds the
// write; on even ones it races the demotion, and if it lands first the
// demotion merges the read and the write finds it. Either way the pair is
// exported, and every call is counted once.
func TestReadRacingDemotionIsSeenByExactlyOneSide(t *testing.T) {
	d := mustNew(t, readSharedConfig())
	rt := runtimeOf(d)
	const reader, writer = ids.ThreadID(5), ids.ThreadID(6)
	st := rt.threadStateFor(reader)
	calls, slow := int64(0), 0
	for obj := ids.ObjectID(1); obj <= 100; obj++ {
		os := promote(t, d, obj, 1, 2)
		read, write := ids.OpID(1000+2*obj), ids.OpID(1001+2*obj)
		d.OnCall(acc(reader, obj, read, KindRead)) // claims the reader's stripe
		s := &os.reads.Load().stripes[reader%readStripes]
		a := acc(reader, obj, read, KindRead)
		at := rt.now()
		rg, n := os.openRing(a.Thread, a.Kind)
		if s.owner.Load() != int64(reader) || rg != &s.ring {
			t.Fatalf("object %d: stripe owner %d, count %#x: the reader holds no open stripe", obj, s.owner.Load(), s.ring.pub.Load())
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.OnCall(acc(writer, obj, write, KindWrite))
		}()
		if obj%2 == 1 {
			wg.Wait()
		}
		if !rg.publish(n, histEntry{thread: reader, op: read, kind: KindRead, at: at}) {
			slow++
			for _, p := range d.(*TSVD).recordSlow(st, os, a, at) {
				rt.addPair(reader, obj, p, at)
			}
		} else if obj%2 == 1 {
			t.Fatalf("object %d: the read's CAS succeeded after the demotion", obj)
		}
		wg.Wait()
		calls += int64(2+promoteAfter(rt.cfg.ObjHistory)) + 3
		if !slices.Contains(d.ExportTraps(), report.KeyOf(read, write)) {
			t.Fatalf("object %d: neither the read nor the write racing it saw the other", obj)
		}
		if got := d.Stats().OnCalls; got != calls {
			t.Fatalf("object %d: OnCalls = %d, %d calls were made", obj, got, calls)
		}
	}
	t.Logf("%d of 100 reads took recordSlow", slow)
}
