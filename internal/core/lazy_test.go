package core

import (
	"math/rand"
	goruntime "runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/report"
)

// Detector state is paid for when the traffic that needs it arrives
// (docs/PERFORMANCE.md, "Suite-level memory"). The first half of this file
// pins what each piece costs in allocations; the second half pins that the
// verdicts did not move: what a takeover merges however often the owner's ring
// wrapped, counters that stay exact and never decrease across wraps racing a
// takeover, the delay budget through injectDelay, and the seeded coin-flip
// stream.

// skipAllocCountUnderRace: the race detector's runtime allocates on its own
// account and sync.Pool drops a quarter of what it is given.
func skipAllocCountUnderRace(t *testing.T) {
	t.Helper()
	if RaceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

func TestFreshObjectCostsOneAllocation(t *testing.T) {
	skipAllocCountUnderRace(t)
	d := mustNew(t, testConfig(config.AlgoTSVD))
	obj := ids.ObjectID(100)
	d.OnCall(acc(1, obj, 101, KindWrite)) // thread state, site, coverage
	got := testing.AllocsPerRun(1000, func() {
		obj++
		d.OnCall(acc(1, obj, 101, KindWrite))
		d.OnCall(acc(1, obj, 101, KindRead))
	})
	if got > 1 {
		t.Fatalf("the first two accesses to a fresh object cost %v allocations, want at most the objState", got)
	}
	if st := d.Stats(); st.OnCalls != 2*1001+1 {
		t.Fatalf("OnCalls = %d, want %d", st.OnCalls, 2*1001+1)
	}
}

func TestSharedNearMissCallCostsNothing(t *testing.T) {
	skipAllocCountUnderRace(t)
	cfg := testConfig(config.AlgoTSVD)
	cfg.DisablePhaseDetection = true // every access counts as concurrent
	cfg.DisableHBInference = true
	d := mustNew(t, cfg, WithClock(&stepClock{})) // a stopped clock: every gap is 0; sleeps return at once
	turn := func() {
		d.OnCall(acc(1, 1, 101, KindWrite))
		d.OnCall(acc(2, 1, 102, KindWrite))
	}
	for i := 0; i < 300; i++ { // past the takeover, the pair's delays and its decay
		turn()
	}
	before := d.Stats().NearMisses
	const runs = 200
	if got := testing.AllocsPerRun(runs, turn); got != 0 {
		t.Fatalf("a shared-mode call recording near misses costs %v allocations a pair of calls", got)
	}
	if grew := d.Stats().NearMisses - before; grew < 2*runs {
		t.Fatalf("only %d near misses in %d calls: the measured path is not the near-miss path", grew, 2*runs)
	}
}

func TestUnsprungDelayCostsNothingAfterTheFirst(t *testing.T) {
	skipAllocCountUnderRace(t)
	cfg := testConfig(config.AlgoTSVD)
	cfg.MaxDelayPerThread = 0 // unlimited
	rt := &mustNew(t, cfg).(*TSVD).rt
	st := rt.threadStateFor(1)
	a := acc(1, 1, 101, KindWrite)
	rt.resolveSite(&a)
	park := func() { rt.injectDelay(st, a, 50*time.Microsecond, 0, false) }
	park() // buys the trap, its wake-up channel and the timer, if the pools were empty
	const runs = 50
	if got := testing.AllocsPerRun(runs, park); got != 0 {
		t.Fatalf("an unsprung delay costs %v allocations", got)
	}
	if n := rt.stats.count[statDelaysInjected].Load(); n != runs+2 {
		t.Fatalf("%d delays injected, want %d: the measured path did not sleep", n, runs+2)
	}
}

// TestFreshThreadsAndObjectsCostChunks: the thread and object registries
// carve states out of chunks they allocate, so a thousand fresh threads, each
// on a fresh object of its own, cost a logarithmic number of chunks and
// tables — not one allocation a state.
func TestFreshThreadsAndObjectsCostChunks(t *testing.T) {
	skipAllocCountUnderRace(t)
	d := mustNew(t, testConfig(config.AlgoTSVD))
	d.OnCall(acc(1, 1, 101, KindWrite)) // site and coverage
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for i := 2; i <= 1001; i++ {
		d.OnCall(acc(ids.ThreadID(i), ids.ObjectID(i), 101, KindWrite))
	}
	goruntime.ReadMemStats(&m1)
	if got := m1.Mallocs - m0.Mallocs; got > 64 {
		t.Fatalf("1000 fresh threads on 1000 fresh objects cost %d allocations, want at most 64", got)
	}
	if st := d.Stats(); st.OnCalls != 1001 {
		t.Fatalf("OnCalls = %d, want 1001", st.OnCalls)
	}
}

// TestRegistryStatesOwnTheirCacheLines: states of different threads and
// objects sit side by side in the registries' chunks, so no cache line may
// hold fields of two of them — or every call of one worker would invalidate
// the line another's calls read. Each state is a whole number of lines, so
// all states of a chunk start at the same offset within a line: 0 where the
// chunk is line-aligned, 8 where the allocator put the chunk's type header in
// front of it (a chunk of up to 32 KiB that holds pointers). The lines a state
// shares with its neighbours then hold only padding of one of the two as long
// as that offset is no larger than the state's trailing padding.
func TestRegistryStatesOwnTheirCacheLines(t *testing.T) {
	var os objState
	var st threadState
	osPad := unsafe.Sizeof(os) - (unsafe.Offsetof(os.inline) + unsafe.Sizeof(os.inline))
	stPad := unsafe.Sizeof(st) - (unsafe.Offsetof(st.memo) + unsafe.Sizeof(st.memo))
	if size := unsafe.Sizeof(os); size%64 != 0 {
		t.Errorf("objState is %d bytes, not a multiple of 64", size)
	}
	if size := unsafe.Sizeof(st); size%64 != 0 {
		t.Errorf("threadState is %d bytes, not a multiple of 64", size)
	}
	d := mustNew(t, testConfig(config.AlgoTSVD))
	for i := 1; i <= 300; i++ { // chunks with and without a header
		d.OnCall(acc(ids.ThreadID(i), ids.ObjectID(i), 101, KindWrite))
	}
	rt := runtimeOf(d)
	rt.objs.Each(func(k int64, os *objState) {
		off := uintptr(unsafe.Pointer(os)) % 64
		if off > osPad {
			t.Errorf("object %d's state starts %d bytes into a cache line; its padding is %d", k, off, osPad)
		}
	})
	rt.threads.Each(func(k int64, st *threadState) {
		off := uintptr(unsafe.Pointer(st)) % 64
		if off > stPad {
			t.Errorf("thread %d's state starts %d bytes into a cache line; its padding is %d", k, off, stPad)
		}
	})
}

// TestFailedDelayDecayCostsNothing: decaying a location and its partners
// after an unproductive delay allocates nothing while the location has at
// most seven partners.
func TestFailedDelayDecayCostsNothing(t *testing.T) {
	skipAllocCountUnderRace(t)
	var r runtime
	r.cfg.DecayFactor = 0.5 // PruneProbability 0: the pairs stay
	for other := ids.OpID(2); other <= 8; other++ {
		r.set.add(report.KeyOf(1, other), 0)
	}
	decay := func() { r.decayAfterFailedDelay(1, 0) }
	if got := testing.AllocsPerRun(100, decay); got != 0 {
		t.Fatalf("a failed delay at a location with 7 partners costs %v allocations", got)
	}
	if p, _ := r.set.eligible(8, false); r.set.size() != 7 || p >= 1 {
		t.Fatalf("%d pairs, a partner's probability %v: the measured path did not decay", r.set.size(), p)
	}
}

// TestTrapSetEndpointsCostNoAllocation: a trap set's locations are map
// values with their first two pairs inline, so filling a fresh set with five
// pairs over six new locations, one of them in three pairs, buys the set
// itself (it escapes here), each map's header and group, and that location's
// spill — not a state and a list for every endpoint (18 allocations when
// each location was a pointer to a state with a slice). An empty set that is
// only read makes no map.
func TestTrapSetEndpointsCostNoAllocation(t *testing.T) {
	skipAllocCountUnderRace(t)
	keys := []report.PairKey{
		report.KeyOf(1, 2), report.KeyOf(3, 4), report.KeyOf(5, 6),
		report.KeyOf(1, 3), report.KeyOf(1, 5),
	}
	fill := func() {
		var s trapSet
		for _, k := range keys {
			s.add(k, 0)
		}
	}
	if got := testing.AllocsPerRun(100, fill); got > 6 {
		t.Fatalf("filling a fresh trap set with %d pairs over 6 locations costs %v allocations, want at most 6", len(keys), got)
	}
	read := func() {
		var s trapSet
		s.eligible(1, false)
		s.decay(1, 0.5, 0, nil)
	}
	if got := testing.AllocsPerRun(100, read); got > 1 {
		t.Fatalf("reading an empty trap set costs %v allocations beyond the set, want 0", got-1)
	}
}

// TestTakeoverSeesNewestWindowAtEverySize: however many accesses the owner
// recorded — before its ring first fills, at each wrap, after any number of
// them, on the inline ring and on an allocated one (ObjHistory 8) — the
// second thread's takeover finds the newest ObjHistory of them, and every
// call is counted once.
func TestTakeoverSeesNewestWindowAtEverySize(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.DisablePhaseDetection = true
	cfg.DisableHBInference = true
	for _, window := range []int{1, cfg.ObjHistory, 8} {
		cfg.ObjHistory = window
		for k := 1; k <= 3*ownerRingSize(window)+1; k++ {
			clk := &stepClock{}
			clk.at.Store(int64(time.Hour)) // a zeroed ring slot is no near miss
			d := mustNew(t, cfg, WithClock(clk))
			owned := make(chan struct{})
			go func() {
				defer close(owned)
				for i := 0; i < k; i++ {
					d.OnCall(acc(1, 1, ids.OpID(1000+i), KindWrite))
				}
			}()
			<-owned
			taken := make(chan struct{})
			go func() {
				defer close(taken)
				d.OnCall(acc(2, 1, 102, KindWrite))
			}()
			<-taken
			want := map[report.PairKey]bool{}
			for i := max(0, k-window); i < k; i++ {
				want[report.KeyOf(ids.OpID(1000+i), 102)] = true
			}
			st := d.Stats()
			if st.NearMisses != int64(len(want)) {
				t.Fatalf("N=%d k=%d: takeover found %d near misses, want %d", window, k, st.NearMisses, len(want))
			}
			for _, key := range d.ExportTraps() {
				if !want[key] {
					t.Fatalf("N=%d k=%d: takeover paired %v, not one of the newest %d accesses", window, k, key, len(want))
				}
				delete(want, key)
			}
			if len(want) != 0 {
				t.Fatalf("N=%d k=%d: takeover missed %v", window, k, want)
			}
			if st.OnCalls != int64(k)+1 {
				t.Fatalf("N=%d k=%d: OnCalls = %d, want %d", window, k, st.OnCalls, k+1)
			}
		}
	}
}

// TestWrapRacingTakeoverKeepsCountersExact: on each of many fresh objects the
// owner publishes around its ring dozens of times while a second thread takes
// the object over at an arbitrary point, and a third snapshots the statistics
// throughout. No live OnCalls is smaller than the one before it, and at
// quiescence every call was counted exactly once.
func TestWrapRacingTakeoverKeepsCountersExact(t *testing.T) {
	const objects, ownerCalls = 2000, 200
	cfg := testConfig(config.AlgoTSVD)
	cfg.DisableHBInference = true
	cfg.Mode = config.ModeObserveOnly // near misses, pairs and delay decisions, but no sleeping
	d := mustNew(t, cfg)
	stop := make(chan struct{})
	var scrapes, decreases int
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
				n := d.Stats().OnCalls
				if scrapes++; n < last {
					decreases++
				}
				last = n
			}
		}
	}()
	for o := 0; o < objects; o++ {
		obj := ids.ObjectID(1000 + o)
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < ownerCalls; i++ {
				d.OnCall(acc(1, obj, 101, KindWrite))
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			for spin := 0; spin < o%256; spin++ {
				time.Now()
			}
			d.OnCall(acc(2, obj, 102, KindRead))
		}()
		close(start)
		wg.Wait()
	}
	close(stop)
	scraper.Wait()
	if decreases != 0 {
		t.Errorf("%d of %d live snapshots read a smaller OnCalls than the one before", decreases, scrapes)
	}
	if got, want := d.Stats().OnCalls, int64(objects*(ownerCalls+1)); got != want {
		t.Fatalf("OnCalls = %d at quiescence, %d calls were issued", got, want)
	}
}

// wakingClock wakes every sleep early, after a quarter of it.
type wakingClock struct{ stepClock }

func (*wakingClock) Sleep(d time.Duration, _ <-chan struct{}) (time.Duration, bool) {
	return d / 4, true
}

// TestDelayBudgetThroughInjectDelay: the per-thread cap (§4, runtime feature
// 2) as the detector applies it — requests are clipped to what is left, an
// exhausted thread is not delayed again, another thread has its own budget,
// and the part of a grant an early wake did not sleep is refunded.
func TestDelayBudgetThroughInjectDelay(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	delay := cfg.EffectiveDelay()
	cfg.MaxDelayPerThread = time.Duration(2.5 * float64(cfg.DelayTime))
	rt := &mustNew(t, cfg, WithClock(&stepClock{})).(*TSVD).rt
	st := rt.threadStateFor(1)
	a := acc(1, 1, 101, KindWrite)
	for i, want := range []time.Duration{delay, delay, delay / 2, 0, 0} {
		slept, injected, _ := rt.injectDelay(st, a, delay, 0, false)
		if slept != want || injected != (want > 0) {
			t.Fatalf("delay %d: slept %v (injected %v), want %v", i, slept, injected, want)
		}
	}
	if got, want := rt.snapshotStats(), rt.maxDelay; got.DelaysInjected != 3 || got.TotalDelay != want {
		t.Fatalf("%d delays totalling %v, want 3 totalling the cap %v", got.DelaysInjected, got.TotalDelay, want)
	}
	if slept, injected, _ := rt.injectDelay(rt.threadStateFor(2), acc(2, 1, 102, KindWrite), delay, 0, false); !injected || slept != delay {
		t.Fatalf("a second thread slept %v: budgets are per thread", slept)
	}

	rt = &mustNew(t, cfg, WithClock(&wakingClock{})).(*TSVD).rt
	st = rt.threadStateFor(1)
	var slept time.Duration
	for i := 0; i < 4; i++ {
		s, _, _ := rt.injectDelay(st, a, delay, 0, false)
		slept += s
	}
	if used := st.budget.Used(); used != slept || slept != 4*(delay/4) {
		t.Fatalf("budget charged %v for %v slept in four early-woken delays of %v", used, slept, delay)
	}
}

// TestSeededDecisionsMatchAnEagerSource: the source is built by the first
// draw, not by New, and still yields the stream rand.NewSource(cfg.Seed)
// does — the random variant's delay decisions and lengths for a scripted
// sequence are the ones computed from such a source directly.
func TestSeededDecisionsMatchAnEagerSource(t *testing.T) {
	cfg := testConfig(config.AlgoDynamicRandom)
	cfg.Seed = 20260917
	cfg.RandomDelayProbability = 0.3
	cfg.MaxDelayPerThread = 0
	d := mustNew(t, cfg, WithClock(&stepClock{}))
	if d.(*DynamicRandom).rt.rng != nil {
		t.Fatal("the source was seeded before any draw")
	}
	ref := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < 500; i++ {
		before := d.Stats()
		d.OnCall(acc(ids.ThreadID(1+i%3), ids.ObjectID(1+i%7), ids.OpID(100+i%11), KindWrite))
		after := d.Stats()
		var want time.Duration
		if ref.Float64() < cfg.RandomDelayProbability {
			want = time.Duration(ref.Int63n(int64(cfg.EffectiveDelay()))) + 1
		}
		if got := after.TotalDelay - before.TotalDelay; got != want {
			t.Fatalf("call %d: delayed %v, the seeded stream says %v", i, got, want)
		}
	}
}

// TestFailedThreadIDIsOneMoreThread: ids.NoThread is what ids.CurrentThreadID
// returns when its portable parser fails, and it used to be the shared-mode
// sentinel too, so such a thread was taken for the owner of every shared
// object. It is one more thread: its conflicting write is scanned against the
// object's history, the closed publication ring stays closed, and every call
// is counted once.
func TestFailedThreadIDIsOneMoreThread(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.DisablePhaseDetection = true
	cfg.DisableHBInference = true
	cfg.Mode = config.ModeObserveOnly
	d := mustNew(t, cfg, WithClock(&stepClock{}))
	d.OnCall(acc(1, 1, 101, KindWrite))
	d.OnCall(acc(2, 1, 102, KindWrite)) // takeover: one near miss, the ring closes
	for call, want := range []int64{3, 5} {
		d.OnCall(acc(ids.NoThread, 1, 103, KindWrite))
		st := d.Stats()
		if st.NearMisses != want {
			t.Fatalf("%d near misses after thread %d's call %d, want %d", st.NearMisses, ids.NoThread, call+1, want)
		}
		if st.OnCalls != int64(3+call) {
			t.Fatalf("OnCalls = %d after %d calls", st.OnCalls, 3+call)
		}
	}
	if pub := d.(*TSVD).rt.objs.Get(1).ring.pub.Load(); pub&ringClosed == 0 {
		t.Fatalf("publication counter %#x: a shared object's ring was reopened", pub)
	}
}

// TestReadSharedCostsTwoAllocationsAnObject: the stripes are bought by an
// object's first promotion (the readSet and one entry array for all of them)
// and kept across demotions; a read recorded into them costs nothing; and
// objState, with the pointer to them and its inline ring, still fits in five
// cache lines. The readSet is a line per stripe behind a line of padding.
func TestReadSharedCostsTwoAllocationsAnObject(t *testing.T) {
	if size := unsafe.Sizeof(objState{}); size > 320 {
		t.Errorf("objState is %d bytes, over five cache lines", size)
	}
	if size := unsafe.Sizeof(readSet{}); size != 64*(readStripes+1) {
		t.Errorf("readSet is %d bytes: a stripe, or the pad in front of them, is not a cache line", size)
	}
	skipAllocCountUnderRace(t)
	cfg := testConfig(config.AlgoTSVD)
	cfg.Mode = config.ModeObserveOnly
	d := mustNew(t, cfg, WithClock(&stepClock{}))
	rt := runtimeOf(d)
	run := promoteAfter(cfg.ObjHistory)
	obj := ids.ObjectID(100)
	share := func() { // a fresh object, taken over and one read short of promotion
		obj++
		for i := 0; i < run; i++ {
			d.OnCall(acc(ids.ThreadID(1+i%2), obj, 101, KindRead))
		}
	}
	promoting := func() { d.OnCall(acc(1, obj, 101, KindRead)) }
	readShared := func() bool { return rt.objs.Get(int64(obj)).writer.Load() == writerReadShared }
	share() // thread states, site, coverage
	promoting()
	unpromoted := testing.AllocsPerRun(50, share)
	if readShared() {
		t.Fatal("promoted a read early")
	}
	promoted := testing.AllocsPerRun(50, func() { share(); promoting() })
	if !readShared() || promoted-unpromoted > 2 {
		t.Fatalf("a shared object costs %v allocations, promoted (read-shared: %v) %v: want two more", unpromoted, readShared(), promoted)
	}
	if got := testing.AllocsPerRun(1000, promoting); got != 0 || !readShared() {
		t.Fatalf("a read of a read-shared object costs %v allocations (read-shared: %v)", got, readShared())
	}
	again := func() {
		d.OnCall(acc(2, obj, 102, KindWrite))
		for i := 0; i <= run; i++ {
			d.OnCall(acc(ids.ThreadID(1+i%2), obj, 101, KindRead))
		}
	}
	if got := testing.AllocsPerRun(100, again); got != 0 || !readShared() {
		t.Fatalf("a demotion and the promotion after it cost %v allocations (read-shared: %v)", got, readShared())
	}
}

// TestSprungTrapAllocations pins what catching a trapped thread costs: one
// array for both sides' program counters, one string for both stacks, each
// half of it what ids.FormatStack renders alone.
func TestSprungTrapAllocations(t *testing.T) {
	skipAllocCountUnderRace(t)
	rt := runtimeOf(mustNew(t, testConfig(config.AlgoTSVD)))
	parked := &trap{access: acc(1, 1, 101, KindWrite), cancel: make(chan struct{}, 1)}
	parked.depth = goruntime.Callers(0, parked.pcs[:])
	os := rt.objStateFor(nil, 1)
	os.traps = append(os.traps, parked)
	a := acc(2, 1, 102, KindWrite)
	rt.resolveSite(&parked.access)
	rt.resolveSite(&a)
	got := testing.AllocsPerRun(100, func() {
		if len(rt.checkForTraps(os, &a)) != 1 {
			t.Fatal("the trap did not spring")
		}
	})
	if got > 5 { // the array, the string, two runtime.Frames iterators, the returned keys
		t.Fatalf("a sprung trap costs %v allocations, want at most 5", got)
	}
	v := rt.reports.Violations()[0]
	if v.Trapped.Stack != ids.FormatStack(v.Trapped.PCs) || v.Conflicting.Stack != ids.FormatStack(v.Conflicting.PCs) {
		t.Fatalf("stacks rendered together differ from each rendered alone:\n%s\n%s", v.Trapped.Stack, v.Conflicting.Stack)
	}
}
