package task

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ids"
)

func TestRunAndResult(t *testing.T) {
	s := NewScheduler(nil)
	tk := Run(s, func() int { return 42 })
	if got := tk.Result(); got != 42 {
		t.Fatalf("Result = %d, want 42", got)
	}
	s.WaitIdle()
}

func TestRunRunsOnOtherGoroutine(t *testing.T) {
	s := NewScheduler(nil)
	parent := ids.CurrentThreadID()
	tk := Run(s, func() ids.ThreadID { return ids.CurrentThreadID() })
	if tk.Result() == parent {
		t.Fatal("task ran on the parent goroutine without inlining enabled")
	}
	if tk.Inlined() {
		t.Fatal("task reported inlined")
	}
}

func TestResultRepanics(t *testing.T) {
	s := NewScheduler(nil)
	tk := Run(s, func() int { panic("boom") })
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "boom") {
			t.Fatalf("Result did not propagate the panic: %v", r)
		}
	}()
	tk.Result()
}

func TestTryResultCapturesPanic(t *testing.T) {
	s := NewScheduler(nil)
	tk := Run(s, func() int { panic("soft") })
	_, p := tk.TryResult()
	if p == nil {
		t.Fatal("TryResult lost the panic")
	}
}

func TestDone(t *testing.T) {
	s := NewScheduler(nil)
	release := make(chan struct{})
	tk := Run(s, func() int { <-release; return 1 })
	if tk.Done() {
		t.Fatal("task reported done while blocked")
	}
	close(release)
	tk.Wait()
	if !tk.Done() {
		t.Fatal("task not done after Wait")
	}
}

func TestContinueWith(t *testing.T) {
	s := NewScheduler(nil)
	tk := Run(s, func() int { return 7 })
	ck := ContinueWith(tk, func(v int) string {
		if v != 7 {
			t.Errorf("continuation received %d", v)
		}
		return "done"
	})
	if got := ck.Result(); got != "done" {
		t.Fatalf("continuation Result = %q", got)
	}
}

func TestWhenAll(t *testing.T) {
	s := NewScheduler(nil)
	var tasks []*Task[int]
	for i := 0; i < 10; i++ {
		i := i
		tasks = append(tasks, Run(s, func() int { return i * i }))
	}
	got := WhenAll(tasks...)
	for i, v := range got {
		if v != i*i {
			t.Fatalf("WhenAll[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestForEachProcessesAll(t *testing.T) {
	s := NewScheduler(nil)
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	var sum atomic.Int64
	var par atomic.Int64
	var maxPar atomic.Int64
	ForEach(s, items, 8, func(v int) {
		cur := par.Add(1)
		for {
			old := maxPar.Load()
			if cur <= old || maxPar.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		sum.Add(int64(v))
		par.Add(-1)
	})
	if sum.Load() != 99*100/2 {
		t.Fatalf("sum = %d", sum.Load())
	}
	if maxPar.Load() < 2 {
		t.Fatal("ForEach never ran items in parallel")
	}
	if maxPar.Load() > 8 {
		t.Fatalf("ForEach exceeded its degree: %d", maxPar.Load())
	}
}

func TestForEachEmptyAndPanic(t *testing.T) {
	s := NewScheduler(nil)
	ForEach(s, nil, 4, func(int) { t.Fatal("called for empty slice") })

	defer func() {
		if recover() == nil {
			t.Fatal("ForEach swallowed a panic")
		}
	}()
	ForEach(s, []int{1, 2, 3}, 2, func(v int) {
		if v == 2 {
			panic("item failure")
		}
	})
}

// TestForkJoinEventsReachDetector wires a recording detector and checks the
// fork and join edges of one task round trip.
func TestForkJoinEventsReachDetector(t *testing.T) {
	rec := &recordingDetector{}
	s := NewScheduler(rec)
	parent := ids.CurrentThreadID()
	tk := Run(s, func() int { return 1 })
	tk.Result()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.forks) != 1 || rec.forks[0][0] != parent {
		t.Fatalf("forks = %v", rec.forks)
	}
	if len(rec.joins) != 1 || rec.joins[0][0] != parent || rec.joins[0][1] != rec.forks[0][1] {
		t.Fatalf("joins = %v", rec.joins)
	}
}

// TestInlineFastTasks: with inlining enabled, spawn sites run synchronously
// from the start (the CLR's optimistic fast path) and keep doing so while
// their history stays fast — and ForceAsync overrides it.
func TestInlineFastTasks(t *testing.T) {
	s := NewScheduler(nil, WithInlineFastTasks())
	fast := func() int { return 1 }

	parent := ids.CurrentThreadID()
	spawn := func() *Task[int] { return Run(s, fast) } // one stable call site
	for i := 0; i < 3; i++ {
		tk := spawn()
		if tk.Result(); !tk.Inlined() {
			t.Fatalf("execution %d of a fast site was not inlined", i)
		}
		if got := tk.tid; got != parent {
			t.Fatalf("inlined task ran on goroutine %d, not the caller %d", got, parent)
		}
	}
	s.WaitIdle()
}

// TestSpawnSiteAttribution: the inlining history is kept per spawn site, so
// Run, ContinueWith and ForEach must attribute a spawn to the line that
// spawned it — checked against runtime.Callers, on the resolving call and on
// the cached ones after it.
func TestSpawnSiteAttribution(t *testing.T) {
	lineAbove := func() string {
		var pcs [1]uintptr
		runtime.Callers(2, pcs[:])
		f, _ := runtime.CallersFrames(pcs[:]).Next()
		return fmt.Sprintf("%s:%d (%s)", f.File, f.Line-1, f.Function)
	}
	for pass := 0; pass < 3; pass++ {
		s := NewScheduler(nil)
		tk := Run(s, func() int { return 1 })
		want := []string{lineAbove()}
		ContinueWith(tk, func(v int) int { return v + 1 })
		want = append(want, lineAbove())
		ForEach(s, []int{1, 2, 3}, 1, func(int) {})
		want = append(want, lineAbove())
		s.WaitIdle()

		var got []string
		for site := range s.siteStats {
			got = append(got, site.Location())
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("pass %d: spawn sites recorded:\n  %s\nwant:\n  %s", pass, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
}

func TestInlineDisabledByDefault(t *testing.T) {
	s := NewScheduler(nil)
	spawn := func() *Task[int] { return Run(s, func() int { return 1 }) }
	if spawn().Inlined() || spawn().Inlined() {
		t.Fatal("inlining happened without WithInlineFastTasks")
	}
}

func TestForceAsyncOverridesInlining(t *testing.T) {
	s := NewScheduler(nil, WithInlineFastTasks(), WithForceAsync())
	spawn := func() *Task[int] { return Run(s, func() int { return 1 }) }
	for i := 0; i < 4; i++ {
		if spawn().Inlined() {
			t.Fatal("ForceAsync did not suppress inlining")
		}
	}
	s.WaitIdle()
	if s.siteStats != nil {
		t.Fatal("a force-async scheduler kept a spawn-site history it never reads")
	}
}

func TestSlowSitesMigrateToAsync(t *testing.T) {
	s := NewScheduler(nil, WithInlineFastTasks())
	spawn := func() *Task[int] {
		return Run(s, func() int { time.Sleep(3 * time.Millisecond); return 1 })
	}
	// The first execution is optimistically inlined and measured...
	if !spawn().Inlined() {
		t.Fatal("first execution of an unknown site was not inlined")
	}
	// ...after which the site's slow history forces real asynchrony.
	tk := spawn()
	tk.Result()
	if tk.Inlined() {
		t.Fatal("slow site stayed inlined after measurement")
	}
}

func TestWaitIdleWaitsForStragglers(t *testing.T) {
	s := NewScheduler(nil)
	var finished atomic.Bool
	Run(s, func() int {
		time.Sleep(20 * time.Millisecond)
		finished.Store(true)
		return 0
	})
	s.WaitIdle()
	if !finished.Load() {
		t.Fatal("WaitIdle returned before the task finished")
	}
}

// TestSqrtCacheScenario is Figure 3/4 end to end: two getSqrt calls race on
// an unsynchronized cache dictionary through task parallelism; TSVDHB (fed
// by this substrate's fork/join edges) and TSVD must both catch the TSV.
func TestSqrtCacheScenario(t *testing.T) {
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB} {
		t.Run(algo.String(), func(t *testing.T) {
			det, err := core.New(config.Defaults(algo).Scaled(0.1))
			if err != nil {
				t.Fatal(err)
			}
			s := NewScheduler(det, WithForceAsync())
			// A shared "dict" accessed through OnCall directly: Add
			// (write) at one site, ContainsKey (read) at another.
			const dictObj = ids.ObjectID(77)
			containsKey := det.Sites().ForCall(7701, "Dictionary", "ContainsKey", false)
			add := det.Sites().ForCall(7702, "Dictionary", "Add", true)
			getSqrt := func(x float64) *Task[float64] {
				return Run(s, func() float64 {
					det.OnCall(core.Access{
						Thread: ids.CurrentThreadID(), Obj: dictObj,
						Op: 7701, Site: containsKey, Kind: core.KindRead,
					})
					time.Sleep(time.Millisecond)
					det.OnCall(core.Access{
						Thread: ids.CurrentThreadID(), Obj: dictObj,
						Op: 7702, Site: add, Kind: core.KindWrite,
					})
					return x
				})
			}
			deadline := time.Now().Add(10 * time.Second)
			for det.Reports().UniqueBugs() == 0 && time.Now().Before(deadline) {
				a := getSqrt(2)
				b := getSqrt(3)
				a.Result()
				b.Result()
			}
			if det.Reports().UniqueBugs() == 0 {
				t.Fatalf("%v missed the Figure 3 cache race", algo)
			}
		})
	}
}

type recordingDetector struct {
	core.NopDetector
	mu    sync.Mutex
	forks [][2]ids.ThreadID
	joins [][2]ids.ThreadID
}

func (r *recordingDetector) OnFork(parent, child ids.ThreadID) {
	r.mu.Lock()
	r.forks = append(r.forks, [2]ids.ThreadID{parent, child})
	r.mu.Unlock()
}

func (r *recordingDetector) OnJoin(waiter, done ids.ThreadID) {
	r.mu.Lock()
	r.joins = append(r.joins, [2]ids.ThreadID{waiter, done})
	r.mu.Unlock()
}

// TestSpawnCostsOneAllocation: a spawn buys its handle and nothing else —
// completion is signalled through the handle itself, not through a channel
// made for the occasion, and the handle reaches its goroutine through the
// package's hand-off channel, not through a start closure.
func TestSpawnCostsOneAllocation(t *testing.T) {
	s := NewScheduler(nil, WithForceAsync())
	fn := func() int { return 1 }
	if got := testing.AllocsPerRun(500, func() { Run(s, fn).Wait() }); got > 1 {
		t.Fatalf("Run+Wait costs %v allocations, want at most 1", got)
	}
}

// TestAsyncTasksRunOnGoroutinesOfTheirOwn: every spawner hands its tasks to
// fresh goroutines through one shared channel, so which goroutine receives
// which task is up to the runtime. Whatever it picks — for tasks alive all
// at once (more than the channel buffers) and tasks run one after another,
// spawned through Run, ContinueWith and ForEach by several goroutines at
// once — each task runs on a goroutine no other task and no spawner ran on,
// and the fork the detector receives names the goroutine that really
// spawned the task as its parent.
func TestAsyncTasksRunOnGoroutinesOfTheirOwn(t *testing.T) {
	const spawners, n, degree = 4, 100, 8
	rec := &recordingDetector{}
	s := NewScheduler(rec, WithForceAsync())

	var mu sync.Mutex
	spawnedBy := map[ids.ThreadID]ids.ThreadID{} // a task's goroutine → its spawner
	ran := func(spawner ids.ThreadID) {
		tid := ids.CurrentThreadID()
		mu.Lock()
		defer mu.Unlock()
		if tid == spawner {
			t.Errorf("a task ran on its spawner's goroutine %d", tid)
		}
		if _, dup := spawnedBy[tid]; dup {
			t.Errorf("two tasks ran on goroutine %d", tid)
		}
		spawnedBy[tid] = spawner
	}

	spawn := func() {
		me := ids.CurrentThreadID()
		release := make(chan struct{})
		alive := make([]*Task[struct{}], n)
		for i := range alive {
			alive[i] = Run(s, func() struct{} { ran(me); <-release; return struct{}{} })
		}
		close(release)
		WhenAll(alive...)

		for i := 0; i < n; i++ {
			tk := Run(s, func() int { ran(me); return i })
			ContinueWith(tk, func(int) struct{} { ran(me); return struct{}{} }).Wait()
		}

		// Every item waits for all of them to start, so each of the degree
		// workers takes exactly one.
		var started sync.WaitGroup
		started.Add(degree)
		ForEach(s, make([]int, degree), degree, func(int) {
			ran(me)
			started.Done()
			started.Wait()
		})
	}
	root := ids.CurrentThreadID()
	tasks := make([]*Task[struct{}], spawners)
	for i := range tasks {
		tasks[i] = Run(s, func() struct{} { ran(root); spawn(); return struct{}{} })
	}
	WhenAll(tasks...)
	s.WaitIdle()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if want := spawners * (1 + 3*n + degree); len(spawnedBy) != want {
		t.Fatalf("%d tasks ran on distinct goroutines, want %d", len(spawnedBy), want)
	}
	if len(rec.forks) != len(spawnedBy) {
		t.Fatalf("%d forks recorded for %d tasks", len(rec.forks), len(spawnedBy))
	}
	for _, f := range rec.forks {
		if parent, ok := spawnedBy[f[1]]; !ok || parent != f[0] {
			t.Fatalf("fork %d → %d, but goroutine %d was spawned by %d (known %v)", f[0], f[1], f[1], parent, ok)
		}
	}
}
