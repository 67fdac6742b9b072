// Package task is the unstructured task-parallelism substrate — the Go
// analogue of .NET's Task Parallel Library that the paper's target programs
// are written against (§2.3). Tasks are forked explicitly (Run), through
// data-parallel loops (ForEach), or as continuations (ContinueWith); any
// task can be joined from anywhere via Wait/Result, so fork/join graphs are
// arbitrary, not series-parallel.
//
// The scheduler publishes fork and join events to a detector. Only the
// TSVDHB variant consumes them; TSVD ignores them, which is its design
// point. The scheduler also emulates the CLR optimization that runs fast
// async functions synchronously (§4): with inlining enabled, a spawn site
// whose function historically completes quickly executes inline on the
// caller's goroutine — hiding concurrency from tests exactly as the paper
// describes. TSVD instrumentation counters this with ForceAsync, and a
// force-async scheduler keeps no spawn-site history at all, since it never
// consults one.
//
// An asynchronous spawn costs one allocation, its handle: the task's
// function, spawn site and parent travel in the handle, completion is a
// WaitGroup inside it, and the handle reaches a fresh goroutine through one
// of a few package-level channels, so the go statement itself captures
// nothing. Every asynchronous task still runs on a goroutine of its own.
package task

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
)

// defaultInlineThreshold is the historical mean duration under which a
// spawn site is considered "fast" and eligible for synchronous inlining.
const defaultInlineThreshold = time.Millisecond

// Scheduler owns task bookkeeping for one test/module execution.
type Scheduler struct {
	det core.Detector // may be nil (uninstrumented)

	// Fixed by NewScheduler.
	inlineFast      bool
	forceAsync      bool
	inlineThreshold time.Duration
	shard           uint32 // the hand-off channel this scheduler's spawns use

	mu sync.Mutex
	// siteStats is the spawn-site history the inlining heuristic reads; nil
	// under force-async, which never reads it.
	siteStats map[ids.OpID]*siteStat
	wg        sync.WaitGroup
}

type siteStat struct {
	runs  int64
	total time.Duration
}

// SchedulerOption configures a Scheduler.
type SchedulerOption func(*Scheduler)

// WithInlineFastTasks enables the CLR-like optimization: spawn sites with a
// history of sub-millisecond completions run synchronously.
func WithInlineFastTasks() SchedulerOption {
	return func(s *Scheduler) { s.inlineFast = true }
}

// WithForceAsync is TSVD's instrumentation override (§4): every task runs
// asynchronously regardless of inlining heuristics.
func WithForceAsync() SchedulerOption {
	return func(s *Scheduler) { s.forceAsync = true }
}

// WithInlineThreshold overrides what counts as a "fast" task for the
// inlining optimization; time-scaled harnesses scale it with their pace.
func WithInlineThreshold(d time.Duration) SchedulerOption {
	return func(s *Scheduler) { s.inlineThreshold = d }
}

// NewScheduler returns a Scheduler reporting fork/join events to det
// (nil for none).
func NewScheduler(det core.Detector, opts ...SchedulerOption) *Scheduler {
	s := &Scheduler{
		det:             det,
		inlineThreshold: defaultInlineThreshold,
		shard:           nextShard.Add(1) % handoffShards,
	}
	for _, opt := range opts {
		opt(s)
	}
	if !s.forceAsync {
		s.siteStats = map[ids.OpID]*siteStat{}
	}
	return s
}

// WaitIdle blocks until every task spawned through this scheduler has
// completed. Test harnesses call it between the test body and report
// collection.
func (s *Scheduler) WaitIdle() { s.wg.Wait() }

// shouldInline consults the spawn site's completion history. Mirroring the
// CLR optimization, inlining is optimistic: a site runs synchronously until
// its history proves it slow — which is exactly why tests that mock slow
// I/O with fast stubs never exercise real concurrency (§4).
func (s *Scheduler) shouldInline(site ids.OpID) bool {
	if s.forceAsync || !s.inlineFast {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.siteStats[site]
	if st == nil || st.runs == 0 {
		return true // optimistic: assume fast until measured otherwise
	}
	return time.Duration(int64(st.total)/st.runs) < s.inlineThreshold
}

// recordRun adds one completion to site's history. Only a scheduler that
// may inline keeps one; under force-async it is never called.
func (s *Scheduler) recordRun(site ids.OpID, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.siteStats[site]
	if st == nil {
		st = &siteStat{}
		s.siteStats[site] = st
	}
	st.runs++
	st.total += d
}

// Task is an asynchronous unit of work producing a T. Task handles are
// first-class values: they can be stored, passed around, and joined by any
// goroutine — the unstructured parallelism of §2.3.
type Task[T any] struct {
	// fin is released exactly once, when the task has completed; finished
	// mirrors it for Done's non-blocking check. Both live in the handle so
	// that a spawn does not buy a channel as well.
	fin      sync.WaitGroup
	finished atomic.Bool

	// Written by the executing goroutine before fin is released.
	result   T
	panicVal any
	tid      ids.ThreadID
	inlined  bool

	sched *Scheduler
	// Set by the spawner before an asynchronous task is handed off; fn is
	// cleared once it has run, so a kept handle does not keep its closure.
	site   ids.OpID
	parent ids.ThreadID
	fn     func() T
}

// handoffs carry each asynchronous task's handle to the goroutine started
// for it; starters[i] is the body of a goroutine that takes one handle from
// handoffs[i] and runs it. The starters are made once, at init, so the go
// statement that runs one allocates nothing. A spawner starts the goroutine
// first and sends second, so on every channel there are always at least as
// many started goroutines waiting for an entry as there are entries: a full
// buffer can only block a spawner until an already-started goroutine drains
// one entry, never deadlock. Each goroutine receives exactly one handle, so
// every task runs on a fresh goroutine; which of two concurrent spawners'
// goroutines runs which task does not matter.
//
// With one channel for every scheduler, two modules spawning at once on two
// CPUs fight over its lock (Run+Wait from two goroutines on two CPUs: ≈ 700
// ns against ≈ 500 with a channel each), so schedulers are dealt round-robin
// over eight. The 64 entries of each hold a burst of spawns — a generated
// task-storm test forks 40 at once — before the runtime schedules their
// goroutines, so a spawner rarely waits.
const handoffShards = 8

var (
	handoffs  [handoffShards]chan starter
	starters  [handoffShards]func()
	nextShard atomic.Uint32
)

type starter interface{ start() }

func init() {
	for i := range handoffs {
		ch := make(chan starter, 64)
		handoffs[i] = ch
		starters[i] = func() { (<-ch).start() }
	}
}

// Run forks fn as a task (TPL's Task.Run). The spawn site is attributed to
// Run's caller for the inlining heuristic.
func Run[T any](s *Scheduler, fn func() T) *Task[T] {
	return runAt(s, ids.CallerOp(0), fn)
}

func runAt[T any](s *Scheduler, site ids.OpID, fn func() T) *Task[T] {
	t := &Task[T]{sched: s}
	t.fin.Add(1)
	if s.shouldInline(site) {
		// CLR-style synchronous execution of a fast task: no fork, no
		// new thread, concurrency hidden. Duration is still recorded so
		// slow sites migrate to real asynchrony.
		t.inlined = true
		t.tid = ids.CurrentThreadID()
		start := time.Now()
		t.invoke(fn)
		s.recordRun(site, time.Since(start))
		t.finish()
		return t
	}
	t.site, t.fn = site, fn
	if s.det != nil {
		t.parent = ids.CurrentThreadID()
	}
	s.wg.Add(1)
	go starters[s.shard]()
	handoffs[s.shard] <- t
	return t
}

// start runs an asynchronous task on the goroutine that received it.
func (t *Task[T]) start() {
	s := t.sched
	defer s.wg.Done()
	if s.det != nil {
		t.tid = ids.CurrentThreadID()
		s.det.OnFork(t.parent, t.tid)
	}
	if s.forceAsync {
		t.invoke(t.fn)
	} else {
		start := time.Now()
		t.invoke(t.fn)
		s.recordRun(t.site, time.Since(start))
	}
	t.fn = nil
	t.finish()
}

func (t *Task[T]) finish() {
	t.finished.Store(true)
	t.fin.Done()
}

// invoke runs fn capturing panics, which surface at Result like .NET's
// exception propagation on Task.Result.
func (t *Task[T]) invoke(fn func() T) {
	defer func() {
		if r := recover(); r != nil {
			t.panicVal = r
		}
	}()
	t.result = fn()
}

// Wait blocks until the task completes and records the join edge.
func (t *Task[T]) Wait() {
	t.fin.Wait()
	if t.inlined {
		return // ran on the caller's own goroutine; no edge to record
	}
	if t.sched.det != nil {
		t.sched.det.OnJoin(ids.CurrentThreadID(), t.tid)
	}
}

// Result blocks for the task's value (TPL's Task.Result). A panic inside
// the task re-panics here, wrapped to preserve the origin.
func (t *Task[T]) Result() T {
	t.Wait()
	if t.panicVal != nil {
		panic(fmt.Sprintf("task: panic in task body: %v", t.panicVal))
	}
	return t.result
}

// TryResult is Result without re-panicking; it returns the captured panic
// value, if any.
func (t *Task[T]) TryResult() (T, any) {
	t.Wait()
	return t.result, t.panicVal
}

// Done reports whether the task has completed without blocking.
func (t *Task[T]) Done() bool { return t.finished.Load() }

// Inlined reports whether the task was executed synchronously by the
// fast-async optimization (visible for tests and the §4 experiment).
func (t *Task[T]) Inlined() bool {
	t.fin.Wait()
	return t.inlined
}

// ContinueWith schedules fn to run as a new task after t completes,
// receiving t's result (TPL's Task.ContinueWith). The continuation task
// observes a join edge from t.
func ContinueWith[T, U any](t *Task[T], fn func(T) U) *Task[U] {
	s := t.sched
	site := ids.CallerOp(0)
	return runAt(s, site, func() U {
		v := t.Result()
		return fn(v)
	})
}

// WhenAll waits for every task and collects the results in order (TPL's
// Task.WhenAll + Result).
func WhenAll[T any](tasks ...*Task[T]) []T {
	out := make([]T, len(tasks))
	for i, t := range tasks {
		out[i] = t.Result()
	}
	return out
}

// ForEach applies fn to every item with bounded parallelism (TPL's
// Parallel.ForEach). Worker tasks pull indices from a shared cursor; the
// call returns when all items are processed. Panics in fn are re-raised
// after all workers finish, mirroring .NET's AggregateException.
func ForEach[T any](s *Scheduler, items []T, degree int, fn func(T)) {
	if len(items) == 0 {
		return
	}
	if degree <= 0 {
		degree = 4
	}
	if degree > len(items) {
		degree = len(items)
	}
	var cursor int64
	var cursorMu sync.Mutex
	next := func() int {
		cursorMu.Lock()
		defer cursorMu.Unlock()
		i := cursor
		cursor++
		return int(i)
	}
	work := func() struct{} {
		for {
			i := next()
			if i >= len(items) {
				return struct{}{}
			}
			fn(items[i])
		}
	}
	site := ids.CallerOp(0)
	workers := make([]*Task[struct{}], degree)
	for w := range workers {
		workers[w] = runAt(s, site, work)
	}
	var firstPanic any
	for _, w := range workers {
		if _, p := w.TryResult(); p != nil && firstPanic == nil {
			firstPanic = p
		}
	}
	if firstPanic != nil {
		panic(fmt.Sprintf("task: panic in ForEach body: %v", firstPanic))
	}
}
