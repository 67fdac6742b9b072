package tsvd

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
)

// Note: the installed detector is process-global, so these tests install
// fresh detectors per test and must not run in parallel with each other.

func install(t *testing.T) *Session {
	t.Helper()
	s, err := Install(DefaultConfig().Scaled(0.1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaultIsNopBeforeInstall(t *testing.T) {
	// Reset to a Nop-equivalent state by installing a Nop config.
	cfg := DefaultConfig()
	cfg.Algorithm = Nop
	s, err := Install(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDictionary[string, int]()
	d.Set("a", 1)
	if len(s.Bugs()) != 0 {
		t.Fatal("Nop detector reported bugs")
	}
}

func TestInstallRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ObjHistory = 0
	if _, err := Install(cfg); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestQuickstartFlow(t *testing.T) {
	s := install(t)
	dict := NewDictionary[string, int]()

	done1 := make(chan struct{})
	done2 := make(chan struct{})
	go func() {
		defer close(done1)
		for i := 0; i < 200; i++ {
			dict.Set("key1", i)
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		defer close(done2)
		for i := 0; i < 200; i++ {
			dict.ContainsKey("key2")
			time.Sleep(time.Millisecond)
		}
	}()
	<-done1
	<-done2

	if len(s.Bugs()) == 0 {
		t.Fatal("quickstart race not detected")
	}
	if s.Stats().DelaysInjected == 0 {
		t.Fatal("no delays were injected")
	}
}

func TestSchedulerAndTasks(t *testing.T) {
	install(t)
	s := NewScheduler()
	tk := Go(s, func() int { return 21 })
	doubled := ContinueWith(tk, func(v int) int { return v * 2 })
	if doubled.Result() != 42 {
		t.Fatal("task pipeline broken")
	}
	sum := 0
	mu := NewMutex()
	ForEach(s, []int{1, 2, 3, 4, 5}, 3, func(v int) {
		mu.Lock()
		sum += v
		mu.Unlock()
	})
	if sum != 15 {
		t.Fatalf("ForEach sum = %d", sum)
	}
}

func TestTrapFileRoundTripViaPublicAPI(t *testing.T) {
	install(t)
	dict := NewDictionary[string, int]()
	// A single near miss, strictly serialized: learn the pair only.
	c1 := make(chan struct{})
	go func() { dict.Set("a", 1); close(c1) }()
	<-c1
	c2 := make(chan struct{})
	go func() { dict.Set("b", 2); close(c2) }()
	<-c2

	path := filepath.Join(t.TempDir(), "traps.json")
	if err := SaveTrapFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := InstallWithTrapFile(DefaultConfig().Scaled(0.1), path); err != nil {
		t.Fatal(err)
	}
	if Default().ExportTraps() == nil {
		t.Fatal("trap file did not seed the new detector")
	}
}

func TestInstallSupersedesAndClosesPrevious(t *testing.T) {
	first := install(t)
	// Catch a bug on the first session so it has state worth keeping.
	dict := NewDictionary[string, int]()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			dict.Set("k", i)
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 200; i++ {
		dict.ContainsKey("k2")
		time.Sleep(time.Millisecond)
	}
	<-done
	firstBugs := len(first.Bugs())
	if firstBugs == 0 {
		t.Fatal("first session caught nothing; the supersede test needs state")
	}

	second := install(t)
	if !first.Closed() {
		t.Fatal("superseded session not closed")
	}
	if second.Closed() {
		t.Fatal("fresh session already closed")
	}
	if Current() != second {
		t.Fatal("Current is not the superseding session")
	}
	// The superseded session's discoveries are not orphaned: still readable
	// and still persistable from its own handle.
	if len(first.Bugs()) != firstBugs {
		t.Fatal("superseded session lost its bugs")
	}
	if err := first.SaveTraps(filepath.Join(t.TempDir(), "traps.json")); err != nil {
		t.Fatalf("superseded session cannot save traps: %v", err)
	}
	// The new session starts clean.
	if len(second.Bugs()) != 0 {
		t.Fatal("fresh session inherited bugs")
	}
}

// TestModeSwitchViaReinstall is the rollout story of docs/SAMPLING.md: start
// a session in observe-only (no thread ever sleeps), then supersede it with
// a full-mode session. Detection semantics must follow the installed mode,
// and the observe-only session's findings stay readable after supersession.
func TestModeSwitchViaReinstall(t *testing.T) {
	cfg := DefaultConfig() // TimeScale 1: a suppressed 100ms delay is unmissable
	cfg.Mode = ModeObserveOnly
	observe, err := Install(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dict := NewDictionary[string, int]()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			dict.Set("k", i)
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 200; i++ {
		dict.ContainsKey("k2")
		time.Sleep(time.Millisecond)
	}
	<-done

	ost := observe.Stats()
	if ost.DelaysInjected != 0 || ost.TotalDelay != 0 {
		t.Fatalf("observe-only slept: %d delays, %v", ost.DelaysInjected, ost.TotalDelay)
	}
	if ost.DelaysSuppressed == 0 {
		t.Fatal("observe-only reached no trap decision on a racy workload")
	}
	if ost.NearMisses == 0 {
		t.Fatal("observe-only recorded no near misses")
	}

	// Supersede with full mode at a small time scale: injection resumes.
	full := install(t)
	if !observe.Closed() {
		t.Fatal("observe-only session not superseded")
	}
	dict2 := NewDictionary[string, int]()
	done2 := make(chan struct{})
	go func() {
		defer close(done2)
		for i := 0; i < 200; i++ {
			dict2.Set("k", i)
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 200; i++ {
		dict2.ContainsKey("k2")
		time.Sleep(time.Millisecond)
	}
	<-done2
	if full.Stats().DelaysInjected == 0 {
		t.Fatal("full mode injected nothing after the switch")
	}
	// The superseded observe-only session still answers from its final state.
	if got := observe.Stats().DelaysInjected; got != 0 {
		t.Fatalf("superseded observe-only session mutated: %d delays", got)
	}
}

func TestCloseDetachesAndSaveTrapFileFailsNotInstalled(t *testing.T) {
	s := install(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if Current() != nil {
		t.Fatal("Close left the session installed")
	}
	err := SaveTrapFile(filepath.Join(t.TempDir(), "traps.json"))
	if !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("SaveTrapFile with no session = %v, want ErrNotInstalled", err)
	}
	// Containers created now report to a no-op detector, not a dead session.
	NewDictionary[string, int]().Set("a", 1)
	if s.Stats().OnCalls != 0 || Default().Stats().OnCalls != 0 {
		t.Fatal("a container created with no session installed reported to a detector")
	}
	// Closing twice is fine, as is closing an already superseded session.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionSnapshotAndPublicMetrics(t *testing.T) {
	reg := NewMetricsRegistry()
	s, err := Install(DefaultConfig().Scaled(0.1),
		WithDetectorMetrics(NewDetectorMetrics(reg)))
	if err != nil {
		t.Fatal(err)
	}
	dict := NewDictionary[string, int]()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			dict.Set("k", i)
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 200; i++ {
		dict.ContainsKey("k2")
		time.Sleep(time.Millisecond)
	}
	<-done

	snap := s.Snapshot()
	if snap.Stats.OnCalls == 0 || snap.Stats.NearMisses == 0 {
		t.Fatalf("snapshot saw no activity: %+v", snap.Stats)
	}
	if snap.Bugs != len(s.Bugs()) {
		t.Fatalf("snapshot Bugs = %d, session has %d", snap.Bugs, len(s.Bugs()))
	}
	if ts, ok := s.Detector().(interface{ TrapSetSize() int }); ok {
		if snap.TrapSetPairs != ts.TrapSetSize() {
			t.Fatalf("snapshot TrapSetPairs = %d, detector has %d",
				snap.TrapSetPairs, ts.TrapSetSize())
		}
	}
	// The public metrics registry sees the same detector: the scraped
	// counters reconcile exactly with the session's stats.
	if err := core.CheckCounters(reg.Values(), s.Stats()); err != nil {
		t.Error(err)
	}
}

func TestAllPublicConstructors(t *testing.T) {
	s := install(t)
	NewDictionary[int, int]().Set(1, 1)
	NewList[int]().Add(1)
	NewHashSet[string]().Add("x")
	NewQueue[int]().Enqueue(1)
	NewStack[int]().Push(1)
	NewSortedDictionary[int, string](func(a, b int) bool { return a < b }).Set(1, "a")
	NewLinkedList[int]().AddLast(1)
	NewStringBuilder().Append("s")
	NewCounter().Increment()
	NewMultiMap[string, int]().Add("k", 1)
	NewPriorityQueue[int](func(a, b int) bool { return a < b }).Enqueue(1)
	NewSortedSet[int](func(a, b int) bool { return a < b }).Add(1)
	NewBitArray(16).Set(3, true)
	if got := s.Stats().OnCalls; got < 13 {
		t.Fatalf("OnCalls = %d, want >= 13", got)
	}
}

// TestNoSessionMeansNoPrologue: with nothing installed — before any Install
// and again after Close — the root constructors hand the container a nil
// detector, so a call pays neither the thread-id nor the call-site lookup
// (whose stack parse allocates) on its way to a detector that does nothing.
// Default still answers with the no-op detector for callers that read it.
func TestNoSessionMeansNoPrologue(t *testing.T) {
	if s := Current(); s != nil {
		s.Close()
	}
	check := func(when string) {
		t.Helper()
		d := NewDictionary[int, int]()
		d.Set(1, 0)
		if n := testing.AllocsPerRun(200, func() { d.Set(1, 1) }); n != 0 {
			t.Errorf("%s: Dictionary.Set allocates %v times per call with no session installed", when, n)
		}
		if Default() == nil {
			t.Errorf("%s: Default() is nil; callers that read it expect the no-op detector", when)
		}
	}
	check("before Install")
	s := install(t)
	inst := NewDictionary[int, int]()
	inst.Set(1, 0)
	s.Close()
	check("after Close")
	if got := s.Stats().OnCalls; got != 1 {
		t.Errorf("a container built under the session made %d OnCalls, want 1", got)
	}
}
