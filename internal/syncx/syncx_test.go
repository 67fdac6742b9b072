package syncx

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
)

type lockRecorder struct {
	core.NopDetector
	mu       sync.Mutex
	acquires []ids.ObjectID
	releases []ids.ObjectID
}

func (r *lockRecorder) OnLockAcquire(t ids.ThreadID, lock ids.ObjectID) {
	r.mu.Lock()
	r.acquires = append(r.acquires, lock)
	r.mu.Unlock()
}

func (r *lockRecorder) OnLockRelease(t ids.ThreadID, lock ids.ObjectID) {
	r.mu.Lock()
	r.releases = append(r.releases, lock)
	r.mu.Unlock()
}

func TestMutexMutualExclusion(t *testing.T) {
	m := NewMutex(nil)
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000 (lock is broken)", counter)
	}
}

func TestMutexEventsReachDetector(t *testing.T) {
	rec := &lockRecorder{}
	m := NewMutex(rec)
	m.Lock()
	m.Unlock()
	m.Lock()
	m.Unlock()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.acquires) != 2 || len(rec.releases) != 2 {
		t.Fatalf("events = %d acquires, %d releases, want 2/2",
			len(rec.acquires), len(rec.releases))
	}
	if rec.acquires[0] != rec.releases[0] {
		t.Fatal("acquire/release lock ids differ")
	}
}

func TestDistinctMutexesDistinctIDs(t *testing.T) {
	rec := &lockRecorder{}
	a, b := NewMutex(rec), NewMutex(rec)
	a.Lock()
	a.Unlock()
	b.Lock()
	b.Unlock()
	if rec.acquires[0] == rec.acquires[1] {
		t.Fatal("two mutexes share an id")
	}
}
