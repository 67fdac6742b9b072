// Package syncx provides a monitored mutex. Acquire/release events flow to
// the detector so the TSVDHB variant can thread vector clocks through
// critical sections; TSVD ignores the events entirely — the point of its
// design is not needing them, so programs may equally use plain sync.Mutex
// (which TSVDHB then cannot see, giving it the missed-edge behaviour the
// paper describes in §2.3).
package syncx

import (
	"sync"

	"repro/internal/core"
	"repro/internal/ids"
)

// Mutex is a mutual-exclusion lock whose acquire/release events are
// reported to a detector.
type Mutex struct {
	det core.Detector
	id  ids.ObjectID
	mu  sync.Mutex
}

// NewMutex returns a monitored mutex reporting to det (nil for none).
func NewMutex(det core.Detector) *Mutex {
	return &Mutex{det: det, id: ids.NewObjectID()}
}

// Lock acquires the mutex. The acquire event is published after the lock is
// held, so the thread's clock correctly absorbs the previous holder's
// release.
func (m *Mutex) Lock() {
	m.mu.Lock()
	if m.det != nil {
		m.det.OnLockAcquire(ids.CurrentThreadID(), m.id)
	}
}

// Unlock releases the mutex. The release event is published while the lock
// is still held, so the clock hand-off is ordered with the actual release.
func (m *Mutex) Unlock() {
	if m.det != nil {
		m.det.OnLockRelease(ids.CurrentThreadID(), m.id)
	}
	m.mu.Unlock()
}
