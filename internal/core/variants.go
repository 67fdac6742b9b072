package core

import (
	"sync"

	"repro/internal/ids"
	"repro/internal/trace"
)

// DynamicRandom (§3.2) treats every TSVD point as an eligible delay location
// and injects a delay at a random subset of dynamic occurrences: should_delay
// returns true with a small fixed probability, and the delay length itself is
// random. Hot paths therefore soak up most of the delays — the weakness
// StaticRandom and TSVD address.
type DynamicRandom struct {
	nopSyncHooks
	detectorBase
}

// admitRandom is the front half DynamicRandom and StaticRandom share:
// admission and check_for_trap (enter, admit.go), then count the call, mark
// coverage and — in sampled mode — close its overhead account. It returns
// the calling thread's state, or nil when the call was not admitted. The
// account closes before the caller's delay branch: delay time is charged
// separately inside injectDelay, so nothing is counted twice.
func (r *runtime) admitRandom(a *Access) *threadState {
	st := r.threadStateFor(a.Thread)
	if (r.samp != nil || r.parked.Load() > 0) && !r.enter(st, a) {
		return nil
	}
	st.onCalls.Add(1)
	r.markSeen(a.Site, a.Op, false)
	if r.samp != nil {
		r.leave(st)
	}
	return st
}

// OnCall implements Detector.
func (d *DynamicRandom) OnCall(a Access) {
	st := d.rt.admitRandom(&a)
	if st == nil {
		return
	}
	if d.rt.randFloat() < d.rt.cfg.RandomDelayProbability {
		// "the thread sleeps for a random amount of time" — uniform in
		// (0, DelayTime].
		dur := d.rt.randDurationUpTo(d.rt.delayTime)
		d.rt.tr.Emit(trace.KindDelayPlanned, a.Thread, a.Obj, a.Op, 0, d.rt.stamp(noCall), dur)
		d.rt.injectDelay(st, a, dur, 0, false)
	}
}

// StaticRandom (§3.3) emulates DataCollider: static program locations are
// sampled uniformly, irrespective of how often each executes, so cold paths
// get the same attention as hot loops.
//
// Mechanically (mirroring DataCollider's continuously replenished code
// breakpoints): every known location is armed with probability
// StaticSampleProbability per sampling window; an armed location fires a
// full-length delay on its next execution and disarms until the window
// rolls over (every resamplePeriod observed calls). Delay volume therefore
// scales with the number of static locations — the "many delay locations,
// no analysis" corner of Figure 2 — rather than with execution counts.
//
// The armed table is the variant's own cross-thread state and keeps its own
// small lock; the shared runtime underneath is the lock-free one.
type StaticRandom struct {
	nopSyncHooks
	detectorBase

	mu    sync.Mutex
	armed map[ids.OpID]bool
	// ops lists armed's keys in the order they were first seen, which is
	// the order re-arming draws in: a map's would make the seed decide
	// nothing.
	ops   []ids.OpID
	calls int64
}

// resamplePeriod is how many OnCalls pass between re-arming rounds.
const resamplePeriod = 200

// OnCall implements Detector.
func (s *StaticRandom) OnCall(a Access) {
	st := s.rt.admitRandom(&a)
	if st == nil {
		return
	}

	s.mu.Lock()
	armed, known := s.armed[a.Op]
	if !known {
		if s.armed == nil {
			s.armed = map[ids.OpID]bool{}
		}
		armed = s.rt.randFloat() < s.rt.cfg.StaticSampleProbability
		s.armed[a.Op] = armed
		s.ops = append(s.ops, a.Op)
	}
	s.calls++
	if s.calls%resamplePeriod == 0 {
		for _, op := range s.ops {
			if !s.armed[op] {
				s.armed[op] = s.rt.randFloat() < s.rt.cfg.StaticSampleProbability
			}
		}
	}
	if armed {
		s.armed[a.Op] = false // breakpoints fire once per arming
	}
	s.mu.Unlock()
	if armed {
		s.rt.tr.Emit(trace.KindDelayPlanned, a.Thread, a.Obj, a.Op, 0, s.rt.stamp(noCall), s.rt.delayTime)
		s.rt.injectDelay(st, a, s.rt.delayTime, 0, false)
	}
}
