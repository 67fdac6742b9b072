package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/report"
	"repro/internal/trace"
)

// trapSet is the dynamic set of dangerous location pairs (§3.4.1) together
// with the per-location delay probabilities of the decay scheme (§3.4.5).
// It is shared by TSVD and TSVDHB, which differ only in how pairs enter
// (near-miss vs. vector-clock concurrency) and leave (HB inference vs. HB
// analysis) the set.
//
// The set is internally synchronized — one of the sharded runtime's small
// cold-path locks. Mutations (pair churn, decay) are rare relative to
// OnCall volume; the per-call should_delay check reads through eligible()
// under an RLock, and even that is skipped entirely while the lock-free
// live counter reads zero (the common case on healthy code).
type trapSet struct {
	mu sync.RWMutex
	// live mirrors len(pairs) so the hot path can skip the lock when the
	// set is empty.
	live atomic.Int64
	// pairs is the current trap set.
	pairs map[report.PairKey]struct{}
	// locProb holds P_loc; a location appears iff it participates in at
	// least one pair, present or past.
	locProb map[ids.OpID]float64
	// locPairs indexes pairs by endpoint for O(pairs-of-loc) updates.
	locPairs map[ids.OpID]map[report.PairKey]struct{}
	// suppressed pairs are never (re-)added: violations already reported
	// and pairs pruned by happens-before.
	suppressed map[report.PairKey]struct{}
}

func newTrapSet() trapSet {
	return trapSet{
		pairs:      map[report.PairKey]struct{}{},
		locProb:    map[ids.OpID]float64{},
		locPairs:   map[ids.OpID]map[report.PairKey]struct{}{},
		suppressed: map[report.PairKey]struct{}{},
	}
}

// add inserts a dangerous pair unless it is suppressed or already present.
// Both endpoints' probabilities reset to 1 (§3.4.1: "TSVD sets P_loc = 1
// when a dangerous pair containing loc is added").
func (s *trapSet) add(key report.PairKey, stats *atomicStats, met *DetectorMetrics) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addLocked(key, stats, met)
}

func (s *trapSet) addLocked(key report.PairKey, stats *atomicStats, met *DetectorMetrics) bool {
	if _, dead := s.suppressed[key]; dead {
		return false
	}
	if _, ok := s.pairs[key]; ok {
		return false
	}
	s.pairs[key] = struct{}{}
	s.live.Store(int64(len(s.pairs)))
	stats.pairsAdded.Add(1)
	met.observeOccupancy(len(s.pairs))
	for _, loc := range []ids.OpID{key.A, key.B} {
		s.locProb[loc] = 1
		m := s.locPairs[loc]
		if m == nil {
			m = map[report.PairKey]struct{}{}
			s.locPairs[loc] = m
		}
		m[key] = struct{}{}
	}
	return true
}

// removeLocked deletes a pair from the set (it may be re-added later unless
// also suppressed).
func (s *trapSet) removeLocked(key report.PairKey) bool {
	if _, ok := s.pairs[key]; !ok {
		return false
	}
	delete(s.pairs, key)
	s.live.Store(int64(len(s.pairs)))
	for _, loc := range []ids.OpID{key.A, key.B} {
		if m := s.locPairs[loc]; m != nil {
			delete(m, key)
			if len(m) == 0 {
				delete(s.locPairs, loc)
			}
		}
	}
	return true
}

// suppress permanently bans a pair (violation found, or HB-inferred) and
// removes it if present.
func (s *trapSet) suppress(key report.PairKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.suppressLocked(key)
}

func (s *trapSet) suppressLocked(key report.PairKey) bool {
	s.suppressed[key] = struct{}{}
	return s.removeLocked(key)
}

// empty reports whether no live pair exists, without taking the lock. The
// hot path consults it before anything else: while the set is empty no
// location is an eligible delay site, so should_delay is a single atomic
// load.
func (s *trapSet) empty() bool { return s.live.Load() == 0 }

// eligible reports whether loc participates in a live pair and, if so, its
// current delay probability P_loc — the two inputs of should_delay, under
// one read-lock acquisition.
func (s *trapSet) eligible(loc ids.OpID) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.locPairs[loc]) == 0 {
		return 0, false
	}
	if p, ok := s.locProb[loc]; ok {
		return p, true
	}
	return 1, true
}

// decayAfterFailedDelay implements §3.4.5: a delay at loc that exposed no
// conflict decays loc and every location currently paired with it by
// P ← P·(1-factor). Locations whose probability falls below prune are
// removed from the trap set together with all their pairs; each suppressed
// pair is emitted to tr (nil-safe) stamped with the caller's clock at.
func (s *trapSet) decayAfterFailedDelay(loc ids.OpID, factor, prune float64,
	stats *atomicStats, tr *trace.Tracer, at time.Duration) {
	if factor <= 0 {
		return // Fig. 9g's pathological "no decay" configuration
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	victims := []ids.OpID{loc}
	for key := range s.locPairs[loc] {
		other := key.A
		if other == loc {
			other = key.B
		}
		if other != loc { // self-pairs decay once, not twice
			victims = append(victims, other)
		}
	}
	for _, v := range victims {
		if p, ok := s.locProb[v]; ok {
			s.locProb[v] = p * (1 - factor)
		}
	}
	for _, v := range victims {
		if s.locProb[v] >= prune {
			continue
		}
		// The location's probability hit zero: all its pairs leave the
		// trap set for good — the location proved unproductive, so a
		// later near-miss re-sighting must not resurrect it at P=1.
		for key := range s.locPairs[v] {
			if s.suppressLocked(key) {
				stats.pairsPrunedDecay.Add(1)
				tr.Emit(trace.KindPairPrunedDecay, 0, 0, key.A, key.B, at, 0)
			}
		}
	}
}

// export returns the live pairs sorted for deterministic trap files.
func (s *trapSet) export() []report.PairKey {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]report.PairKey, 0, len(s.pairs))
	for key := range s.pairs {
		out = append(out, key)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// size returns the number of live pairs.
func (s *trapSet) size() int { return int(s.live.Load()) }
