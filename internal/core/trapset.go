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
// analysis) the set. The zero value is an empty set; its maps are made by
// the first write, so a module run that never finds a pair pays nothing.
//
// The set is internally synchronized — one of the sharded runtime's small
// cold-path locks. Mutations (pair churn, decay) are rare relative to
// OnCall volume; the per-call should_delay check reads through eligible()
// under an RLock, and even that is skipped entirely while the lock-free
// live counter reads zero (the common case on healthy code).
type trapSet struct {
	mu sync.RWMutex
	// live counts the pairs in the set so the hot path can skip the lock
	// when there are none.
	live atomic.Int64
	// pairs holds every pair ever added or banned: true while it is in the
	// trap set, false once it has left — a violation reported, an HB prune,
	// a decayed-out endpoint. A pair only ever goes live → dead, and a dead
	// pair is never (re-)added.
	pairs map[report.PairKey]bool
	// locs holds every location that ever was an endpoint of a live pair,
	// by value: a new endpoint costs no allocation of its own.
	locs map[ids.OpID]locState
}

// locState is one location's share of the trap set.
type locState struct {
	// prob is P_loc (§3.4.5).
	prob float64
	// live lists the live pairs loc is an endpoint of, for
	// O(pairs-of-loc) updates.
	live pairList
}

// pairList is an unordered list of pair keys. A location rarely has more
// than a few live pairs, so the first two sit inline and only the rest
// spill to an allocated slice: len(spill) == max(0, n-2).
type pairList struct {
	n      int
	inline [2]report.PairKey
	spill  []report.PairKey
}

func (p *pairList) at(i int) report.PairKey {
	if i < len(p.inline) {
		return p.inline[i]
	}
	return p.spill[i-len(p.inline)]
}

func (p *pairList) add(key report.PairKey) {
	if p.n < len(p.inline) {
		p.inline[p.n] = key
	} else {
		p.spill = append(p.spill, key)
	}
	p.n++
}

// remove deletes key, which must be present, moving the last key into its
// place.
func (p *pairList) remove(key report.PairKey) {
	i := 0
	for p.at(i) != key {
		i++
	}
	p.n--
	if last := p.at(p.n); i < len(p.inline) {
		p.inline[i] = last
	} else {
		p.spill[i-len(p.inline)] = last
	}
	if p.n >= len(p.inline) {
		p.spill = p.spill[:p.n-len(p.inline)]
	}
}

// add inserts a dangerous pair unless it is dead or already present.
// Both endpoints' probabilities reset to 1 (§3.4.1: "TSVD sets P_loc = 1
// when a dangerous pair containing loc is added").
func (s *trapSet) add(key report.PairKey, stats *atomicStats, met *DetectorMetrics) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, known := s.pairs[key]; known {
		return false
	}
	if s.pairs == nil {
		s.pairs = map[report.PairKey]bool{}
	}
	if s.locs == nil {
		s.locs = map[ids.OpID]locState{}
	}
	s.pairs[key] = true
	n := s.live.Add(1)
	stats.pairsAdded.Add(1)
	met.observeOccupancy(int(n))
	for _, loc := range endpoints(key) {
		l := s.locs[loc]
		l.prob = 1
		l.live.add(key)
		s.locs[loc] = l
	}
	return true
}

// endpoints returns the one or two distinct locations of key.
func endpoints(key report.PairKey) []ids.OpID {
	if key.A == key.B {
		return []ids.OpID{key.A}
	}
	return []ids.OpID{key.A, key.B}
}

// suppress permanently bans a pair (violation found, or HB-inferred) and
// reports whether that took it out of the set.
func (s *trapSet) suppress(key report.PairKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.suppressLocked(key)
}

func (s *trapSet) suppressLocked(key report.PairKey) bool {
	wasLive := s.pairs[key]
	if s.pairs == nil {
		s.pairs = map[report.PairKey]bool{}
	}
	s.pairs[key] = false
	if !wasLive {
		return false
	}
	s.live.Add(-1)
	for _, loc := range endpoints(key) {
		l := s.locs[loc]
		l.live.remove(key)
		s.locs[loc] = l
	}
	return true
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
	if l := s.locs[loc]; l.live.n > 0 {
		return l.prob, true
	}
	return 0, false
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
	l, ok := s.locs[loc]
	if !ok {
		return
	}
	// A location rarely has more than a few partners: the victims fit on
	// the stack, and a failed delay costs no allocation.
	var buf [8]ids.OpID
	victims := append(buf[:0], loc)
	for i := 0; i < l.live.n; i++ {
		key := l.live.at(i)
		other := key.A
		if other == loc {
			other = key.B
		}
		if other != loc { // self-pairs decay once, not twice
			victims = append(victims, other)
		}
	}
	for _, v := range victims {
		vl := s.locs[v]
		vl.prob *= 1 - factor
		s.locs[v] = vl
	}
	for _, v := range victims {
		if s.locs[v].prob >= prune {
			continue
		}
		// The location's probability hit zero: all its pairs leave the
		// trap set for good — the location proved unproductive, so a
		// later near-miss re-sighting must not resurrect it at P=1.
		// Suppressing a pair takes it off the location's live list.
		for vl := s.locs[v]; vl.live.n > 0; vl = s.locs[v] {
			key := vl.live.at(vl.live.n - 1)
			s.suppressLocked(key)
			stats.pairsPrunedDecay.Add(1)
			tr.Emit(trace.KindPairPrunedDecay, 0, 0, key.A, key.B, at, 0)
		}
	}
}

// export returns the live pairs sorted for deterministic trap files.
func (s *trapSet) export() []report.PairKey {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]report.PairKey, 0, s.live.Load())
	for key, live := range s.pairs {
		if live {
			out = append(out, key)
		}
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
