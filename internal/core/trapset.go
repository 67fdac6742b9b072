package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ids"
	"repro/internal/report"
)

// trapSet is the dynamic set of dangerous location pairs (§3.4.1) together
// with the per-location delay probabilities of the decay scheme (§3.4.5).
// It is the runtime's last field: TSVD and TSVDHB fill it, differing only in
// how pairs enter (near-miss vs. vector-clock concurrency) and leave (HB
// inference vs. HB analysis), and the random variants leave it empty. The
// runtime's addPair, prunedHB and decayAfterFailedDelay count and trace its
// transitions; the set itself only holds them. The zero value is an empty
// set; its maps are made by the first write, so a module run that never finds
// a pair pays nothing.
//
// The set is internally synchronized — one of the sharded runtime's small
// cold-path locks. Mutations (pair churn, decay) are rare relative to
// OnCall volume; the per-call should_delay check reads through eligible()
// under an RLock, and even that is skipped entirely while the lock-free
// live counter reads zero (the common case on healthy code).
//
// A live pair is delayed only at a side its partner can still arrive after
// (docs/ALGORITHM.md, the trap set): a location that was the earlier access of one of
// the pair's near misses in this run, or the call that just found a near
// miss. A pair from a trap file is delayable at both ends until a near miss
// in this run orders it.
type trapSet struct {
	mu sync.RWMutex
	// live counts the pairs in the set so the hot path can skip the lock
	// when there are none.
	live atomic.Int64
	// pairs holds every pair ever added or banned: its bits (pairLive and
	// more) while it is in the trap set, 0 once it has left — a violation reported, an HB
	// prune, a decayed-out endpoint. A pair only ever goes live → dead, and a
	// dead pair is never (re-)added.
	pairs map[report.PairKey]uint8
	// locs holds every location that ever was an endpoint of a live pair,
	// by value: a new endpoint costs no allocation of its own.
	locs map[ids.OpID]locState
}

// A live pair's bits: pairLive, plus pairSideA or pairSideB once key.A or
// key.B was the earlier access of one of its near misses, and pairLoaded
// while a pair from a trap file has had no near miss in this run.
const (
	pairLive uint8 = 1 << iota
	pairSideA
	pairSideB
	pairLoaded
)

// delayableAt reports whether a pair with bits b may be delayed at its
// endpoint loc.
func delayableAt(key report.PairKey, b uint8, loc ids.OpID) bool {
	return b&pairLoaded != 0 || loc == key.A && b&pairSideA != 0 || loc == key.B && b&pairSideB != 0
}

// locState is one location's share of the trap set.
type locState struct {
	// prob is P_loc (§3.4.5).
	prob float64
	// delayable counts the live pairs loc may be delayed at (delayableAt).
	delayable int
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

// add inserts a dangerous pair unless it is dead, and returns the number of
// live pairs after it (0 when it did not insert). first is the location of
// the earlier access of the near miss that found the pair, which becomes
// delayable; an add of a live pair only does that, and takes a pair from a
// trap file out of its both-ends state. first is 0 for a pair from a trap
// file. Both endpoints' probabilities reset to 1 on insertion (§3.4.1: "TSVD
// sets P_loc = 1 when a dangerous pair containing loc is added").
func (s *trapSet) add(key report.PairKey, first ids.OpID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, known := s.pairs[key]
	if known && (b == 0 || first == 0) {
		return 0
	}
	nb := pairLive | pairLoaded
	if first != 0 {
		side := pairSideB
		if first == key.A {
			side = pairSideA
		}
		nb = b&^pairLoaded | pairLive | side
	}
	if nb == b {
		return 0
	}
	if s.pairs == nil {
		s.pairs = map[report.PairKey]uint8{}
	}
	if s.locs == nil {
		s.locs = map[ids.OpID]locState{}
	}
	s.retag(key, b, nb)
	if known {
		return 0
	}
	return int(s.live.Add(1))
}

// retag moves key from bits b to nb, keeping its endpoints' live lists and
// delayable counts in step. Caller holds s.mu.
func (s *trapSet) retag(key report.PairKey, b, nb uint8) {
	s.pairs[key] = nb
	for _, loc := range endpoints(key) {
		l := s.locs[loc]
		if b == 0 {
			l.prob = 1
			l.live.add(key)
		} else if nb == 0 {
			l.live.remove(key)
		}
		switch was, is := delayableAt(key, b, loc), delayableAt(key, nb, loc); {
		case is && !was:
			l.delayable++
		case was && !is:
			l.delayable--
		}
		s.locs[loc] = l
	}
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
	b := s.pairs[key]
	if s.pairs == nil {
		s.pairs = map[report.PairKey]uint8{}
	}
	if b == 0 {
		s.pairs[key] = 0
		return false
	}
	s.live.Add(-1)
	s.retag(key, b, 0)
	return true
}

// empty reports whether no live pair exists, without taking the lock. The
// hot path consults it before anything else: while the set is empty no
// location is an eligible delay site, so should_delay is a single atomic
// load.
func (s *trapSet) empty() bool { return s.live.Load() == 0 }

// eligible reports whether loc may be delayed at — it is a delayable endpoint
// of a live pair, or found says the call just found a near miss and loc is in
// a live pair at all — and, if so, its current delay probability P_loc: the
// two inputs of should_delay, under one read-lock acquisition.
func (s *trapSet) eligible(loc ids.OpID, found bool) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if l := s.locs[loc]; l.delayable > 0 || found && l.live.n > 0 {
		return l.prob, true
	}
	return 0, false
}

// pruneProbability is the delay probability below which decay treats a
// location's probability as zero: its pairs leave the trap set.
const pruneProbability = 0.02

// decay implements §3.4.5: a delay at loc that exposed no conflict decays
// loc and every location currently paired with it by P ← P·(1-factor).
// Locations whose probability falls below pruneProbability are removed from
// the trap set together with all their pairs, which decay appends to pruned
// and returns.
func (s *trapSet) decay(loc ids.OpID, factor float64, pruned []report.PairKey) []report.PairKey {
	if factor <= 0 {
		return pruned // Fig. 9g's pathological "no decay" configuration
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.locs[loc]
	if !ok {
		return pruned
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
		if s.locs[v].prob >= pruneProbability {
			continue
		}
		// The location's probability hit zero: all its pairs leave the
		// trap set for good — the location proved unproductive, so a
		// later near-miss re-sighting must not resurrect it at P=1.
		// Suppressing a pair takes it off the location's live list.
		for vl := s.locs[v]; vl.live.n > 0; vl = s.locs[v] {
			key := vl.live.at(vl.live.n - 1)
			s.suppressLocked(key)
			pruned = append(pruned, key)
		}
	}
	return pruned
}

// export returns the live pairs sorted for deterministic trap files, nil
// when there are none.
func (s *trapSet) export() []report.PairKey {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []report.PairKey
	if n := s.live.Load(); n > 0 {
		out = make([]report.PairKey, 0, n)
	}
	for key, b := range s.pairs {
		if b != 0 {
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
