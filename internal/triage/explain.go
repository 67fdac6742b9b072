package triage

import (
	"fmt"

	"repro/internal/sites"
	"repro/internal/trace"
)

// Explanation is the minimal trace slice that justifies one cluster's
// verdict, in the style of error invariants for concurrent traces: of the
// thousands of drained events around a springing trap, only the handful
// that establish "these two accesses raced on this object, under this
// injected delay, with nothing ordering them" are kept, in stream order.
type Explanation struct {
	// Module names the producing suite execution's module.
	Module string `json:"module"`
	// Run is the 1-based run index within that module.
	Run int `json:"run"`
	// Object is the victim object both accesses touched.
	Object uint64 `json:"object"`
	// TrappedLoc is the parked side of the access pair.
	TrappedLoc string `json:"trapped_loc"`
	// ConflictingLoc is the side that ran into the armed trap.
	ConflictingLoc string `json:"conflicting_loc"`
	// GrantedDelayUS is the delay budget the trap parked with.
	GrantedDelayUS int64 `json:"granted_delay_us"`
	// InjectedDelayUS is what the trap owner actually slept (0 if the
	// wake event fell outside the drained window).
	InjectedDelayUS int64 `json:"injected_delay_us"`
	// HBEdgesBefore counts hb_edge events on this exact pair before the
	// spring.
	HBEdgesBefore int64 `json:"hb_edges_before"`
	// HBOrdered reports whether any such edge existed. A firing with
	// HBOrdered=false is the paper's core verdict: no happens-before
	// ordering separated the two accesses.
	HBOrdered bool `json:"hb_ordered"`
	// Events is the carved subsequence, in stream order.
	Events []ExplEvent `json:"events"`
	// Verdict is the one-sentence human summary naming the access pair,
	// the victim object, the injected delay, and the HB status.
	Verdict string `json:"verdict"`
}

// ExplEvent is one retained trace event with a note saying why it is in
// the slice.
type ExplEvent struct {
	// Kind is the snake_case event kind (trace wire name).
	Kind string `json:"kind"`
	// TUS is the event time in microseconds since detector start.
	TUS int64 `json:"t_us"`
	// Thread is the acting thread (0 when not meaningful).
	Thread int64 `json:"thread,omitempty"`
	// Obj is the object the event concerns (0 when not object-scoped).
	Obj uint64 `json:"obj,omitempty"`
	// LocA is the resolved primary location key.
	LocA string `json:"loc_a,omitempty"`
	// LocB is the resolved secondary location key (pair-shaped events).
	LocB string `json:"loc_b,omitempty"`
	// DurUS is the event's duration payload in microseconds.
	DurUS int64 `json:"dur_us,omitempty"`
	// Note states the event's role in the explanation.
	Note string `json:"note"`
}

// matchPair reports whether a pair-shaped event is on exactly the locs p.
func matchPair(e trace.Event, p pairLoc) bool {
	return pairLocOf(sites.Loc(e.OpA), sites.Loc(e.OpB)) == p
}

// explainPair carves the explanation slice for pair p out of one module
// trace, anchored on the first trap_sprung for that pair. It walks
// backwards for the arming context (the near miss that made the pair
// dangerous, its entry into the trap set, the planned delay, the trap
// registration) and forwards for the delay the trap owner actually served,
// and counts the hb_edge events that did NOT order the pair. Returns nil if
// the trace contains no spring for p.
func explainPair(mt trace.ModuleTrace, p pairLoc) *Explanation {
	evs := mt.Events
	sprungIdx := -1
	for i, e := range evs {
		if e.Kind == trace.KindTrapSprung && matchPair(e, p) {
			sprungIdx = i
			break
		}
	}
	if sprungIdx < 0 {
		return nil
	}
	sprung := evs[sprungIdx]
	ex := &Explanation{
		Module:         mt.Module,
		Run:            mt.Run,
		Object:         uint64(sprung.Obj),
		TrappedLoc:     sites.Loc(sprung.OpA),
		ConflictingLoc: sites.Loc(sprung.OpB),
	}

	// Backward pass: the most recent arming context before the spring.
	armIdx, plannedIdx, addIdx, nearIdx := -1, -1, -1, -1
	for i := sprungIdx - 1; i >= 0; i-- {
		e := evs[i]
		switch e.Kind {
		case trace.KindTrapSet:
			if armIdx < 0 && sites.Loc(e.OpA) == ex.TrappedLoc && e.Obj == sprung.Obj {
				armIdx = i
				ex.GrantedDelayUS = e.Dur.Microseconds()
			}
		case trace.KindDelayPlanned:
			if plannedIdx < 0 && armIdx >= 0 && sites.Loc(e.OpA) == ex.TrappedLoc &&
				e.Thread == evs[armIdx].Thread {
				plannedIdx = i
			}
		case trace.KindPairAdded:
			if addIdx < 0 && matchPair(e, p) {
				addIdx = i
			}
		case trace.KindNearMiss:
			if nearIdx < 0 && matchPair(e, p) {
				nearIdx = i
			}
		case trace.KindHBEdge:
			// An edge from a location to itself orders nothing: the
			// detector never prunes a same-location pair on it (one
			// operation racing with itself across threads is a bug class
			// of its own), so it is no evidence against this firing.
			if e.OpA != e.OpB && matchPair(e, p) {
				ex.HBEdgesBefore++
			}
		}
	}
	ex.HBOrdered = ex.HBEdgesBefore > 0

	// Forward pass: the trap owner waking up tells us the delay actually
	// injected around the conflicting access.
	injIdx := -1
	if armIdx >= 0 {
		owner := evs[armIdx].Thread
		for i := sprungIdx + 1; i < len(evs); i++ {
			e := evs[i]
			if (e.Kind == trace.KindDelayInjected || e.Kind == trace.KindDelayProductive) &&
				sites.Loc(e.OpA) == ex.TrappedLoc && e.Thread == owner {
				injIdx = i
				ex.InjectedDelayUS = e.Dur.Microseconds()
				if e.Kind == trace.KindDelayProductive {
					break // the flagged wake-up is the strongest evidence
				}
			}
		}
	}

	keep := func(i int, note string) {
		if i < 0 {
			return
		}
		e := evs[i]
		ex.Events = append(ex.Events, ExplEvent{
			Kind:   e.Kind.String(),
			TUS:    e.At.Microseconds(),
			Thread: int64(e.Thread),
			Obj:    uint64(e.Obj),
			LocA:   sites.Loc(e.OpA),
			LocB:   opKeyOrEmpty(e),
			DurUS:  e.Dur.Microseconds(),
			Note:   note,
		})
	}
	keep(nearIdx, "near miss that flagged the pair as dangerous")
	keep(addIdx, "pair entered the trap set")
	keep(plannedIdx, "delay planned at the trapped site")
	keep(armIdx, "trap armed: owner parked on the victim object with the granted budget")
	keep(sprungIdx, "trap sprung: conflicting access hit the armed trap — the violation")
	keep(injIdx, "trap owner woke: the delay actually injected around the conflict")

	hb := "no happens-before edge ordered the pair before the trap sprang"
	if ex.HBOrdered {
		hb = fmt.Sprintf("%d happens-before edge(s) touched the pair, yet the trap still sprang", ex.HBEdgesBefore)
	}
	delay := "an injected delay"
	if ex.InjectedDelayUS > 0 {
		delay = fmt.Sprintf("a %dµs injected delay", ex.InjectedDelayUS)
	} else if ex.GrantedDelayUS > 0 {
		delay = fmt.Sprintf("a delay budget of %dµs", ex.GrantedDelayUS)
	}
	ex.Verdict = fmt.Sprintf(
		"unsynchronized access pair %s / %s on object %#x overlapped under %s; %s",
		ex.TrappedLoc, ex.ConflictingLoc, ex.Object, delay, hb)
	return ex
}

// opKeyOrEmpty resolves OpB for display, empty for single-loc events.
func opKeyOrEmpty(e trace.Event) string {
	if e.OpB == 0 {
		return ""
	}
	return sites.Loc(e.OpB)
}
