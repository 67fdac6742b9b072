package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/ids"
	"repro/internal/sites"
)

// LocMetrics aggregates every event touching one static location — the
// per-location view the sampling/diagnosis questions need: is this location
// producing near misses, are its delays productive, why did it leave the
// trap set.
type LocMetrics struct {
	Op  ids.OpID `json:"op"`
	Loc string   `json:"loc"`

	// Near-miss pressure at this location (either side of the pair).
	NearMisses int64         `json:"near_misses"`
	MinGap     time.Duration `json:"min_gap_ns"`
	MaxGap     time.Duration `json:"max_gap_ns"`
	sumGap     time.Duration

	// Delay lifecycle at this location.
	DelaysPlanned    int64         `json:"delays_planned"`
	TrapsSet         int64         `json:"traps_set"`
	DelaysInjected   int64         `json:"delays_injected"`
	DelaysProductive int64         `json:"delays_productive"`
	TotalDelay       time.Duration `json:"total_delay_ns"`

	// Trap-set churn involving this location.
	PairsAdded  int64 `json:"pairs_added"`
	PrunedHB    int64 `json:"pruned_hb"`
	PrunedDecay int64 `json:"pruned_decay"`
	HBEdges     int64 `json:"hb_edges"`
	TrapsSprung int64 `json:"traps_sprung"`
}

// AvgGap is the mean near-miss gap at this location.
func (m *LocMetrics) AvgGap() time.Duration {
	if m.NearMisses == 0 {
		return 0
	}
	return m.sumGap / time.Duration(m.NearMisses)
}

// Metrics is the aggregated per-location table plus whole-trace totals.
type Metrics struct {
	Events  int64            `json:"events"`
	Dropped int64            `json:"dropped"`
	ByKind  map[string]int64 `json:"by_kind"`
	// PerLoc is keyed by OpID; use Sorted for deterministic iteration.
	PerLoc map[ids.OpID]*LocMetrics `json:"-"`
}

func (m *Metrics) loc(op ids.OpID) *LocMetrics {
	lm := m.PerLoc[op]
	if lm == nil {
		lm = &LocMetrics{Op: op, Loc: sites.Loc(op)}
		m.PerLoc[op] = lm
	}
	return lm
}

// Aggregate folds drained module traces into the per-location metrics table.
// Pair-shaped events are attributed to both endpoints; delay events to the
// delayed location.
func Aggregate(mods []ModuleTrace) *Metrics {
	m := &Metrics{ByKind: map[string]int64{}, PerLoc: map[ids.OpID]*LocMetrics{}}
	for _, mt := range mods {
		m.Dropped += mt.Dropped
		for _, e := range mt.Events {
			m.Events++
			m.ByKind[e.Kind.String()]++
			switch e.Kind {
			case KindNearMiss:
				for _, op := range [2]ids.OpID{e.OpA, e.OpB} {
					lm := m.loc(op)
					lm.NearMisses++
					lm.sumGap += e.Dur
					if e.Dur > lm.MaxGap {
						lm.MaxGap = e.Dur
					}
					if lm.MinGap == 0 || e.Dur < lm.MinGap {
						lm.MinGap = e.Dur
					}
					if e.OpA == e.OpB {
						// A same-location near miss is one sighting, not two.
						break
					}
				}
			case KindDelayPlanned:
				m.loc(e.OpA).DelaysPlanned++
			case KindTrapSet:
				m.loc(e.OpA).TrapsSet++
			case KindDelayInjected:
				lm := m.loc(e.OpA)
				lm.DelaysInjected++
				lm.TotalDelay += e.Dur
			case KindDelayProductive:
				m.loc(e.OpA).DelaysProductive++
			case KindTrapSprung:
				m.loc(e.OpA).TrapsSprung++
				if e.OpB != e.OpA {
					m.loc(e.OpB).TrapsSprung++
				}
			case KindPairAdded:
				m.loc(e.OpA).PairsAdded++
				if e.OpB != e.OpA {
					m.loc(e.OpB).PairsAdded++
				}
			case KindHBEdge:
				m.loc(e.OpA).HBEdges++
				if e.OpB != e.OpA {
					m.loc(e.OpB).HBEdges++
				}
			case KindPairPrunedHB:
				m.loc(e.OpA).PrunedHB++
				if e.OpB != e.OpA {
					m.loc(e.OpB).PrunedHB++
				}
			case KindPairPrunedDecay:
				m.loc(e.OpA).PrunedDecay++
				if e.OpB != e.OpA {
					m.loc(e.OpB).PrunedDecay++
				}
			}
		}
	}
	return m
}

// Sorted returns the per-location rows, busiest (most near misses, then most
// delays) first, location key as the final tiebreak for determinism.
func (m *Metrics) Sorted() []*LocMetrics {
	out := make([]*LocMetrics, 0, len(m.PerLoc))
	for _, lm := range m.PerLoc {
		out = append(out, lm)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NearMisses != out[j].NearMisses {
			return out[i].NearMisses > out[j].NearMisses
		}
		if out[i].DelaysInjected != out[j].DelaysInjected {
			return out[i].DelaysInjected > out[j].DelaysInjected
		}
		return out[i].Loc < out[j].Loc
	})
	return out
}

// jsonMetrics is the serialized form: the map keyed by OpID becomes a sorted
// array, which is both valid JSON and deterministic.
type jsonMetrics struct {
	Events  int64            `json:"events"`
	Dropped int64            `json:"dropped"`
	ByKind  map[string]int64 `json:"by_kind"`
	PerLoc  []*LocMetrics    `json:"per_location"`
}

// WriteJSON serializes the metrics table.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(jsonMetrics{
		Events: m.Events, Dropped: m.Dropped, ByKind: m.ByKind, PerLoc: m.Sorted(),
	}); err != nil {
		return fmt.Errorf("trace: encode metrics: %w", err)
	}
	return nil
}
