package chaos

import (
	"fmt"
	"sort"

	"repro/internal/trapfile"
)

// pairSet is a trap-pair set in model form.
type pairSet map[trapfile.Pair]bool

func setOf(pairs []trapfile.Pair) pairSet {
	s := make(pairSet, len(pairs))
	for _, p := range pairs {
		s[p] = true
	}
	return s
}

func (s pairSet) sorted() []trapfile.Pair {
	out := make([]trapfile.Pair, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// minus returns the members of s absent from t, sorted.
func (s pairSet) minus(t pairSet) []trapfile.Pair {
	var out []trapfile.Pair
	for p := range s {
		if !t[p] {
			out = append(out, p)
		}
	}
	return setOf(out).sorted()
}

// model is the contract-level ground truth the invariants compare the real
// fleet against. It is driven by the *contracts*, not the implementation:
// a publish the Fallback returned success for implies the pairs are in the
// shard's local file (local-first durability), and a publish the daemon
// acknowledged implies the pairs are in the snapshot file (ack-after-save).
// An implementation that breaks a contract — including a deliberately
// planted one — therefore diverges from the model and trips a check.
type model struct {
	// acked: pairs the daemon acknowledged a publish of, and must therefore
	// hold in its set, snapshot file and log at all times.
	acked pairSet
	// limbo: pairs whose publish reached the wire but failed client-side —
	// the daemon may or may not hold them.
	limbo pairSet
	// local[i]: exactly what shard i's trap file must contain.
	local []pairSet
	// corrupt[i]: shard i's file was overwritten with garbage and the next
	// run over it must classify trapfile.ErrCorrupt before healing.
	corrupt []bool

	// history logs, per pair, every model transition that touched it; the
	// explanation slice for a violation is the concatenated history of the
	// offending pairs.
	history map[trapfile.Pair][]string
	// events logs shard- and daemon-level transitions (kills, corruption,
	// converge rounds) that explain state without naming single pairs.
	events []string
	// storeTail holds the last shard run's store-related trace lines, for
	// the explanation slice.
	storeTail []string
}

func newModel(shards int) *model {
	return &model{
		acked:   pairSet{},
		limbo:   pairSet{},
		local:   make([]pairSet, shards),
		corrupt: make([]bool, shards),
		history: map[trapfile.Pair][]string{},
	}
}

// published is the set of pairs some publish ever carried to the daemon —
// the upper bound its set may not exceed.
func (m *model) published() pairSet {
	out := make(pairSet, len(m.acked)+len(m.limbo))
	for p := range m.acked {
		out[p] = true
	}
	for p := range m.limbo {
		out[p] = true
	}
	return out
}

func (m *model) note(pairs []trapfile.Pair, format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	for _, p := range pairs {
		m.history[p] = append(m.history[p], line)
	}
}

func (m *model) event(format string, args ...any) {
	m.events = append(m.events, fmt.Sprintf(format, args...))
}

// localAdd records pairs becoming durable in shard's local file (a
// successful Fallback publish).
func (m *model) localAdd(shard int, pairs []trapfile.Pair, act int, why string) {
	if m.local[shard] == nil {
		m.local[shard] = pairSet{}
	}
	for _, p := range pairs {
		if !m.local[shard][p] {
			m.local[shard][p] = true
			m.history[p] = append(m.history[p],
				fmt.Sprintf("act#%02d shard %d local file gained %s|%s (%s)", act, shard, p.A, p.B, why))
		}
	}
}

// ack records pairs the daemon acknowledged: durable in its snapshot file
// and log from here on. Acked pairs leave limbo (their existence is
// confirmed).
func (m *model) ack(pairs []trapfile.Pair, act int, why string) {
	for _, p := range pairs {
		if !m.acked[p] {
			m.acked[p] = true
			m.history[p] = append(m.history[p],
				fmt.Sprintf("act#%02d daemon acked %s|%s (%s)", act, p.A, p.B, why))
		}
		delete(m.limbo, p)
	}
}

// limboAdd records pairs whose delivery to the daemon is ambiguous.
func (m *model) limboAdd(pairs []trapfile.Pair, act int, why string) {
	for _, p := range pairs {
		if !m.acked[p] && !m.limbo[p] {
			m.limbo[p] = true
			m.history[p] = append(m.history[p],
				fmt.Sprintf("act#%02d publish of %s|%s ambiguous (%s)", act, p.A, p.B, why))
		}
	}
}

// clearLocal empties shard's modeled file (corruption heal or truncation).
func (m *model) clearLocal(shard int, act int, why string) {
	for p := range m.local[shard] {
		m.history[p] = append(m.history[p],
			fmt.Sprintf("act#%02d shard %d local file lost %s|%s (%s)", act, shard, p.A, p.B, why))
	}
	m.local[shard] = pairSet{}
}

// explain assembles the error-invariant-style slice for v: the full history
// of every pair the detail names, the recent fleet-level events, and the
// last run's store trace tail — the minimal ordered story of the divergence.
func (m *model) explain(v *Violation) []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range v.pairs {
		for _, line := range m.history[p] {
			if !seen[line] {
				seen[line] = true
				out = append(out, line)
			}
		}
		if len(m.history[p]) == 0 {
			out = append(out, fmt.Sprintf("pair %s|%s has no model history: it appeared out of nowhere", p.A, p.B))
		}
	}
	const tail = 8
	ev := m.events
	if len(ev) > tail {
		ev = ev[len(ev)-tail:]
	}
	out = append(out, ev...)
	out = append(out, m.storeTail...)
	out = append(out, fmt.Sprintf("check failed after action #%d: %s", v.Action, v.Detail))
	return out
}
