// Package triage turns raw thread-safety-violation firings into one
// deduplicated, ranked, explained report per distinct bug — the layer the
// paper's "thousands of concurrency bugs" claim needs once the same TSV
// fires across K shards × R rounds (§5.2 deduplicates by location pair; this
// package generalizes that across processes and adds ranking and
// explanation).
//
// The pipeline has three stages, mirroring the ROADMAP item it closes:
//
//  1. Clustering. Every firing is folded under a canonical Signature — the
//     normalized site-pair tuple (stable location keys plus API metadata,
//     never process-local ids), the paper's unordered location pair — so N
//     firings of one bug across runs, shards, and process restarts land in
//     one BugCluster. Call-path diversity is not part of the identity; it
//     stays where the paper counts it, in report.Bug.StackPairs.
//  2. Reproducibility ranking. Each cluster counts firings against
//     opportunities (ingested units where a trap was armed at one of the
//     pair's sites and both sides were observed) and carries a Wilson
//     confidence interval on the per-unit hit rate, plus first/last-seen
//     provenance, so operators fix the most reproducible bugs first.
//  3. Explanation slices (explain.go). For each cluster the drained trace
//     events around the springing trap are carved down to the minimal
//     subsequence — the near miss that armed the pair, the planned and
//     injected delay on the victim object, the spring itself, and the
//     absence of any happens-before edge ordering the pair — in the style
//     of error invariants for concurrent traces.
//
// Ingestion has three sources matching the three deployment surfaces:
// AddRun (a harness Outcome's collector plus drained traces, in-process),
// AddTrace (events parsed back from a v5 events.jsonl, cmd/tsvd-triage), and
// FromTrapFile (a fleet daemon's merged pair snapshot, the degraded view
// tsvd-triage -server writes: identity without firing counts). All three
// reach a cluster through the same two tuples, so one bug has one id
// whichever route folded it.
package triage

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/sites"
	"repro/internal/trace"
	"repro/internal/trapfile"
)

// Signature is the canonical bug identity: the unordered site-pair tuple in
// normalized order, and nothing else. Two firings from different runs,
// shards, process lifetimes, or ingestion routes produce equal Signatures
// exactly when they are the same bug, because every field is a cross-process
// stable string that every route carries.
type Signature struct {
	// A is the lesser side of the pair in tuple order.
	A sites.Tuple `json:"site_a"`
	// B is the greater side, so A <= B always holds.
	B sites.Tuple `json:"site_b"`
}

// SignatureOf canonicalizes a signature from its two sides.
func SignatureOf(x, y sites.Tuple) Signature {
	if y.Less(x) {
		x, y = y, x
	}
	return Signature{A: x, B: y}
}

// ID returns the cluster's short stable identifier: a 64-bit FNV digest of
// the signature fields, rendered as 16 hex digits. It is what bugs.json and
// bugs.md key reports by.
func (s Signature) ID() string {
	h := fnv.New64a()
	for _, side := range [2]sites.Tuple{s.A, s.B} {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%t\x00", side.Loc, side.Class, side.Method, side.Write)
	}
	// The digest once ended in a third field that every trace and snapshot
	// id was issued with as sixteen zeros; feeding them keeps those ids valid.
	h.Write([]byte("0000000000000000"))
	return fmt.Sprintf("%016x", h.Sum64())
}

// pair returns the loc-only pair key, the join point between clusters and
// the trace events (opportunities, explanations), which name locations.
func (s Signature) pair() pairLoc { return pairLocOf(s.A.Loc, s.B.Loc) }

// pairLoc is an unordered location-key pair (A <= B).
type pairLoc struct{ A, B string }

func pairLocOf(a, b string) pairLoc {
	if b < a {
		a, b = b, a
	}
	return pairLoc{A: a, B: b}
}

// Provenance labels one ingested unit: which shard and round of a fleet
// produced it, under which seed and sampling mode. Zero values simply render
// as absent — a standalone tsvd-run has no shard.
type Provenance struct {
	// Shard is the 1-based fleet shard (0 outside fleet mode).
	Shard int `json:"shard,omitempty"`
	// Round is the 1-based fleet round (0 outside fleet mode).
	Round int `json:"round,omitempty"`
	// Seed is the detector seed of the producing run.
	Seed int64 `json:"seed,omitempty"`
	// Mode is the sampling mode (full, sampled, observe-only).
	Mode string `json:"mode,omitempty"`
	// Source names the producer (e.g. "tsvd-run", "fleet", a trace dir).
	Source string `json:"source,omitempty"`
}

// Seen is one endpoint of a cluster's first/last-seen span: the provenance
// of the unit plus the detection time within it.
type Seen struct {
	Provenance
	// AtUS is the violation time within its run, in microseconds.
	AtUS int64 `json:"at_us"`
}

// Rank is a cluster's reproducibility measure: in how many ingested units
// the bug fired versus how many gave it a chance, with a 95% Wilson interval
// on that per-unit hit rate. Clusters sort by the interval's lower bound —
// the conservative "at least this reproducible" estimate.
type Rank struct {
	// FiringUnits counts ingested units with at least one firing.
	FiringUnits int64 `json:"firing_units"`
	// Opportunities counts ingested units where a trap was armed at one of
	// the pair's sites and both sides were observed together. 0 when the
	// ingestion source carried no trace events.
	Opportunities int64 `json:"opportunities"`
	// HitRate is FiringUnits / Opportunities (0 when unknown).
	HitRate float64 `json:"hit_rate"`
	// Low is the 95% Wilson score lower bound on the hit rate.
	Low float64 `json:"ci_low"`
	// High is the matching upper bound.
	High float64 `json:"ci_high"`
}

// wilson computes the 95% Wilson score interval for successes/trials.
func wilson(successes, trials int64) (low, high float64) {
	if trials <= 0 {
		return 0, 0
	}
	const z = 1.959963984540054 // 97.5th normal percentile
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := p + z2/(2*n)
	margin := z * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	// At p = 0 or 1 a bound is exactly 0 or 1, which rounding can overshoot.
	return max(0, (center-margin)/denom), min(1, (center+margin)/denom)
}

// rankOf fills a Rank from the unit counts.
func rankOf(firingUnits, opportunities int64) Rank {
	r := Rank{FiringUnits: firingUnits, Opportunities: opportunities}
	if opportunities > 0 {
		r.HitRate = float64(firingUnits) / float64(opportunities)
		r.Low, r.High = wilson(firingUnits, opportunities)
	}
	return r
}

// BugCluster is one deduplicated bug: every firing whose Signature matched,
// folded with its rank, provenance span, and explanation slice.
type BugCluster struct {
	// Sig is the canonical identity the firings were folded under.
	Sig Signature
	// ID is Sig.ID(), precomputed for output.
	ID string
	// Firings counts dynamic violations folded into this cluster.
	Firings int64
	// Rank is the reproducibility measure (filled by Clusters).
	Rank Rank
	// First and Last record the provenance span of the firings.
	First, Last Seen
	// Explanation is the trace-derived slice justifying the verdict; nil
	// when no ingested unit carried trace events for the pair.
	Explanation *Explanation

	firingUnits int64
	lastUnit    int64
}

// Triage folds firings from any number of ingestion calls into clusters.
// It is safe for concurrent use.
type Triage struct {
	mu       sync.Mutex
	clusters map[Signature]*BugCluster
	// armed counts, per loc pair, the units that were an opportunity;
	// armedUnit dedups within a unit.
	armed     map[pairLoc]int64
	armedUnit map[pairLoc]int64
	explains  map[pairLoc]*Explanation
	units     int64
	folded    int64
}

// New returns an empty Triage.
func New() *Triage {
	return &Triage{
		clusters:  map[Signature]*BugCluster{},
		armed:     map[pairLoc]int64{},
		armedUnit: map[pairLoc]int64{},
		explains:  map[pairLoc]*Explanation{},
	}
}

// Units returns how many ingestion calls (runs) have been folded so far.
func (t *Triage) Units() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.units
}

// FiringsFolded returns the raw firings folded across all clusters.
func (t *Triage) FiringsFolded() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.folded
}

// sideTuple builds the cross-process tuple for one violation side.
func sideTuple(s report.Side) sites.Tuple {
	return sites.Tuple{Loc: sites.Loc(s.Op), Class: s.Class, Method: s.Method, Write: s.Write}
}

// resolver returns the lookup from a location key to its row of a site
// table (the last row, when a location has several), and to the bare
// location for one the table does not list.
func resolver(table []sites.Tuple) func(loc string) sites.Tuple {
	byLoc := make(map[string]sites.Tuple, len(table))
	for _, t := range table {
		byLoc[t.Loc] = t
	}
	return func(loc string) sites.Tuple {
		if t, ok := byLoc[loc]; ok {
			return t
		}
		return sites.Tuple{Loc: loc}
	}
}

// AddRun ingests one suite execution as a single unit: the collector's raw
// violations plus the drained traces (opportunity accounting and
// explanation slices). traces may be empty — reports alone
// still cluster, with zero opportunities.
func (t *Triage) AddRun(col *report.Collector, traces []trace.ModuleTrace, prov Provenance) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.units++
	unit := t.units
	for _, v := range col.Violations() {
		t.fold(SignatureOf(sideTuple(v.Trapped), sideTuple(v.Conflicting)), v.When, prov, unit)
	}
	t.noteTraces(traces, unit)
}

// AddTrace ingests one trace-only unit (events parsed back from a v5
// events.jsonl by cmd/tsvd-triage): firings come from trap_sprung events,
// and tuples resolve through the summary's site table.
func (t *Triage) AddTrace(traces []trace.ModuleTrace, table []trace.SiteRecord, prov Provenance) {
	tuples := make([]sites.Tuple, len(table))
	for i, r := range table {
		tuples[i] = r.Tuple
	}
	tuple := resolver(tuples)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.units++
	unit := t.units
	for _, mt := range traces {
		for _, e := range mt.Events {
			if e.Kind != trace.KindTrapSprung {
				continue
			}
			t.fold(SignatureOf(tuple(sites.Loc(e.OpA)), tuple(sites.Loc(e.OpB))), e.At, prov, unit)
		}
	}
	t.noteTraces(traces, unit)
}

// fold records one firing under sig. Caller holds t.mu.
func (t *Triage) fold(sig Signature, when time.Duration, prov Provenance, unit int64) {
	c := t.clusters[sig]
	if c == nil {
		c = &BugCluster{
			Sig:   sig,
			ID:    sig.ID(),
			First: Seen{Provenance: prov, AtUS: when.Microseconds()},
		}
		t.clusters[sig] = c
	}
	c.Firings++
	t.folded++
	if c.lastUnit != unit {
		c.lastUnit = unit
		c.firingUnits++
	}
	c.Last = Seen{Provenance: prov, AtUS: when.Microseconds()}
}

// noteTraces accounts opportunities and builds missing explanation slices
// from one unit's traces. Caller holds t.mu.
func (t *Triage) noteTraces(traces []trace.ModuleTrace, unit int64) {
	for _, mt := range traces {
		trapSet := map[string]bool{}
		pairs := map[pairLoc]bool{}
		for _, e := range mt.Events {
			switch e.Kind {
			case trace.KindTrapSet:
				trapSet[sites.Loc(e.OpA)] = true
			case trace.KindNearMiss, trace.KindPairAdded, trace.KindTrapSprung,
				trace.KindPairPrunedHB, trace.KindPairPrunedDecay:
				pairs[pairLocOf(sites.Loc(e.OpA), sites.Loc(e.OpB))] = true
			}
		}
		for p := range pairs {
			if !trapSet[p.A] && !trapSet[p.B] {
				continue // both sides observed, but no trap ever armed
			}
			if t.armedUnit[p] != unit {
				t.armedUnit[p] = unit
				t.armed[p]++
			}
		}
		for _, e := range mt.Events {
			if e.Kind != trace.KindTrapSprung {
				continue
			}
			p := pairLocOf(sites.Loc(e.OpA), sites.Loc(e.OpB))
			if t.explains[p] == nil {
				if ex := explainPair(mt, p); ex != nil {
					t.explains[p] = ex
				}
			}
		}
	}
}

// Clusters returns the folded clusters ranked most-reproducible first
// (Wilson lower bound, then firings, then ID for determinism), each with
// its Rank computed and its explanation slice attached.
func (t *Triage) Clusters() []BugCluster {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]BugCluster, 0, len(t.clusters))
	for _, c := range t.clusters {
		cc := *c
		opps := t.armed[c.Sig.pair()]
		if opps < c.firingUnits {
			// Trace-less units can fire without trace-visible opportunities;
			// a firing unit is an opportunity by definition.
			opps = c.firingUnits
		}
		cc.Rank = rankOf(c.firingUnits, opps)
		cc.Explanation = t.explains[c.Sig.pair()]
		out = append(out, cc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank.Low != out[j].Rank.Low {
			return out[i].Rank.Low > out[j].Rank.Low
		}
		if out[i].Firings != out[j].Firings {
			return out[i].Firings > out[j].Firings
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// FromTrapFile derives the degraded triage view a fleet daemon's merged
// snapshot gives on its own: one cluster per dangerous pair, identity
// resolved through the file's site table, with no firing counts (those live
// with the shards' own triage reports — the daemon only ever sees pairs).
func FromTrapFile(f trapfile.File) []BugCluster {
	tuple := resolver(f.Sites)
	out := make([]BugCluster, 0, len(f.Pairs))
	for _, p := range f.Pairs {
		sig := SignatureOf(tuple(p.A), tuple(p.B))
		out = append(out, BugCluster{Sig: sig, ID: sig.ID()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
