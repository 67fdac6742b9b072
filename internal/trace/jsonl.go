package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ids"
	"repro/internal/sites"
)

// SchemaVersion guards trace consumers against incompatible producers; it is
// carried on every JSONL line so files remain self-describing when
// concatenated or split. Version 2 added the trap-store event kinds
// (store_fetch, store_publish, store_fallback) and the summary's store
// totals. Version 3 added the sampling-tier kinds (delay_suppressed,
// sampler_throttle) and their stat totals (docs/SAMPLING.md). Version 4
// added interned site references: events carry site_a/site_b ids and the
// summary carries the sidecar site table resolving each id to its
// (location, class, method, kind) tuple, so traces survive renames of the
// API strings and cross-process comparison goes through stable tuples
// rather than process-local ids. Version 5 added the per-stream event index
// `i` (1-based, strictly increasing within one module-run stream): drained
// events are sorted by (timestamp, emission sequence), but t_us alone has
// microsecond ties, and the explanation slices internal/triage carves need
// the exact event order to survive the round-trip through JSONL.
const SchemaVersion = 5

// JSONEvent is the wire form of one event: one JSON object per line
// (docs/OBSERVABILITY.md documents the schema field by field). Locations are
// resolved to their stable interned keys at serialization time — never on the
// emission path — so traces from different processes are comparable. Site
// references (schema v4) resolve through the producing detector's site
// registry the same way; 0 means the op had no registered site.
type JSONEvent struct {
	V  int    `json:"v"`
	Ev string `json:"ev"`
	// I is the 1-based event index within its module-run stream (schema
	// v5): the tie-breaker that preserves exact drained order across the
	// JSONL round-trip, since t_us has microsecond ties.
	I      int64  `json:"i"`
	Module string `json:"module,omitempty"`
	Run    int    `json:"run,omitempty"`
	TUS    int64  `json:"t_us"`
	Thread int64  `json:"thread,omitempty"`
	Obj    uint64 `json:"obj,omitempty"`
	OpA    uint64 `json:"op_a,omitempty"`
	OpB    uint64 `json:"op_b,omitempty"`
	LocA   string `json:"loc_a,omitempty"`
	LocB   string `json:"loc_b,omitempty"`
	SiteA  uint64 `json:"site_a,omitempty"`
	SiteB  uint64 `json:"site_b,omitempty"`
	DurUS  int64  `json:"dur_us,omitempty"`
}

// jsonEventOf converts one drained event, resolving site references through
// reg (nil reg leaves them zero).
func jsonEventOf(module string, run int, e Event, reg *sites.Registry) JSONEvent {
	je := JSONEvent{
		V:      SchemaVersion,
		Ev:     e.Kind.String(),
		Module: module,
		Run:    run,
		TUS:    e.At.Microseconds(),
		Thread: int64(e.Thread),
		Obj:    uint64(e.Obj),
		OpA:    uint64(e.OpA),
		OpB:    uint64(e.OpB),
		DurUS:  e.Dur.Microseconds(),
	}
	if e.OpA != 0 {
		je.LocA = e.OpA.Key()
		if reg != nil {
			if s, ok := reg.SiteForOp(e.OpA); ok {
				je.SiteA = uint64(s.ID)
			}
		}
	}
	if e.OpB != 0 {
		je.LocB = e.OpB.Key()
		if reg != nil {
			if s, ok := reg.SiteForOp(e.OpB); ok {
				je.SiteB = uint64(s.ID)
			}
		}
	}
	return je
}

// WriteJSONL serializes one module trace, one event per line. reg is the
// producing detector's site registry, used to resolve the v4 site references;
// nil emits events without site ids (legacy producers, fabricated tests).
func WriteJSONL(w io.Writer, mt ModuleTrace, reg *sites.Registry) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, e := range mt.Events {
		je := jsonEventOf(mt.Module, mt.Run, e, reg)
		je.I = int64(i) + 1
		if err := enc.Encode(je); err != nil {
			return fmt.Errorf("trace: encode event: %w", err)
		}
	}
	return bw.Flush()
}

// SiteRecord is one row of the summary's sidecar site table: a process-local
// site id and the stable tuple it resolves to. Consumers joining traces from
// different processes must match on the tuple, not the id.
type SiteRecord struct {
	ID uint64 `json:"id"`
	sites.Tuple
}

// SiteTable renders reg's registered sites in id order for the summary
// sidecar (nil for a nil registry).
func SiteTable(reg *sites.Registry) []SiteRecord {
	var out []SiteRecord
	for i, t := range reg.Tuples() {
		out = append(out, SiteRecord{ID: uint64(i) + 1, Tuple: t})
	}
	return out
}

// pairKinds require both locations on the wire.
var pairKinds = map[Kind]bool{
	KindNearMiss:        true,
	KindTrapSprung:      true,
	KindPairAdded:       true,
	KindHBEdge:          true,
	KindPairPrunedHB:    true,
	KindPairPrunedDecay: true,
}

// checkLine validates one parsed wire event; line is for error context.
func checkLine(je JSONEvent, line int) error {
	if je.V != SchemaVersion {
		return fmt.Errorf("trace: line %d: schema version %d, want %d", line, je.V, SchemaVersion)
	}
	k, ok := KindFromString(je.Ev)
	if !ok {
		return fmt.Errorf("trace: line %d: unknown event kind %q", line, je.Ev)
	}
	if je.I < 1 {
		return fmt.Errorf("trace: line %d: event index %d, want >= 1", line, je.I)
	}
	if je.TUS < 0 {
		return fmt.Errorf("trace: line %d: negative timestamp %d", line, je.TUS)
	}
	if je.DurUS < 0 {
		return fmt.Errorf("trace: line %d: negative duration %d", line, je.DurUS)
	}
	if je.OpA == 0 {
		return fmt.Errorf("trace: line %d: %s event without op_a", line, je.Ev)
	}
	if pairKinds[k] && je.OpB == 0 {
		return fmt.Errorf("trace: line %d: %s event without op_b", line, je.Ev)
	}
	return nil
}

// scanJSONL parses and validates r line by line, calling fn per event. The
// first malformed line fails the whole stream: a trace that cannot be
// trusted line-by-line cannot be reconciled at all. Indexes must be
// strictly increasing within each (module, run) stream — the writer's
// guarantee, and the property that makes the order reconstructible.
func scanJSONL(r io.Reader, fn func(JSONEvent)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	type streamKey struct {
		module string
		run    int
	}
	lastIdx := map[streamKey]int64{}
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je JSONEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return fmt.Errorf("trace: line %d: invalid JSON: %w", line, err)
		}
		if err := checkLine(je, line); err != nil {
			return err
		}
		sk := streamKey{je.Module, je.Run}
		if last := lastIdx[sk]; je.I <= last {
			return fmt.Errorf("trace: line %d: event index %d not increasing (last %d) in stream %s/%d",
				line, je.I, last, je.Module, je.Run)
		}
		lastIdx[sk] = je.I
		fn(je)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace: read: %w", err)
	}
	return nil
}

// ValidateJSONL checks every line of r against the schema and returns the
// event counts by kind — the input of reconciliation against core.Stats.
func ValidateJSONL(r io.Reader) (map[string]int64, error) {
	counts := map[string]int64{}
	err := scanJSONL(r, func(je JSONEvent) { counts[je.Ev]++ })
	if err != nil {
		return nil, err
	}
	return counts, nil
}

// ReadJSONL parses and validates every line of r, returning the wire events
// in stream order — the consumer half of WriteJSONL, used by tsvd-triage
// and the round-trip tests.
func ReadJSONL(r io.Reader) ([]JSONEvent, error) {
	var out []JSONEvent
	err := scanJSONL(r, func(je JSONEvent) { out = append(out, je) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EventOf converts one wire event back to the in-memory form. Locations
// re-intern through their stable keys, so an op resolved in the consuming
// process compares equal (by key) with the producer's; events whose ops
// were never key-interned fall back to the raw numeric id.
func EventOf(je JSONEvent) Event {
	k, _ := KindFromString(je.Ev)
	e := Event{
		Kind:   k,
		Thread: ids.ThreadID(je.Thread),
		Obj:    ids.ObjectID(je.Obj),
		At:     time.Duration(je.TUS) * time.Microsecond,
		Dur:    time.Duration(je.DurUS) * time.Microsecond,
	}
	e.OpA = opOf(je.OpA, je.LocA)
	e.OpB = opOf(je.OpB, je.LocB)
	return e
}

// opOf maps a wire op reference to an OpID: by stable key when the
// producer resolved one, by raw id otherwise.
func opOf(raw uint64, loc string) ids.OpID {
	if loc != "" {
		return ids.InternKey(loc)
	}
	return ids.OpID(raw)
}

// ModuleTracesOf regroups wire events into per-(module, run) traces, each
// stream ordered by its v5 event index — the inverse of writing every
// module trace into one events.jsonl. Emitted counts the events present;
// drop accounting lives in the summary sidecar, not the event stream.
func ModuleTracesOf(jes []JSONEvent) []ModuleTrace {
	type streamKey struct {
		module string
		run    int
	}
	idx := map[streamKey]int{}
	var out []ModuleTrace
	for _, je := range jes {
		sk := streamKey{je.Module, je.Run}
		i, ok := idx[sk]
		if !ok {
			i = len(out)
			idx[sk] = i
			out = append(out, ModuleTrace{Module: je.Module, Run: je.Run})
		}
		out[i].Events = append(out[i].Events, EventOf(je))
		out[i].Emitted++
	}
	return out
}

// StatTotals are the core.Stats counters that have an exact event-count
// mirror. Defined here (rather than importing internal/core, which imports
// this package) so producers and validators share one reconciliation rule.
type StatTotals struct {
	DelaysInjected   int64 `json:"delays_injected"`
	NearMisses       int64 `json:"near_misses"`
	PairsAdded       int64 `json:"pairs_added"`
	PairsPrunedHB    int64 `json:"pairs_pruned_hb"`
	PairsPrunedDecay int64 `json:"pairs_pruned_decay"`
	Violations       int64 `json:"violations"`
	DelaysSuppressed int64 `json:"delays_suppressed"`
	SamplerThrottles int64 `json:"sampler_throttles"`
}

// StoreTotals are the trap-store operation counters with an exact
// event-count mirror: a store's successful fetches, successful publishes,
// and primary→local fallbacks (internal/trapstore.Totals, in the wire form
// shared between producer and validator).
type StoreTotals struct {
	Fetches   int64 `json:"fetches"`
	Publishes int64 `json:"publishes"`
	Fallbacks int64 `json:"fallbacks"`
}

// OverheadTotals is the sampled tier's overhead account at the end of a run
// (docs/SAMPLING.md, "The adaptive budget"): the same numbers the
// tsvd_overhead_* series export, from the accumulators the controller
// steers on.
type OverheadTotals struct {
	// Probability is the global admission probability the run ended at.
	Probability float64 `json:"probability"`
	// Ratio is the overhead the controller observed over its last interval
	// (time charged, floor included, per unit of wall time) and FloorRatio
	// the part of it rejected calls cost.
	Ratio      float64 `json:"ratio"`
	FloorRatio float64 `json:"floor_ratio"`
	// Seconds is the time charged over the whole run, by layer ("skip",
	// "prologue", "analysis", "delay").
	Seconds map[string]float64 `json:"seconds"`
}

// Reconcile checks the event counts against the aggregate counters — the
// detector's and the trap store's — and returns one error per divergence,
// joined. A dropped event breaks the guarantee by construction, so any drop
// is also an error.
func Reconcile(counts map[string]int64, stats StatTotals, store StoreTotals, dropped int64) error {
	var errs []error
	check := func(kind Kind, want int64) {
		if got := counts[kind.String()]; got != want {
			errs = append(errs, fmt.Errorf("trace: %s events = %d, stats say %d", kind, got, want))
		}
	}
	if dropped != 0 {
		errs = append(errs, fmt.Errorf("trace: %d events dropped; counts cannot reconcile", dropped))
	}
	check(KindTrapSet, stats.DelaysInjected)
	check(KindDelayInjected, stats.DelaysInjected)
	check(KindNearMiss, stats.NearMisses)
	check(KindPairAdded, stats.PairsAdded)
	check(KindPairPrunedHB, stats.PairsPrunedHB)
	check(KindPairPrunedDecay, stats.PairsPrunedDecay)
	check(KindTrapSprung, stats.Violations)
	check(KindStoreFetch, store.Fetches)
	check(KindStorePublish, store.Publishes)
	check(KindStoreFallback, store.Fallbacks)
	check(KindDelaySuppressed, stats.DelaysSuppressed)
	check(KindSamplerThrottle, stats.SamplerThrottles)
	return errors.Join(errs...)
}

// Summary is the sidecar written next to events.jsonl: the producer's own
// accounting and counters, letting a consumer validate the trace without
// re-running the suite.
type Summary struct {
	Version int              `json:"version"`
	Tool    string           `json:"tool"`
	Modules int              `json:"modules"`
	Runs    int              `json:"runs"`
	Emitted int64            `json:"emitted"`
	Dropped int64            `json:"dropped"`
	Drained int64            `json:"drained"`
	ByKind  map[string]int64 `json:"by_kind"`
	Stats   StatTotals       `json:"stats"`
	// Store is the trap-store client's own operation accounting, mirrored by
	// the store_* events (zero-valued when the run used no trap store).
	Store StoreTotals `json:"store"`
	// Overhead is the sampler's account (sampled mode only).
	Overhead *OverheadTotals `json:"overhead,omitempty"`
	// Sites is the sidecar site table (schema v4): every site id referenced
	// by the events resolves to its stable (location, class, method, kind)
	// tuple here. Empty when the producer had no site registry.
	Sites []SiteRecord `json:"sites,omitempty"`
}

// WriteSummary serializes the sidecar.
func (s *Summary) WriteSummary(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSummary parses the sidecar.
func ReadSummary(r io.Reader) (*Summary, error) {
	var s Summary
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("trace: parse summary: %w", err)
	}
	if s.Version != SchemaVersion {
		return nil, fmt.Errorf("trace: summary version %d, want %d", s.Version, SchemaVersion)
	}
	return &s, nil
}

// ReadDir reads a trace directory as `tsvd-run -trace` writes it: the
// summary.json sidecar and every schema-valid event of events.jsonl, in
// stream order.
func ReadDir(dir string) (*Summary, []JSONEvent, error) {
	sf, err := os.Open(filepath.Join(dir, "summary.json"))
	if err != nil {
		return nil, nil, err
	}
	defer sf.Close()
	sum, err := ReadSummary(sf)
	if err != nil {
		return nil, nil, err
	}
	ef, err := os.Open(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		return nil, nil, err
	}
	defer ef.Close()
	events, err := ReadJSONL(ef)
	return sum, events, err
}

// Check is the consumer-side half of the observability contract
// (docs/OBSERVABILITY.md) for a directory already read: the per-kind counts of
// events, which are schema-valid by construction, must equal the ones the
// summary recorded, and both must reconcile with the summary's detector and
// store counters. It returns the number of distinct kinds checked; the error
// joins every divergence found. A trace that fails it dropped or lost events,
// so anything counted from it is wrong.
func (s *Summary) Check(events []JSONEvent) (kinds int, err error) {
	counts := map[string]int64{}
	for _, je := range events {
		counts[je.Ev]++
	}
	var errs []error
	if n := int64(len(events)); n != s.Drained {
		errs = append(errs, fmt.Errorf("trace: events.jsonl has %d events, summary says %d drained", n, s.Drained))
	}
	for kind, n := range s.ByKind {
		if counts[kind] != n {
			errs = append(errs, fmt.Errorf("trace: %s: %d in events.jsonl, %d in summary", kind, counts[kind], n))
		}
	}
	if err := Reconcile(counts, s.Stats, s.Store, s.Dropped); err != nil {
		errs = append(errs, err)
	}
	return len(counts), errors.Join(errs...)
}

// CheckDir is ReadDir followed by Check; it also returns the number of
// events checked.
func CheckDir(dir string) (events int64, kinds int, err error) {
	sum, jes, err := ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	kinds, err = sum.Check(jes)
	return int64(len(jes)), kinds, err
}
