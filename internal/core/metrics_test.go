package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestDetectorMetricsReconcileWithStats is the in-package version of the
// exact-reconciliation contract: after a racy workload every exported
// counter equals the corresponding Stats field exactly, and the histogram
// counts equal the counters they are co-located with.
func TestDetectorMetricsReconcileWithStats(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewDetectorMetrics(reg)
	d := mustNew(t, testConfig(config.AlgoTSVD), WithDetectorMetrics(m))

	const obj = ids.ObjectID(1)
	d1 := hammer(100, time.Millisecond, func(int) { d.OnCall(acc(1, obj, 101, KindWrite)) })
	d2 := hammer(100, time.Millisecond, func(int) { d.OnCall(acc(2, obj, 102, KindWrite)) })
	<-d1
	<-d2

	st := d.Stats()
	got := reg.Values()
	if err := CheckCounters(got, st); err != nil {
		t.Error(err)
	}
	if got["tsvd_detector_instances"] != 1 {
		t.Errorf("tsvd_detector_instances = %v, want 1", got["tsvd_detector_instances"])
	}
	if st.NearMisses == 0 || st.DelaysInjected == 0 {
		t.Fatalf("workload exercised nothing: %+v", st)
	}
	if ts, ok := d.(interface{ TrapSetSize() int }); ok {
		if got["tsvd_detector_trap_set_pairs"] != float64(ts.TrapSetSize()) {
			t.Errorf("trap_set_pairs = %v, want %d",
				got["tsvd_detector_trap_set_pairs"], ts.TrapSetSize())
		}
	}
}

// TestDetectorMetricsAggregateAcrossDetectors: one DetectorMetrics attached
// to two detectors exports the sum, live.
func TestDetectorMetricsAggregateAcrossDetectors(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewDetectorMetrics(reg)
	da := mustNew(t, testConfig(config.AlgoTSVD), WithDetectorMetrics(m))
	db := mustNew(t, testConfig(config.AlgoTSVDHB), WithDetectorMetrics(m))

	for i := 0; i < 10; i++ {
		da.OnCall(acc(1, 1, 101, KindRead))
		db.OnCall(acc(1, 2, 201, KindRead))
		db.OnCall(acc(1, 2, 202, KindRead))
	}
	got := reg.Values()
	want := da.Stats().OnCalls + db.Stats().OnCalls
	if got["tsvd_detector_on_calls_total"] != float64(want) {
		t.Fatalf("on_calls_total = %v, want %d", got["tsvd_detector_on_calls_total"], want)
	}
	if got["tsvd_detector_instances"] != 2 {
		t.Fatalf("instances = %v, want 2", got["tsvd_detector_instances"])
	}
}

// TestDetectorMetricsNilIsFree: a nil DetectorMetrics (metrics off) changes
// nothing about detector behavior.
func TestDetectorMetricsNilIsFree(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVD), WithDetectorMetrics(nil))
	for i := 0; i < 100; i++ {
		d.OnCall(acc(ids.ThreadID(1+i%2), 1, ids.OpID(101+i%2), KindWrite))
	}
	if d.Stats().OnCalls != 100 {
		t.Fatalf("OnCalls = %d", d.Stats().OnCalls)
	}
}

// statLeaves flattens a Stats value into its numeric leaves — every int64
// field and every histogram bucket — with a name for each.
func statLeaves(t *testing.T, st *Stats) (leaves []reflect.Value, names []string) {
	t.Helper()
	v := reflect.ValueOf(st).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			leaves, names = append(leaves, f), append(names, name)
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				leaves, names = append(leaves, f.Index(j)), append(names, fmt.Sprintf("%s[%d]", name, j))
			}
		default:
			t.Fatalf("Stats.%s has kind %v; teach this test (and Stats.Add) about it", name, f.Kind())
		}
	}
	return leaves, names
}

// TestStatCountersCoverEveryField: StatCounters is the one table the counter
// set is decided in, so every scalar Stats field must be exactly one row's
// Field — a field with no row never reaches Stats.Add, the runtime's snapshot,
// /metrics or a trace summary, and one with two is counted twice. Stats.Add
// must then double every numeric leaf, histogram buckets included. An event
// kind mirrors one counter, except delay_planned, which each of a planned
// delay's four outcomes mirrors.
func TestStatCountersCoverEveryField(t *testing.T) {
	var full Stats
	leaves, names := statLeaves(t, &full)
	for i, f := range leaves {
		f.SetInt(int64(i + 1))
	}
	sum := full
	sum.Add(full)
	doubled, _ := statLeaves(t, &sum)
	for i, f := range doubled {
		if want := 2 * int64(i+1); f.Int() != want {
			t.Errorf("Stats.Add drops %s: %d + %d = %d", names[i], i+1, i+1, f.Int())
		}
	}

	rows := 0
	for i := range leaves {
		if strings.Contains(names[i], "[") {
			continue // histogram buckets are exported as a histogram, not a counter
		}
		rows++
		var one Stats
		only, _ := statLeaves(t, &one)
		only[i].SetInt(int64(time.Second))
		n := 0
		for _, c := range StatCounters {
			if *c.In(&one) != 0 {
				n++
			}
		}
		if n != 1 {
			t.Errorf("Stats.%s is the Field of %d StatCounters rows, want 1", names[i], n)
		}
	}
	if rows != len(StatCounters) {
		t.Errorf("Stats has %d counters, StatCounters %d rows", rows, len(StatCounters))
	}
	mirrored := map[trace.Kind][]string{}
	for _, c := range StatCounters {
		for _, k := range c.Mirrors {
			mirrored[k] = append(mirrored[k], c.Series)
		}
	}
	outcomes := []string{
		"tsvd_detector_delays_injected_total", "tsvd_detector_delays_skipped_occupied_total",
		"tsvd_detector_delays_skipped_budget_total", "tsvd_sampler_delays_suppressed_total",
	}
	for k, series := range mirrored {
		if k == trace.KindDelayPlanned {
			if !slices.Equal(series, outcomes) {
				t.Errorf("%s mirrors %v, want the outcomes %v", k, series, outcomes)
			}
		} else if len(series) > 1 {
			t.Errorf("%s mirrors %v, want one counter", k, series)
		}
	}
}

// TestStatCountersNameTheRightFields pins each exported series to its Stats
// field by name, independently of the StatCounters table that both registers
// the series and drives CheckCounters: a row reading the wrong field would
// otherwise reconcile against itself.
func TestStatCountersNameTheRightFields(t *testing.T) {
	st := Stats{
		OnCalls: 1, DelaysInjected: 2, TotalDelay: 3 * time.Second, NearMisses: 4,
		PairsAdded: 5, PairsPrunedHB: 6, PairsPrunedDecay: 7, Violations: 8,
		LocationsSeen: 9, LocationsSeenConcurrent: 10, SequentialSkips: 11,
		CallsSampledOut: 12, DelaysSuppressed: 13, SamplerThrottles: 14,
		DelaysSkippedSequential: 15, DelaysSkippedOccupied: 16, DelaysSkippedBudget: 17,
	}
	want := map[string]float64{
		"tsvd_detector_on_calls_total":                  1,
		"tsvd_detector_delays_injected_total":           2,
		"tsvd_detector_delay_seconds_total":             3,
		"tsvd_detector_near_misses_total":               4,
		"tsvd_detector_pairs_added_total":               5,
		"tsvd_detector_pairs_pruned_hb_total":           6,
		"tsvd_detector_pairs_pruned_decay_total":        7,
		"tsvd_detector_violations_total":                8,
		"tsvd_detector_locations_seen_total":            9,
		"tsvd_detector_locations_seen_concurrent_total": 10,
		"tsvd_detector_sequential_skips_total":          11,
		"tsvd_sampler_calls_sampled_out_total":          12,
		"tsvd_sampler_delays_suppressed_total":          13,
		"tsvd_sampler_throttles_total":                  14,
		"tsvd_detector_delays_skipped_sequential_total": 15,
		"tsvd_detector_delays_skipped_occupied_total":   16,
		"tsvd_detector_delays_skipped_budget_total":     17,
	}
	if len(StatCounters) != len(want) {
		t.Errorf("StatCounters has %d rows, this test pins %d", len(StatCounters), len(want))
	}
	for _, c := range StatCounters {
		if got, ok := want[c.Series]; !ok || c.Value(st) != got {
			t.Errorf("%s reads %v, want %v (pinned: %v)", c.Series, c.Value(st), got, ok)
		}
	}
}
