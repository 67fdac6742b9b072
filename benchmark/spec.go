package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric. The tables below are the single
// list of what this program prints; BENCHMARK.json at the repository root
// repeats them for the driver, and a test holds the two in agreement.
type metricDef struct {
	name, unit string
}

// endToEnd are the gated metrics. Every workload reports every one of them
// (the driver's contract), so each is defined in workload-neutral terms —
// an "op" is the unit of work the workload's user issues: one instrumented
// API call (the three call workloads), one unit test executed under the
// detector (suite_run), one publish+fetch sync round (fleet_sync).
// README.md gives the per-workload definitions.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"slowdown_x", "x"},
	{"allocs_per_op_plus1", "1"},
	{"found_frac", "1"},
}

// perLayer are the -trace 1 metrics, named <module>.<metric>. A metric
// reads 0 on a workload that never enters its layer.
var perLayer = []metricDef{
	{"ids.thread_id_ns", "ns"},
	{"ids.caller_op_ns", "ns"},
	{"ids.thread_id_failures", "count"},
	{"sites.for_call_ns", "ns"},
	{"sites.registered", "count"},
	{"rawcol.op_ns", "ns"},
	{"collections.call_ns_p50", "ns"},
	{"collections.call_ns_p95", "ns"},
	{"collections.allocs_per_call", "1"},
	{"collections.proxy_ns", "ns"},
	{"collections.unattributed_ns", "ns"},
	{"core.oncall_ns", "ns"},
	{"core.oncall_shared_ns", "ns"},
	{"core.oncall_sampled_out_ns", "ns"},
	{"core.new_detector_us", "us"},
	{"core.oncalls_per_run", "count"},
	{"core.delays_per_run", "count"},
	{"core.delay_s_per_run", "s"},
	{"core.near_misses_per_run", "count"},
	{"core.pairs_added_per_run", "count"},
	{"core.pairs_pruned_hb_per_run", "count"},
	{"core.pairs_pruned_decay_per_run", "count"},
	{"core.violations_per_run", "count"},
	{"core.sequential_skips_per_run", "count"},
	{"core.delay_productive_frac", "1"},
	{"core.sampled_out_frac", "1"},
	{"sampler.admit_ns", "ns"},
	{"sampler.tick_ns", "ns"},
	{"sampler.throttles", "count"},
	{"sampler.final_probability", "1"},
	{"fasttime.now_ns", "ns"},
	{"task.run_wait_ns", "ns"},
	{"task.run_wait_base_ns", "ns"},
	{"syncx.lock_unlock_ns", "ns"},
	{"harness.baseline_wall_s", "s"},
	{"harness.suite_wall_s", "s"},
	{"harness.real_s_per_rep", "s"},
	{"harness.alloc_x", "x"},
	{"harness.run1_found_frac", "1"},
	{"harness.panics", "count"},
	{"workload.generate_suite_ms", "ms"},
	{"workload.planted_bugs", "count"},
	{"report.unique_bugs", "count"},
	{"trace.emit_ns", "ns"},
	{"trace.events_per_run", "count"},
	{"trace.dropped", "count"},
	{"trace.write_jsonl_events_per_s", "1/s"},
	{"trace.read_jsonl_events_per_s", "1/s"},
	{"trace.suite_overhead_frac", "1"},
	{"metrics.metered_oncall_ns", "ns"},
	{"metrics.write_prometheus_us", "us"},
	{"triage.fold_events_per_s", "1/s"},
	{"triage.clusters", "count"},
	{"triage.clusters_call_us", "us"},
	{"trapstore.persist_ms_p50", "ms"},
	{"trapstore.persist_busy_frac", "1"},
	{"trapstore.merge_us_p50", "us"},
	{"trapstore.publish_ms_p50", "ms"},
	{"trapstore.publish_ms_p95", "ms"},
	{"trapstore.fetch_delta_ms_p50", "ms"},
	{"trapstore.fetch_delta_ms_p95", "ms"},
	{"trapstore.fetch_304_ms_p50", "ms"},
	{"trapstore.fetch_full_ms_p50", "ms"},
	{"trapstore.fetch_delta_bytes_per_poll", "B"},
	{"trapstore.fetch_full_bytes", "B"},
	{"trapstore.retries", "count"},
	{"trapstore.pairs_final", "count"},
	{"trapfile.save_ms_p50", "ms"},
	{"trapfile.merge_us_p50", "us"},
	{"bench.ops_per_s", "1/s"},
	{"bench.op_us_p50", "us"},
	{"bench.trace_overhead_frac", "1"},
}

// workloadDef is one entry of the workload table in main.go.
type workloadDef struct {
	name string
	run  func(*runCtx) *result
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &f, nil
}
