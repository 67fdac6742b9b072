package e2e

import (
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	tsvd "repro"
	"repro/internal/collections"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/trapfile"
	"repro/internal/trapstore"
	"repro/internal/workload"
)

// TestMetricsReconcileExactly runs a deterministic suite with every metrics
// surface enabled — detector metrics and a store client on one registry, a
// tsvd-trapd handler on a real TCP port with its own — then reconciles every
// exported counter exactly against the ground truth on hand: the harness
// Outcome's summed detector stats, the store operations the harness protocol
// implies, and the daemon's own wire acks. Off-by-one anywhere fails; the
// exposition layer is only trustworthy if it is exact.
func TestMetricsReconcileExactly(t *testing.T) {
	const modules, runs = 5, 2

	// The daemon and the shard must count independently for the
	// reconciliation to mean anything: separate registries.
	daemonReg := metrics.NewRegistry()
	daemon := trapstore.NewMemory("TSVD", nil)
	srv := httptest.NewServer(trapstore.NewHandler(daemon, trapstore.HandlerOptions{Metrics: daemonReg}))
	defer srv.Close()

	// The shard side: detector metrics and the HTTP store client share one
	// registry, as a real instrumented test process would wire them.
	clientReg := metrics.NewRegistry()
	store := trapstore.NewHTTPStore(srv.URL, trapstore.HTTPConfig{Metrics: clientReg})
	defer store.Close()

	suite := workload.GenerateSuite(2019, modules)
	opts := harness.Options{
		Config:      config.Defaults(config.AlgoTSVD).Scaled(0.02),
		Runs:        runs,
		RunSeedBase: harness.Seed(1234),
		Store:       store,
		Metrics:     core.NewDetectorMetrics(clientReg),
	}
	// Tracing on: the tsvd_trace_* counters must reconcile against the same
	// accounting the trace summary sidecar carries.
	opts.Config.Trace = true
	out := harness.Run(suite, opts)
	if out.StoreErr != nil {
		t.Fatalf("suite store error: %v", out.StoreErr)
	}
	if out.Stats.OnCalls == 0 || out.Stats.PairsAdded == 0 {
		t.Fatalf("suite exercised nothing: %+v", out.Stats)
	}
	if out.TraceTotals.Emitted == 0 {
		t.Fatal("traced suite emitted no events; trace counters unexercised")
	}

	// A deterministic post-suite store epilogue: the sentinel publish is
	// guaranteed to grow the daemon's set, so the next fetch must carry new
	// pairs (a delta, now that the client resumes from its cursor) and the
	// one after it must be a 304 — exactly one not_modified, independent of
	// what the suite's own merges did to the generation counter.
	sentinel := trapfile.File{Version: trapfile.FormatVersion, Tool: "TSVD", Pairs: []trapfile.Pair{
		{A: "e2e/sentinel@1", B: "e2e/sentinel@2"},
	}}
	if err := store.Publish(sentinel); err != nil {
		t.Fatalf("sentinel publish: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := store.Fetch(); err != nil {
			t.Fatalf("epilogue fetch %d: %v", i+1, err)
		}
	}
	const (
		fetches   = runs + 2 // one per run + two epilogue fetches
		publishes = runs + 1 // one per run + the sentinel
	)

	t.Run("detector", func(t *testing.T) {
		got := clientReg.Values()
		if err := core.CheckCounters(got, out.Stats); err != nil {
			t.Error(err)
		}
		wantSeries(t, "detector", got, map[string]float64{
			// A full-mode suite must read probability 1 — any other value
			// means sampling state leaked into a mode that has none.
			"tsvd_sampler_probability":     1,
			"tsvd_detector_instances":      runs * modules,
			"tsvd_detector_parked_threads": 0, // nothing runs anymore
			// The trace-loss counters must mirror the summary sidecar a
			// `tsvd-run -trace` would write from this same outcome, and a
			// drop (which silently corrupts triage slices) must be visible.
			"tsvd_trace_emitted_total": float64(out.TraceTotals.Emitted),
			"tsvd_trace_dropped_total": 0,
		})
		if out.TraceTotals.Dropped != 0 {
			t.Errorf("suite dropped %d trace events", out.TraceTotals.Dropped)
		}
	})

	t.Run("store client", func(t *testing.T) {
		// The fetch sequence is full, then delta-resumed, then 304: the
		// first fetch has no cursor, the last finds nothing new, and every
		// fetch in between resumes from the client's generation cursor.
		wantSeries(t, "store client", clientReg.Values(), map[string]float64{
			`tsvd_store_ops_total{op="fetch"}`:                   fetches,
			`tsvd_store_ops_total{op="delta"}`:                   fetches - 2,
			`tsvd_store_ops_total{op="publish"}`:                 publishes,
			`tsvd_store_ops_total{op="not_modified"}`:            1,
			`tsvd_store_ops_total{op="retry"}`:                   0, // healthy daemon: a retry means phantom requests
			`tsvd_store_op_duration_seconds_count{op="fetch"}`:   fetches,
			`tsvd_store_op_duration_seconds_count{op="publish"}`: publishes,
		})
	})

	t.Run("daemon", func(t *testing.T) {
		dm1, ctype := scrape(t, srv.URL+"/metrics")
		if want := "text/plain; version=0.0.4; charset=utf-8"; ctype != want {
			t.Errorf("daemon /metrics Content-Type = %q, want %q", ctype, want)
		}
		var health struct {
			Status        string  `json:"status"`
			Generation    float64 `json:"generation"`
			Pairs         float64 `json:"pairs"`
			UptimeSeconds float64 `json:"uptime_seconds"`
		}
		fetchJSON(t, srv.URL+"/healthz", &health)
		dm2, _ := scrape(t, srv.URL+"/metrics")

		// The daemon aggregated exactly what one client published: merges
		// are additive, so the gained-pairs counter must equal the final set
		// size, which must match the healthz body and the client's view.
		finalPairs := float64(daemon.PairCount())
		wantSeries(t, "daemon", dm1, map[string]float64{
			"tsvd_trapd_pairs":                                        finalPairs,
			"tsvd_trapd_merged_pairs_total":                           finalPairs,
			"tsvd_trapd_merges_total":                                 publishes,
			`tsvd_trapd_requests_total{endpoint="traps_get"}`:         fetches,
			`tsvd_trapd_requests_total{endpoint="traps_post"}`:        publishes,
			`tsvd_trapd_requests_total{endpoint="healthz"}`:           0, // healthz hit after this scrape
			`tsvd_trapd_requests_total{endpoint="metrics"}`:           1, // entry-increment: the scrape reports itself
			`tsvd_trapd_request_seconds_count{endpoint="traps_get"}`:  fetches,
			`tsvd_trapd_request_seconds_count{endpoint="traps_post"}`: publishes,
			// The daemon's own account of how it answered each snapshot
			// GET must mirror the client's full/delta/304 split exactly.
			`tsvd_trapd_snapshot_responses_total{kind="full"}`:         1,
			`tsvd_trapd_snapshot_responses_total{kind="delta"}`:        fetches - 2,
			`tsvd_trapd_snapshot_responses_total{kind="not_modified"}`: 1,
		})
		wantSeries(t, "daemon (2nd scrape)", dm2, map[string]float64{
			`tsvd_trapd_requests_total{endpoint="metrics"}`: 2,
			`tsvd_trapd_requests_total{endpoint="healthz"}`: 1,
		})
		if health.Status != "ok" {
			t.Errorf("healthz status = %q, want ok", health.Status)
		}
		if health.Generation != dm1["tsvd_trapd_generation"] {
			t.Errorf("healthz generation %v != gauge %v", health.Generation, dm1["tsvd_trapd_generation"])
		}
		if health.Pairs != finalPairs {
			t.Errorf("healthz pairs %v != store %v", health.Pairs, finalPairs)
		}
	})

	// A single-goroutine workload on the public API has fully deterministic
	// counters: every container op is one OnCall, nothing can near-miss.
	const sessOps = 100
	session := func(t *testing.T, cfg tsvd.Config) (tsvd.Snapshot, map[string]float64) {
		t.Helper()
		reg := tsvd.NewMetricsRegistry()
		sess, err := tsvd.Install(cfg, tsvd.WithDetectorMetrics(tsvd.NewDetectorMetrics(reg)))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		dict := tsvd.NewDictionary[int, int]()
		for i := 0; i < sessOps; i++ {
			dict.Set(i, i)
		}
		return sess.Snapshot(), reg.Values()
	}

	t.Run("session", func(t *testing.T) {
		snap, got := session(t, tsvd.DefaultConfig().Scaled(0.02))
		if snap.Stats.OnCalls != sessOps || snap.Stats.NearMisses != 0 || snap.Bugs != 0 || snap.TrapSetPairs != 0 {
			t.Errorf("session snapshot off: %+v (want OnCalls=%d, all else zero)", snap, sessOps)
		}
		wantSeries(t, "session", got, map[string]float64{
			"tsvd_detector_on_calls_total":    sessOps,
			"tsvd_detector_near_misses_total": 0,
			"tsvd_detector_instances":         1,
			// An untraced session has no tracer at all: both trace counters
			// must read zero, not merely "no drops".
			"tsvd_trace_emitted_total": 0,
			"tsvd_trace_dropped_total": 0,
		})
	})

	// Sampled mode at p=0: every call is deterministically sampled out — the
	// skip counter equals the op count, OnCalls still counts the skips, and
	// the probability gauge reads the configured 0.
	t.Run("sampled session", func(t *testing.T) {
		cfg := tsvd.DefaultConfig().Scaled(0.02)
		cfg.Mode = tsvd.ModeSampled
		cfg.SampleProbability = 0
		snap, got := session(t, cfg)
		if err := core.CheckCounters(got, snap.Stats); err != nil {
			t.Error(err)
		}
		wantSeries(t, "sampled session", got, map[string]float64{
			"tsvd_sampler_calls_sampled_out_total": sessOps,
			"tsvd_detector_on_calls_total":         sessOps,
			"tsvd_sampler_probability":             0,
			"tsvd_detector_near_misses_total":      0,
		})
	})

	// Every counter above is per detector thread state, and a goroutine
	// whose id could not be read shares the state of ids.NoThread with every
	// other such goroutine.
	if n := ids.ThreadIDFailures(); n != 0 {
		t.Errorf("ids.ThreadIDFailures() = %d after the suite and the sessions, want 0", n)
	}
}

// TestOverheadBeliefMatchesWallClock is the independent oracle for the
// sampled tier's overhead account: one seeded, call-dense, conflict-free
// module runs uninstrumented (harness.Baseline) and in ModeSampled with a 1 %
// target (harness.Run), and the overhead the controller believes it caused —
// tsvd_overhead_ratio, time charged per unit of wall time over its last
// interval — must agree with the share of the instrumented run's wall time
// the harness measured as overhead.
//
// Tolerance: a factor of two either way. The account is built from two
// calibrated per-call constants measured in a warm loop, which reads 20–40 %
// under what the same code costs between a program's own cache misses, and
// the two wall clocks are separate runs on a shared VM; each side is the
// fastest of three, taken as three baseline/sampled pairs, to keep a stalled
// run out of the comparison. An account
// that charged only admitted calls' analysis (the detector before admission
// moved in front of identity) believes well under a tenth of the measured
// share here, so the bound is loose against noise and tight against that.
func TestOverheadBeliefMatchesWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("times six ~0.15 s suite runs; skipped under -short")
	}
	const calls, dicts = 3_000_000, 8
	type op struct {
		dict, key int
		write     bool
	}
	rng := rand.New(rand.NewSource(2019))
	stream := make([]op, 1<<16)
	for i := range stream {
		stream[i] = op{dict: rng.Intn(dicts), key: rng.Intn(1024), write: rng.Intn(10) < 6}
	}
	suite := &workload.Suite{Seed: 2019, Modules: []*workload.Module{{
		Name: "e2e/calldense",
		Tests: []workload.Test{{Name: "stream", NominalUnits: 1e6, Body: func(env *workload.Env) {
			var ds [dicts]*collections.Dictionary[int, int]
			for i := range ds {
				ds[i] = collections.NewDictionary[int, int](env.Det)
			}
			for i := 0; i < calls; i++ {
				if o := stream[i&(len(stream)-1)]; o.write {
					ds[o.dict].Set(o.key, i)
				} else {
					ds[o.dict].ContainsKey(o.key)
				}
			}
		}}},
	}}}
	baseOpts := harness.Options{Config: config.Defaults(config.AlgoTSVD), RunSeedBase: harness.Seed(1)}
	opts := baseOpts
	opts.Config.Mode = config.ModeSampled
	opts.Config.OverheadTarget = 0.01
	opts.Config.SamplerInterval = 20 * time.Millisecond // several ticks within the run

	// Baseline and sampled runs alternate, so that load on the host drifts
	// onto both sides alike.
	base, wall := time.Duration(1<<62), time.Duration(1<<62)
	var believed, floor float64
	for i := 0; i < 3; i++ {
		if d := harness.Baseline(suite, baseOpts); d < base {
			base = d
		}
		reg := metrics.NewRegistry()
		opts.Metrics = core.NewDetectorMetrics(reg)
		out := harness.Run(suite, opts)
		if out.Stats.OnCalls != calls || out.Stats.DelaysInjected != 0 || out.Reports.UniqueBugs() != 0 {
			t.Fatalf("module is not the call-dense, delay-free one intended: %+v", out.Stats)
		}
		if out.Overhead.Ticks < 3 {
			t.Fatalf("run %d saw %d controller ticks; the belief needs a few intervals to settle", i, out.Overhead.Ticks)
		}
		if out.WallTime < wall {
			wall = out.WallTime
			got := reg.Values()
			believed, floor = got["tsvd_overhead_ratio"], got["tsvd_overhead_floor_ratio"]
		}
	}
	measured := float64(wall-base) / float64(wall)
	t.Logf("uninstrumented %v, sampled %v: measured overhead share %.3f; tsvd_overhead_ratio %.3f (floor %.3f)",
		base, wall, measured, believed, floor)
	if measured < 0.05 {
		t.Fatalf("measured overhead share %.3f is too small to check anything against", measured)
	}
	if believed < measured/2 || believed > 2*measured {
		t.Errorf("tsvd_overhead_ratio = %.3f but the harness measured %.3f of the run as overhead (tolerance: a factor of two)",
			believed, measured)
	}
	if floor > believed {
		t.Errorf("tsvd_overhead_floor_ratio %.3f exceeds tsvd_overhead_ratio %.3f", floor, believed)
	}
}
