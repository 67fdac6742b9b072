package main

import (
	"bytes"
	"io"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/triage"
	"repro/internal/workload"
)

const suiteRuns = 2 // run 2 is seeded with run 1's trap set (§3.4.6)

// suiteRep is one repetition: the suite uninstrumented, then under TSVD.
type suiteRep struct {
	baseWall  time.Duration // harness.Baseline: summed module durations
	baseReal  time.Duration // elapsed
	runReal   time.Duration
	baseAlloc uint64 // TotalAlloc bytes
	runAlloc  uint64
	mallocs   uint64 // during harness.Run
	out       *harness.Outcome
}

// suiteMeasurement is a series of repetitions on one generated suite.
type suiteMeasurement struct {
	suite   *workload.Suite
	tests   int
	planted int
	genMs   []float64
	setups  []float64
	reps    []suiteRep
	failed  int
	problem []string
}

func suiteOptions(ctx *runCtx, rep int, traced bool) harness.Options {
	cfg := config.Defaults(config.AlgoTSVD).Scaled(0.02)
	cfg.Trace = traced
	return harness.Options{
		Config:      cfg,
		Runs:        suiteRuns,
		Parallelism: ctx.workers,
		RunSeedBase: harness.Seed(ctx.seed*31 + int64(rep)),
	}
}

// measureSuite sets the suite up, then repeats baseline+run until dur has
// passed (at least once). A set-up is generating the suite and one
// uninstrumented warm-up pass over it.
func measureSuite(ctx *runCtx, dur time.Duration, setups int, traced bool, firstRep int) (*suiteMeasurement, error) {
	m := &suiteMeasurement{}
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		suite, err := genSuite(ctx.seed, ctx.scale())
		if err != nil {
			return nil, err
		}
		m.genMs = append(m.genMs, float64(time.Since(t0).Microseconds())/1e3)
		harness.Baseline(suite, suiteOptions(ctx, 0, false))
		m.setups = append(m.setups, time.Since(t0).Seconds())
		m.suite = suite
	}
	m.tests = suiteTests(m.suite)
	m.planted = m.suite.TotalPlantedBugs()
	planted := m.suite.PlantedPairs()
	if skew != 0 {
		clear(planted)
	}

	start := time.Now()
	for rep := firstRep; rep == firstRep || time.Since(start) < dur; rep++ {
		opts := suiteOptions(ctx, rep, traced)
		var r suiteRep
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		span := ctx.spans.begin("harness.Baseline", 0)
		t := time.Now()
		r.baseWall = harness.Baseline(m.suite, opts)
		r.baseReal = time.Since(t)
		ctx.spans.end(span)
		runtime.ReadMemStats(&m1)
		span = ctx.spans.begin("harness.Run", 0)
		t = time.Now()
		r.out = harness.Run(m.suite, opts)
		r.runReal = time.Since(t)
		ctx.spans.end(span)
		runtime.ReadMemStats(&m2)
		r.baseAlloc, r.runAlloc = m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc
		r.mallocs = m2.Mallocs - m1.Mallocs
		m.reps = append(m.reps, r)

		// A report is a pair caught red-handed, so every one must be a
		// planted pair; anything else is a false positive.
		bad := len(r.out.UnknownPairs) > 0 || r.out.Panics > 0
		for pair := range r.out.FoundBugs {
			if _, ok := planted[pair]; !ok {
				bad = true
			}
		}
		if bad {
			m.failed++
			m.problem = append(m.problem, "a repetition reported a non-planted pair or a test body panicked")
		}
	}
	return m, nil
}

// over collects one number per repetition.
func (m *suiteMeasurement) over(f func(suiteRep) float64) []float64 {
	xs := make([]float64, len(m.reps))
	for i, r := range m.reps {
		xs[i] = f(r)
	}
	return xs
}

func (m *suiteMeasurement) testRuns() float64 { return float64(m.tests * suiteRuns) }

func (m *suiteMeasurement) opsPerS() []float64 {
	return m.over(func(r suiteRep) float64 { return m.testRuns() / r.runReal.Seconds() })
}

func (m *suiteMeasurement) slowdown() []float64 {
	return m.over(func(r suiteRep) float64 {
		return r.out.WallTime.Seconds() / suiteRuns / r.baseWall.Seconds()
	})
}

func runSuiteWorkload(ctx *runCtx) *result {
	res := newResult("suite_run")
	if !ctx.trace {
		m, err := measureSuite(ctx, ctx.share(1), ctx.setups(3), false, 0)
		if err != nil {
			return res.fail(err)
		}
		res.attempted, res.failed, res.problems = len(m.reps), m.failed, m.problem
		slow := m.slowdown()
		res.set("setup_s", median(m.setups))
		res.set("slowdown_x", median(slow))
		res.set("allocs_per_op_plus1", 1+median(m.over(func(r suiteRep) float64 {
			return float64(r.mallocs) / m.testRuns()
		})))
		res.set("found_frac", median(m.over(func(r suiteRep) float64 {
			return float64(r.out.TotalFound()) / float64(m.planted)
		})))
		res.note("slowdown_x %v (base: harness.Baseline %.3f s)", summarize(slow),
			median(m.over(func(r suiteRep) float64 { return r.baseWall.Seconds() })))
		res.note("tests_per_s %v", summarize(m.opsPerS()))
		return res
	}

	// Traced: a third of the repetitions plain, then one with the
	// detector's event tracer on, whose reports and traces feed the
	// trace.* and triage.* rows.
	plain, err := measureSuite(ctx, ctx.share(0.33), 1, false, 0)
	if err != nil {
		return res.fail(err)
	}
	traced, err := measureSuite(ctx, 0, 1, true, len(plain.reps))
	if err != nil {
		return res.fail(err)
	}
	res.attempted = len(plain.reps) + len(traced.reps)
	res.failed = plain.failed + traced.failed
	res.problems = append(plain.problem, traced.problem...)
	res.setAll(runProbes(ctx))

	panics := 0
	for _, r := range plain.reps {
		panics += r.out.Panics
	}
	// Outcome.Stats already sums the modules and runs of a repetition.
	res.setStats(plain.reps[0].out.Stats, suiteRuns)
	res.set("bench.ops_per_s", median(plain.opsPerS()))
	res.set("bench.op_us_p50", median(plain.over(func(r suiteRep) float64 {
		return float64(r.out.WallTime.Microseconds()) / plain.testRuns()
	})))
	res.set("harness.baseline_wall_s", median(plain.over(func(r suiteRep) float64 { return r.baseWall.Seconds() })))
	res.set("harness.suite_wall_s", median(plain.over(func(r suiteRep) float64 { return r.out.WallTime.Seconds() / suiteRuns })))
	res.set("harness.real_s_per_rep", median(plain.over(func(r suiteRep) float64 { return (r.baseReal + r.runReal).Seconds() })))
	res.set("harness.alloc_x", median(plain.over(func(r suiteRep) float64 {
		return float64(r.runAlloc) / suiteRuns / float64(r.baseAlloc)
	})))
	res.set("harness.run1_found_frac", median(plain.over(func(r suiteRep) float64 {
		return float64(r.out.NewBugsByRun[0]) / float64(plain.planted)
	})))
	res.set("harness.panics", float64(panics))
	res.set("workload.generate_suite_ms", median(append(plain.genMs, traced.genMs...)))
	res.set("workload.planted_bugs", float64(plain.planted))

	tr := traced.reps[0]
	res.set("report.unique_bugs", float64(tr.out.Reports.UniqueBugs()))
	overhead := (tr.out.WallTime.Seconds()/suiteRuns)/res.values["harness.suite_wall_s"] - 1
	res.set("trace.suite_overhead_frac", overhead)
	res.set("bench.trace_overhead_frac", 1-(traced.testRuns()/tr.runReal.Seconds())/median(plain.opsPerS()))
	events := int64(0)
	for _, mt := range tr.out.Traces {
		events += int64(len(mt.Events))
	}
	res.set("trace.events_per_run", float64(events)/suiteRuns)
	res.set("trace.dropped", float64(tr.out.TraceTotals.Dropped))
	if tr.out.TraceTotals.Dropped != 0 {
		res.problem("the event tracer dropped %d events", tr.out.TraceTotals.Dropped)
	}
	traceIO(ctx, res, tr.out, events)
	triageFold(ctx, res, tr.out, events)
	return res
}

// traceIO times serializing the traced repetition's events and parsing
// them back.
func traceIO(ctx *runCtx, res *result, out *harness.Outcome, events int64) {
	var buf bytes.Buffer
	span := ctx.spans.begin("trace.WriteJSONL", 0)
	t := time.Now()
	for _, mt := range out.Traces {
		if err := trace.WriteJSONL(io.Discard, mt, out.Sites); err != nil {
			res.problem("trace.WriteJSONL: %v", err)
		}
	}
	writeDur := time.Since(t)
	ctx.spans.end(span)
	for _, mt := range out.Traces {
		if err := trace.WriteJSONL(&buf, mt, out.Sites); err != nil {
			res.problem("trace.WriteJSONL: %v", err)
		}
	}
	span = ctx.spans.begin("trace.ReadJSONL", 0)
	t = time.Now()
	back, err := trace.ReadJSONL(&buf)
	readDur := time.Since(t)
	ctx.spans.end(span)
	if err != nil || int64(len(back)) != events {
		res.problem("trace.ReadJSONL returned %d of %d events: %v", len(back), events, err)
	}
	res.set("trace.write_jsonl_events_per_s", float64(events)/writeDur.Seconds())
	res.set("trace.read_jsonl_events_per_s", float64(events)/readDur.Seconds())
}

// triageFold folds the traced repetition as 4 shards × 3 rounds into a
// fresh Triage, the way a fleet's reports arrive, and checks that the
// duplicates collapse to one cluster per distinct bug.
func triageFold(ctx *runCtx, res *result, out *harness.Outcome, events int64) {
	const shards, rounds = 4, 3
	tg := triage.New()
	span := ctx.spans.begin("triage.AddRun", 0)
	t := time.Now()
	for round := 1; round <= rounds; round++ {
		for shard := 1; shard <= shards; shard++ {
			tg.AddRun(out.Reports, out.Traces, triage.Provenance{
				Shard: shard, Round: round, Seed: ctx.seed, Mode: "full", Source: "benchmark"})
		}
	}
	foldDur := time.Since(t)
	ctx.spans.end(span)
	span = ctx.spans.begin("triage.Clusters", 0)
	t = time.Now()
	clusters := tg.Clusters()
	clustersDur := time.Since(t)
	ctx.spans.end(span)
	res.set("triage.fold_events_per_s", float64(events*shards*rounds)/foldDur.Seconds())
	res.set("triage.clusters", float64(len(clusters)))
	res.set("triage.clusters_call_us", float64(clustersDur.Nanoseconds())/1e3)
	if want := out.Reports.UniqueBugs(); len(clusters) != want {
		res.problem("triage folded %d unique bugs into %d clusters", want, len(clusters))
	}
}
