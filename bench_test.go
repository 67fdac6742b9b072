package tsvd

// One benchmark per table and figure of the paper's evaluation (§5), plus
// microbenchmarks of the OnCall hot path. Benchmarks run reduced-size
// suites so `go test -bench=.` completes in minutes on one core; the
// full-size regeneration (the numbers recorded in EXPERIMENTS.md) is
// produced by cmd/tsvd-bench. Custom metrics carry the experiment results:
// bugs (unique planted bugs found), delays (injected), found_frac (share of
// planted bugs found).

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/collections"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/scenarios"
	"repro/internal/workload"
)

// benchParams shrinks the experiment sizes for benchmark iterations.
func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.SmallModules = 40
	p.LargeModules = 120
	p.Fig8Modules = 25
	p.Fig8Runs = 10
	return p
}

func benchOpts(algo config.Algorithm, modules, runs int) (*workload.Suite, harness.Options) {
	p := benchParams()
	suite := workload.GenerateSuite(p.Seed, modules)
	return suite, harness.Options{
		Config:      config.Defaults(algo).Scaled(p.Scale),
		Runs:        runs,
		Parallelism: p.Parallelism,
		RunSeedBase: harness.Seed(p.Seed * 31),
	}
}

func runTechnique(b *testing.B, algo config.Algorithm) {
	b.Helper()
	suite, opts := benchOpts(algo, 40, 2)
	var bugs, delays float64
	for i := 0; i < b.N; i++ {
		opts.RunSeedBase = harness.Seed(int64(i+1) * 7919)
		out := harness.Run(suite, opts)
		bugs += float64(out.TotalFound())
		delays += float64(out.Stats.DelaysInjected)
		if len(out.UnknownPairs) != 0 {
			b.Fatalf("%v reported non-planted pairs", algo)
		}
	}
	b.ReportMetric(bugs/float64(b.N), "bugs")
	b.ReportMetric(delays/float64(b.N), "delays")
	b.ReportMetric(bugs/float64(b.N)/float64(suite.TotalPlantedBugs()), "found_frac")
}

// --- Table 2: technique comparison ---

func BenchmarkTable2_TSVD(b *testing.B)          { runTechnique(b, config.AlgoTSVD) }
func BenchmarkTable2_TSVDHB(b *testing.B)        { runTechnique(b, config.AlgoTSVDHB) }
func BenchmarkTable2_DynamicRandom(b *testing.B) { runTechnique(b, config.AlgoDynamicRandom) }
func BenchmarkTable2_DataCollider(b *testing.B)  { runTechnique(b, config.AlgoStaticRandom) }

// BenchmarkTable2_Baseline measures the uninstrumented suite, the
// denominator of every overhead number.
func BenchmarkTable2_Baseline(b *testing.B) {
	suite, opts := benchOpts(config.AlgoTSVD, 40, 1)
	for i := 0; i < b.N; i++ {
		harness.Baseline(suite, opts)
	}
}

// --- Table 1: bug population over the Large suite ---

func BenchmarkTable1(b *testing.B) {
	p := benchParams()
	suite := workload.LargeSuite(p.Seed)
	// Large is big; trim to the bench size deterministically.
	suite.Modules = suite.Modules[:p.LargeModules]
	opts := harness.Options{
		Config:      config.Defaults(config.AlgoTSVD).Scaled(p.Scale),
		Runs:        2,
		Parallelism: p.Parallelism,
		RunSeedBase: harness.Seed(p.Seed * 31),
	}
	var bugs float64
	for i := 0; i < b.N; i++ {
		out := harness.Run(suite, opts)
		bugs += float64(out.TotalFound())
	}
	b.ReportMetric(bugs/float64(b.N), "bugs")
}

// --- Table 3: ablations ---

func runAblation(b *testing.B, mutate func(*config.Config)) {
	b.Helper()
	suite, opts := benchOpts(config.AlgoTSVD, 40, 2)
	mutate(&opts.Config)
	var bugs, delays float64
	for i := 0; i < b.N; i++ {
		out := harness.Run(suite, opts)
		bugs += float64(out.TotalFound())
		delays += float64(out.Stats.DelaysInjected)
	}
	b.ReportMetric(bugs/float64(b.N), "bugs")
	b.ReportMetric(delays/float64(b.N), "delays")
}

func BenchmarkTable3_Full(b *testing.B) { runAblation(b, func(*config.Config) {}) }
func BenchmarkTable3_NoHBInference(b *testing.B) {
	runAblation(b, func(c *config.Config) { c.DisableHBInference = true })
}
func BenchmarkTable3_NoWindowing(b *testing.B) {
	runAblation(b, func(c *config.Config) { c.DisableNearMissWindow = true })
}
func BenchmarkTable3_NoPhaseDetection(b *testing.B) {
	runAblation(b, func(c *config.Config) { c.DisablePhaseDetection = true })
}

// --- Table 4: open-source scenarios ---

func BenchmarkTable4(b *testing.B) {
	cfg := config.Defaults(config.AlgoTSVD).Scaled(0.4)
	var tsvs float64
	for i := 0; i < b.N; i++ {
		for _, s := range scenarios.All() {
			out, err := scenarios.Run(s, cfg, 2)
			if err != nil {
				b.Fatal(err)
			}
			tsvs += float64(out.TSVs)
		}
	}
	b.ReportMetric(tsvs/float64(b.N), "tsvs")
}

// --- Figure 8: bugs over accumulated runs ---

func BenchmarkFigure8(b *testing.B) {
	p := benchParams()
	suite := workload.GenerateSuite(p.Seed, p.Fig8Modules)
	var tsvdBugs float64
	for i := 0; i < b.N; i++ {
		out := harness.Run(suite, harness.Options{
			Config:      config.Defaults(config.AlgoTSVD).Scaled(p.Scale),
			Runs:        p.Fig8Runs,
			Parallelism: p.Parallelism,
			RunSeedBase: harness.Seed(int64(i+1) * 104729),
		})
		tsvdBugs += float64(out.TotalFound())
	}
	b.ReportMetric(tsvdBugs/float64(b.N), "bugs")
}

// --- Figure 9: parameter sensitivity (each bench sweeps its parameter's
// pathological value vs the default and reports the bug gap) ---

func sweepPoint(b *testing.B, mutate func(*config.Config)) float64 {
	b.Helper()
	suite, opts := benchOpts(config.AlgoTSVD, 40, 2)
	mutate(&opts.Config)
	out := harness.Run(suite, opts)
	return float64(out.TotalFound())
}

func runSweepBench(b *testing.B, worst, def func(*config.Config)) {
	b.Helper()
	var worstBugs, defBugs float64
	for i := 0; i < b.N; i++ {
		worstBugs += sweepPoint(b, worst)
		defBugs += sweepPoint(b, def)
	}
	b.ReportMetric(worstBugs/float64(b.N), "bugs_worst")
	b.ReportMetric(defBugs/float64(b.N), "bugs_default")
}

func BenchmarkFigure9a_Variance(b *testing.B) {
	suite, opts := benchOpts(config.AlgoTSVD, 40, 2)
	minB, maxB := 1<<30, 0
	for i := 0; i < b.N; i++ {
		for try := 1; try <= 3; try++ {
			opts.Config.Seed = int64(i*3+try) * 997
			out := harness.Run(suite, opts)
			n := out.TotalFound()
			if n < minB {
				minB = n
			}
			if n > maxB {
				maxB = n
			}
		}
	}
	b.ReportMetric(float64(minB), "bugs_min")
	b.ReportMetric(float64(maxB), "bugs_max")
}

func BenchmarkFigure9b_ObjHistory(b *testing.B) {
	runSweepBench(b,
		func(c *config.Config) { c.ObjHistory = 1 },
		func(c *config.Config) { c.ObjHistory = 5 })
}

func BenchmarkFigure9c_NearMissWindow(b *testing.B) {
	runSweepBench(b,
		func(c *config.Config) { c.NearMissWindow = c.NearMissWindow / 100 },
		func(c *config.Config) {})
}

func BenchmarkFigure9d_HBThreshold(b *testing.B) {
	runSweepBench(b,
		func(c *config.Config) { c.HBBlockThreshold = 0 },
		func(c *config.Config) { c.HBBlockThreshold = 0.5 })
}

func BenchmarkFigure9e_HBWindow(b *testing.B) {
	runSweepBench(b,
		func(c *config.Config) { c.HBInferenceWindow = 100 },
		func(c *config.Config) { c.HBInferenceWindow = 5 })
}

func BenchmarkFigure9f_PhaseBuffer(b *testing.B) {
	runSweepBench(b,
		func(c *config.Config) { c.PhaseBufferSize = 2 },
		func(c *config.Config) { c.PhaseBufferSize = 16 })
}

func BenchmarkFigure9g_DecayFactor(b *testing.B) {
	// Factor 0 (no decay) is the overhead-pathological configuration;
	// report delay counts rather than bugs.
	suite, opts := benchOpts(config.AlgoTSVD, 40, 2)
	var zeroDelays, defDelays float64
	for i := 0; i < b.N; i++ {
		opts.Config.DecayFactor = 0
		zeroDelays += float64(harness.Run(suite, opts).Stats.DelaysInjected)
		opts.Config.DecayFactor = 0.5
		defDelays += float64(harness.Run(suite, opts).Stats.DelaysInjected)
	}
	b.ReportMetric(zeroDelays/float64(b.N), "delays_nodecay")
	b.ReportMetric(defDelays/float64(b.N), "delays_default")
}

func BenchmarkFigure9h_DelayTime(b *testing.B) {
	runSweepBench(b,
		func(c *config.Config) { c.DelayTime = c.DelayTime / 10 },
		func(c *config.Config) {})
}

// --- §5.5 resource usage, §4 async inlining, §3.4.6 overlap ablation ---

func BenchmarkResourceUsage(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		experiments.ResourceUsage(p, io.Discard)
	}
}

func BenchmarkAsyncInlining(b *testing.B) {
	suite, opts := benchOpts(config.AlgoTSVD, 40, 2)
	var forced, inlined float64
	for i := 0; i < b.N; i++ {
		opts.InlineFastAsync = false
		forced += float64(harness.Run(suite, opts).FoundByKind(suite)[workload.BugAsync])
		opts.InlineFastAsync = true
		inlined += float64(harness.Run(suite, opts).FoundByKind(suite)[workload.BugAsync])
	}
	b.ReportMetric(forced/float64(b.N), "async_bugs_forced")
	b.ReportMetric(inlined/float64(b.N), "async_bugs_inlined")
}

func BenchmarkDelayOverlapAblation(b *testing.B) {
	suite, opts := benchOpts(config.AlgoTSVD, 40, 2)
	var aggressive, avoiding float64
	for i := 0; i < b.N; i++ {
		opts.Config.AvoidOverlappingDelays = false
		aggressive += float64(harness.Run(suite, opts).TotalFound())
		opts.Config.AvoidOverlappingDelays = true
		avoiding += float64(harness.Run(suite, opts).TotalFound())
	}
	b.ReportMetric(aggressive/float64(b.N), "bugs_aggressive")
	b.ReportMetric(avoiding/float64(b.N), "bugs_avoid_overlap")
}

// --- OnCall hot-path microbenchmarks ---

func benchOnCall(b *testing.B, algo config.Algorithm) {
	b.Helper()
	det, err := core.New(config.Defaults(algo))
	if err != nil {
		b.Fatal(err)
	}
	a := core.Access{
		Thread: ids.CurrentThreadID(), Obj: 1, Op: 42,
		Site: det.Sites().Register(42, "Dictionary", "ContainsKey", false),
		Kind: core.KindRead,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.OnCall(a)
	}
}

func BenchmarkOnCall_TSVD(b *testing.B)   { benchOnCall(b, config.AlgoTSVD) }
func BenchmarkOnCall_TSVDHB(b *testing.B) { benchOnCall(b, config.AlgoTSVDHB) }
func BenchmarkOnCall_Nop(b *testing.B)    { benchOnCall(b, config.AlgoNop) }

// BenchmarkOnCallUncontended is the regression-gated figure: one goroutine,
// one object, the lock-free single-writer fast path end to end (TSC read,
// cached thread and ring probes, publication CAS). cmd/tsvd-bench-gate runs
// the TSVD case against the threshold committed in bench_gate.json; `make
// bench-gate` (part of `make check`) fails the build when the fast path
// regresses past it.
func BenchmarkOnCallUncontended(b *testing.B) {
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB, config.AlgoNop} {
		b.Run(algo.String(), func(b *testing.B) { benchOnCall(b, algo) })
	}
}

// --- OnCall contention: many goroutines, conflict-free workload ---
//
// The scalability benchmark behind docs/PERFORMANCE.md: G goroutines hammer
// OnCall with *disjoint* objects and locations (KindWrite, so nothing is
// skipped as read-read), so no near miss, no dangerous pair and no delay ever
// forms and the measurement isolates pure detector-bookkeeping throughput.
// With disjoint objects the striped runtime gives each goroutine its own
// shard with high probability; the "sharedObj" variant aims every goroutine
// at one object (read-only, still conflict-free) to measure the single-shard
// worst case, which striping cannot help.

// contentionParallelism converts a desired goroutine count into the
// per-GOMAXPROCS parallelism factor RunParallel understands.
func contentionParallelism(goroutines int) int {
	p := goroutines / runtime.GOMAXPROCS(0)
	if p < 1 {
		p = 1
	}
	return p
}

func benchContention(b *testing.B, algo config.Algorithm, goroutines int, shared, traced, metered bool, mutate ...func(*config.Config)) {
	b.Helper()
	cfg := config.Defaults(algo)
	cfg.Trace = traced
	for _, m := range mutate {
		m(&cfg)
	}
	var copts []core.Option
	if metered {
		copts = append(copts,
			core.WithDetectorMetrics(core.NewDetectorMetrics(metrics.NewRegistry())))
	}
	det, err := core.New(cfg, copts...)
	if err != nil {
		b.Fatal(err)
	}
	var workers atomic.Int64
	b.SetParallelism(contentionParallelism(goroutines))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := workers.Add(1)
		a := core.Access{
			Thread: ids.ThreadID(1000 + w),
			Obj:    ids.ObjectID(1000 + w),
			Op:     ids.OpID(1000 + w),
			Site:   det.Sites().Register(ids.OpID(1000+w), "Dictionary", "Add", true),
			Kind:   core.KindWrite,
		}
		if shared {
			a.Obj = 7 // every goroutine on one object ⇒ one object lock
			a.Kind = core.KindRead
			a.Site = det.Sites().Register(a.Op, "Dictionary", "ContainsKey", false)
		}
		for pb.Next() {
			det.OnCall(a)
		}
	})
	if det.Reports().UniqueBugs() != 0 {
		b.Fatal("conflict-free workload produced a report")
	}
}

func BenchmarkOnCallContention(b *testing.B) {
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB} {
		for _, g := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%v/goroutines=%d", algo, g), func(b *testing.B) {
				benchContention(b, algo, g, false, false, false)
			})
		}
		b.Run(fmt.Sprintf("%v/sharedObj/goroutines=8", algo), func(b *testing.B) {
			benchContention(b, algo, 8, true, false, false)
		})
		// Tracing enabled on the same conflict-free workload: the fast path
		// crosses no emission point, so this pins the observability layer's
		// hot-path overhead (<5% is the budget docs/PERFORMANCE.md records).
		for _, g := range []int{1, 8} {
			b.Run(fmt.Sprintf("%v/trace/goroutines=%d", algo, g), func(b *testing.B) {
				benchContention(b, algo, g, false, true, false)
			})
		}
		b.Run(fmt.Sprintf("%v/trace/sharedObj/goroutines=8", algo), func(b *testing.B) {
			benchContention(b, algo, 8, true, true, false)
		})
		// Live metrics attached on the same conflict-free workload: the Stats
		// series are function-backed and read only at scrape time, and the
		// histogram hooks sit on action paths this workload never crosses, so
		// the metered delta pins what attaching a registry costs the fast
		// path (<5% is the budget docs/PERFORMANCE.md records).
		for _, g := range []int{1, 8} {
			b.Run(fmt.Sprintf("%v/metrics/goroutines=%d", algo, g), func(b *testing.B) {
				benchContention(b, algo, g, false, false, true)
			})
		}
		b.Run(fmt.Sprintf("%v/metrics/sharedObj/goroutines=8", algo), func(b *testing.B) {
			benchContention(b, algo, 8, true, false, true)
		})
	}
}

// BenchmarkOnCallContentionModes runs the same conflict-free contention
// workload under each sampling mode (docs/SAMPLING.md). Expectations the
// per-mode overhead table in docs/PERFORMANCE.md records:
//
//   - observe-only tracks full mode (it only suppresses sleeps, and this
//     workload never reaches a sleep);
//   - sampled at p=1 adds the admission draws, an entry timestamp and the
//     per-call charge to the overhead account;
//   - sampled at low p approaches the skip path's floor — one atomic
//     decrement of the goroutine's own countdown (these calls arrive with a
//     built Access; through a container the floor also skips the identity
//     prologue — BenchmarkDictionarySetSampledAuto);
//   - the auto-throttled run converges toward its target, so its steady
//     state looks like low p.
func BenchmarkOnCallContentionModes(b *testing.B) {
	modes := []struct {
		name string
		mut  func(*config.Config)
	}{
		{"full", func(*config.Config) {}},
		{"observe-only", func(c *config.Config) { c.Mode = config.ModeObserveOnly }},
		{"sampled-p1", func(c *config.Config) {
			c.Mode = config.ModeSampled
			c.SampleProbability = 1
		}},
		{"sampled-p0.01", func(c *config.Config) {
			c.Mode = config.ModeSampled
			c.SampleProbability = 0.01
		}},
		{"sampled-auto-1pct", func(c *config.Config) {
			c.Mode = config.ModeSampled
			c.SampleProbability = 1
			c.OverheadTarget = 0.01
		}},
	}
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB} {
		for _, m := range modes {
			b.Run(fmt.Sprintf("%v/%s/goroutines=8", algo, m.name), func(b *testing.B) {
				benchContention(b, algo, 8, false, false, false, m.mut)
			})
		}
	}
}

// BenchmarkDictionarySetInstrumented measures the end-to-end per-operation
// cost through the public API (prologue + detector + raw op).
func BenchmarkDictionarySetInstrumented(b *testing.B) {
	if _, err := Install(DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	d := NewDictionary[int, int]()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Set(i&1023, i)
	}
}

// BenchmarkDictionarySetSampledAuto is the same call under the sampled tier
// with a 1 % overhead target: in steady state nearly every call is rejected
// by the admission countdown before it buys an identity, so this is what the
// tier's floor costs end to end (gated in bench_gate.json).
func BenchmarkDictionarySetSampledAuto(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Mode = ModeSampled
	cfg.SampleProbability = 1
	cfg.OverheadTarget = 0.01
	if _, err := Install(cfg); err != nil {
		b.Fatal(err)
	}
	d := NewDictionary[int, int]()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Set(i&1023, i)
	}
}

// BenchmarkDictionarySetUninstrumented is the same operation with a nil
// detector: the pay-as-you-go floor (no OnCall prologue at all).
func BenchmarkDictionarySetUninstrumented(b *testing.B) {
	d := collections.NewDictionary[int, int](nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Set(i&1023, i)
	}
}
