package harness

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload"
)

// scale keeps harness tests fast: 2ms delays and windows.
const scale = 0.02

func opts(algo config.Algorithm, runs int) Options {
	return Options{
		Config:      config.Defaults(algo).Scaled(scale),
		Runs:        runs,
		Parallelism: 10,
		RunSeedBase: Seed(1234),
	}
}

// TestTSVDEndToEnd is the headline integration test: over a small suite,
// TSVD must find a solid majority of planted bugs within two runs, most of
// them in run 1, with zero unknown (non-planted) pairs reported.
func TestTSVDEndToEnd(t *testing.T) {
	suite := workload.GenerateSuite(21, 40)
	total := suite.TotalPlantedBugs()
	if total == 0 {
		t.Fatal("suite has no planted bugs")
	}
	out := Run(suite, opts(config.AlgoTSVD, 2))

	if len(out.UnknownPairs) != 0 {
		t.Fatalf("reported non-planted pairs: %v", out.UnknownPairs)
	}
	found := out.TotalFound()
	if found*2 < total {
		t.Fatalf("TSVD found %d of %d planted bugs in 2 runs", found, total)
	}
	if out.NewBugsByRun[0] < out.NewBugsByRun[1] {
		t.Fatalf("run 1 (%d) should find at least as many as run 2 (%d)",
			out.NewBugsByRun[0], out.NewBugsByRun[1])
	}
	if out.Stats.DelaysInjected == 0 || out.Stats.NearMisses == 0 {
		t.Fatalf("stats incomplete: %+v", out.Stats)
	}
	if out.Panics != 0 {
		t.Fatalf("%d test bodies panicked", out.Panics)
	}
}

// TestColdBugsNeedRunTwo: single-occurrence bugs are invisible to TSVD's
// same-run injection and require the trap file.
func TestColdBugsNeedRunTwo(t *testing.T) {
	// A suite dense in cold bugs: generate until we have a few.
	suite := workload.GenerateSuite(33, 120)
	kinds := suite.BugsByKind()
	if kinds[workload.BugCold] < 3 {
		t.Fatalf("suite has only %d cold bugs", kinds[workload.BugCold])
	}
	one := Run(suite, opts(config.AlgoTSVD, 1))
	two := Run(suite, opts(config.AlgoTSVD, 2))

	coldOne := one.FoundByKind(suite)[workload.BugCold]
	coldTwo := two.FoundByKind(suite)[workload.BugCold]
	if coldTwo <= coldOne {
		t.Fatalf("trap file did not help cold bugs: run1-only=%d, two-runs=%d",
			coldOne, coldTwo)
	}
	// And the cold bugs found in the two-run config mostly landed in run 2.
	lateCold := 0
	planted := suite.PlantedPairs()
	for pair, run := range two.FoundBugs {
		if planted[pair].Kind == workload.BugCold && run == 2 {
			lateCold++
		}
	}
	if lateCold == 0 {
		t.Fatal("no cold bug was first found in run 2")
	}
}

// TestTSVDBeatsRandomBaselines on bugs found under the same two-run budget.
func TestTSVDBeatsRandomBaselines(t *testing.T) {
	suite := workload.GenerateSuite(55, 40)
	tsvd := Run(suite, opts(config.AlgoTSVD, 2))
	dyn := Run(suite, opts(config.AlgoDynamicRandom, 2))
	if tsvd.TotalFound() <= dyn.TotalFound() {
		t.Fatalf("TSVD (%d) did not beat DynamicRandom (%d)",
			tsvd.TotalFound(), dyn.TotalFound())
	}
}

// TestNoFalsePositivesAcrossAllVariants: every variant reports only
// red-handed catches, so only planted pairs may ever appear.
func TestNoFalsePositivesAcrossAllVariants(t *testing.T) {
	suite := workload.GenerateSuite(77, 25)
	for _, algo := range []config.Algorithm{
		config.AlgoTSVD, config.AlgoTSVDHB,
		config.AlgoDynamicRandom, config.AlgoStaticRandom,
	} {
		out := Run(suite, opts(algo, 2))
		if len(out.UnknownPairs) != 0 {
			t.Fatalf("%v reported non-planted pairs: %v", algo, out.UnknownPairs)
		}
	}
}

// TestDelaySelectivity: TSVD must spend far less injected-delay time than
// DynamicRandom, because it only delays at dangerous pairs while the random
// baseline pays on every hot sequential path (Table 2's shape; asserted on
// injected-delay totals, which are noise-free, rather than wall clock).
func TestDelaySelectivity(t *testing.T) {
	suite := workload.GenerateSuite(99, 30)
	base := Baseline(suite, opts(config.AlgoTSVD, 1))
	if base <= 0 {
		t.Fatal("baseline did not run")
	}
	tsvd := Run(suite, opts(config.AlgoTSVD, 1))
	dyn := Run(suite, opts(config.AlgoDynamicRandom, 1))
	if tsvd.Stats.TotalDelay >= dyn.Stats.TotalDelay {
		t.Fatalf("TSVD delay time %v not below DynamicRandom %v",
			tsvd.Stats.TotalDelay, dyn.Stats.TotalDelay)
	}
	// TSVD also injects far fewer delays than it has OnCalls.
	if tsvd.Stats.DelaysInjected*4 > tsvd.Stats.OnCalls {
		t.Fatalf("TSVD injected %d delays for %d calls — not selective",
			tsvd.Stats.DelaysInjected, tsvd.Stats.OnCalls)
	}
}

// TestBaselineStableAcrossAlgorithms: the baseline ignores the configured
// algorithm (it always runs Nop).
func TestBaselineUsesNop(t *testing.T) {
	suite := workload.GenerateSuite(13, 8)
	a := Baseline(suite, opts(config.AlgoTSVD, 1))
	b := Baseline(suite, opts(config.AlgoDynamicRandom, 1))
	ratio := float64(a) / float64(b)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("baselines differ wildly: %v vs %v", a, b)
	}
}

// TestOutcomeBookkeeping checks run attribution and module counting.
func TestOutcomeBookkeeping(t *testing.T) {
	suite := workload.GenerateSuite(21, 40)
	out := Run(suite, opts(config.AlgoTSVD, 2))
	if len(out.NewBugsByRun) != 2 {
		t.Fatalf("NewBugsByRun = %v", out.NewBugsByRun)
	}
	sum := out.NewBugsByRun[0] + out.NewBugsByRun[1]
	if sum != out.TotalFound() {
		t.Fatalf("per-run sums %d != total %d", sum, out.TotalFound())
	}
	for pair, run := range out.FoundBugs {
		if run < 1 || run > 2 {
			t.Fatalf("bug %v attributed to run %d", pair, run)
		}
	}
	if out.ModulesWithBugs == 0 {
		t.Fatal("no module recorded as buggy")
	}
	if out.Reports.UniqueBugs() < out.TotalFound() {
		t.Fatal("merged reports lost bugs")
	}
}

func TestStackDepthOf(t *testing.T) {
	stack := "func1()\n\tfile1.go:10\nfunc2()\n\tfile2.go:20\n"
	if d := StackDepthOf(stack); d != 2 {
		t.Fatalf("StackDepthOf = %d, want 2", d)
	}
	if StackDepthOf("") != 0 {
		t.Fatal("empty stack depth wrong")
	}
}

func TestOverheadMath(t *testing.T) {
	if Overhead(150*time.Millisecond, 100*time.Millisecond) != 0.5 {
		t.Fatal("overhead math wrong")
	}
	if Overhead(100, 0) != 0 {
		t.Fatal("zero baseline not guarded")
	}
}

// TestWithDefaults pins the zero-value semantics of Options: nil RunSeedBase
// means "use the default 42", while an explicit Seed(0) is a real, distinct
// seed and must survive. Runs and Parallelism treat any non-positive value
// as unset (zero is never a meaningful run count).
func TestWithDefaults(t *testing.T) {
	d := Options{}.withDefaults()
	if d.Runs != 1 || d.Parallelism != 10 {
		t.Fatalf("zero Options defaulted to Runs=%d Parallelism=%d", d.Runs, d.Parallelism)
	}
	if d.RunSeedBase == nil || *d.RunSeedBase != 42 {
		t.Fatalf("nil RunSeedBase defaulted to %v, want 42", d.RunSeedBase)
	}

	z := Options{RunSeedBase: Seed(0)}.withDefaults()
	if z.RunSeedBase == nil || *z.RunSeedBase != 0 {
		t.Fatalf("explicit Seed(0) was clobbered to %v", z.RunSeedBase)
	}

	neg := Options{Runs: -3, Parallelism: -1}.withDefaults()
	if neg.Runs != 1 || neg.Parallelism != 10 {
		t.Fatalf("negative values not treated as unset: %+v", neg)
	}

	set := Options{Runs: 7, Parallelism: 3, RunSeedBase: Seed(99)}.withDefaults()
	if set.Runs != 7 || set.Parallelism != 3 || *set.RunSeedBase != 99 {
		t.Fatalf("explicit values clobbered: %+v", set)
	}
}

// TestSeedZeroIsDistinctFromDefault: seed 0 must produce a different schedule
// universe than the implicit default — the regression the pointer fixed
// (RunSeedBase == 0 used to silently mean 42).
func TestSeedZeroIsDistinctFromDefault(t *testing.T) {
	suite := workload.GenerateSuite(21, 10)
	o := opts(config.AlgoTSVD, 1)
	o.RunSeedBase = Seed(0)
	zero := Run(suite, o)
	o.RunSeedBase = Seed(42)
	def := Run(suite, o)
	// Both are real runs; the point is that Seed(0) flowed through as 0.
	// The schedules will nearly always differ in delay placement; assert on
	// the sturdiest observable, total instrumented calls being present in
	// both, plus at least one differing statistic across a few counters.
	if zero.Stats.OnCalls == 0 || def.Stats.OnCalls == 0 {
		t.Fatal("a run did not execute")
	}
	same := zero.Stats.DelaysInjected == def.Stats.DelaysInjected &&
		zero.Stats.NearMisses == def.Stats.NearMisses &&
		zero.Stats.TotalDelay == def.Stats.TotalDelay
	if same {
		t.Log("seed 0 and 42 produced identical stats; cannot distinguish (flaky-tolerant: not failing)")
	}
}

// TestTraceReconcilesWithStats: with tracing on, the drained event counts
// must mirror the detector counters exactly, with zero dropped events —
// the observability layer's core accounting invariant, checked on the
// directory WriteTrace writes by trace.CheckDir.
func TestTraceReconcilesWithStats(t *testing.T) {
	suite := workload.GenerateSuite(21, 20)
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB} {
		o := opts(algo, 2)
		o.Config.Trace = true
		out := Run(suite, o)
		if out.TraceTotals.Emitted == 0 {
			t.Fatalf("%v: tracing enabled but no events emitted", algo)
		}
		if out.TraceTotals.Dropped != 0 {
			t.Fatalf("%v: %d events dropped with default buffer", algo, out.TraceTotals.Dropped)
		}
		var drained int64
		for _, mt := range out.Traces {
			drained += int64(len(mt.Events))
		}
		if drained != out.TraceTotals.Emitted {
			t.Fatalf("%v: drained %d != emitted %d", algo, drained, out.TraceTotals.Emitted)
		}
		dir := t.TempDir()
		if _, err := WriteTrace(dir, len(suite.Modules), out, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := trace.CheckDir(dir); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
	}
}

// TestTraceDisabledByDefault: without Config.Trace the detectors carry no
// tracer and the outcome carries no events.
func TestTraceDisabledByDefault(t *testing.T) {
	suite := workload.GenerateSuite(21, 5)
	out := Run(suite, opts(config.AlgoTSVD, 1))
	if len(out.Traces) != 0 || out.TraceTotals.Emitted != 0 {
		t.Fatalf("tracing off but outcome has traces: %d modules, %d emitted",
			len(out.Traces), out.TraceTotals.Emitted)
	}
}

// TestEnvRngDrawsArePerTest: every test draws from Env.Rng exactly the
// sequence a source of its own, seeded base + run·1_000_003 + mi·10_007 + ti,
// would give it — in the baseline and in every run, whatever ran before it on
// the module's worker.
func TestEnvRngDrawsArePerTest(t *testing.T) {
	const base, runs, draws = 99, 2, 8
	gen := workload.GenerateSuite(5, 6)
	suite := &workload.Suite{Seed: gen.Seed}
	// got[mi][ti] collects each execution's draws, in run order: runs are
	// sequential and so are a module's tests.
	got := make([][][][draws]int64, len(gen.Modules))
	for mi, m := range gen.Modules {
		mod := &workload.Module{Name: m.Name}
		got[mi] = make([][][draws]int64, len(m.Tests))
		for ti, test := range m.Tests {
			test.Body = func(env *workload.Env) {
				var d [draws]int64
				for i := range d {
					d[i] = env.Rng.Int63()
				}
				got[mi][ti] = append(got[mi][ti], d)
			}
			mod.Tests = append(mod.Tests, test)
		}
		suite.Modules = append(suite.Modules, mod)
	}
	o := opts(config.AlgoTSVD, runs)
	o.RunSeedBase = Seed(base)
	Baseline(suite, o)
	Run(suite, o)

	checked := 0
	for mi := range got {
		for ti, execs := range got[mi] {
			if len(execs) != 1+runs {
				t.Fatalf("module %d test %d ran %d times, want %d", mi, ti, len(execs), 1+runs)
			}
			// The baseline is run 1's schedule.
			for i, run := range []int{1, 1, 2} {
				want := rand.New(rand.NewSource(base + int64(run)*1_000_003 + int64(mi)*10_007 + int64(ti)))
				for k, v := range execs[i] {
					if w := want.Int63(); v != w {
						t.Fatalf("run %d module %d test %d: draw %d is %d, a fresh source gives %d", run, mi, ti, k, v, w)
					}
				}
				checked++
			}
		}
	}
	if checked < 3*10 {
		t.Fatalf("only %d test executions checked", checked)
	}
}
