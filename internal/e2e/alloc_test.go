package e2e

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/workload"
)

// Budgets for TestSuiteAllocationBudget. The detector's own allocations per
// test measured 39–40 when the gate was written (78.5 before detector state
// became pay-as-you-use: a 2 KiB ring per object, a 16 KiB stack dump per
// delay) and 35 before thread and object states came from the registries'
// chunks instead of one allocation each; ≈ 18 since. The byte ratio measured
// 2.1 (6.5 before), ≈ 2.4 with the chunks' unused tails.
const (
	detectorMallocsPerTestBudget = 30
	runToBaselineBytesBudget     = 3.0
)

// TestSuiteAllocationBudget is the suite-level memory gate: a fixed generated
// suite uninstrumented and then for two runs under TSVD, as the benchmark's
// suite_run workload runs it. What the detector adds in allocations per test,
// and the bytes a run allocates relative to the baseline, must stay inside
// the committed budgets.
func TestSuiteAllocationBudget(t *testing.T) {
	const runs = 2
	suite := workload.GenerateSuite(7, 40)
	tests := 0
	for _, m := range suite.Modules {
		tests += len(m.Tests)
	}
	opts := harness.Options{
		Config:      config.Defaults(config.AlgoTSVD).Scaled(0.02),
		Runs:        runs,
		Parallelism: 2,
		RunSeedBase: harness.Seed(7),
	}
	harness.Baseline(suite, opts) // warm-up: site tables, pools, lazily built runtime state

	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	harness.Baseline(suite, opts)
	runtime.ReadMemStats(&m1)
	out := harness.Run(suite, opts)
	runtime.ReadMemStats(&m2)
	if out.Stats.DelaysInjected == 0 || out.TotalFound() == 0 {
		t.Fatalf("the run injected %d delays and found %d bugs: not the workload the budget is for",
			out.Stats.DelaysInjected, out.TotalFound())
	}

	baseMallocs, runMallocs := float64(m1.Mallocs-m0.Mallocs), float64(m2.Mallocs-m1.Mallocs)
	perTest := (runMallocs/runs - baseMallocs) / float64(tests)
	bytesX := float64(m2.TotalAlloc-m1.TotalAlloc) / runs / float64(m1.TotalAlloc-m0.TotalAlloc)
	t.Logf("%d tests: baseline %.0f mallocs, run %.0f mallocs over %d runs; detector adds %.1f mallocs per test, bytes %.2fx baseline",
		tests, baseMallocs, runMallocs, runs, perTest, bytesX)
	if perTest > detectorMallocsPerTestBudget {
		t.Errorf("the detector adds %.1f allocations per test, budget %d", perTest, detectorMallocsPerTestBudget)
	}
	if bytesX > runToBaselineBytesBudget {
		t.Errorf("a run under TSVD allocates %.2fx the baseline's bytes, budget %.1fx", bytesX, runToBaselineBytesBudget)
	}
}
