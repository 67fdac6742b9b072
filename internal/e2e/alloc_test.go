package e2e

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/workload"
)

// Budgets for TestSuiteAllocationBudget: what the detector adds per test, in
// allocations and in bytes, over the same suite run uninstrumented.
//
// Allocations measured 39–40 when the gate was written (78.5 before detector
// state became pay-as-you-use: a 2 KiB ring per object, a 16 KiB stack dump
// per delay), 35 before thread and object states came from the registries'
// chunks instead of one allocation each, 17.2–17.8 before a trap-set
// location became a map value with its first two pairs inline, and
// 14.6–15.1 since — 16.9–17.2 under -race, whose sync.Pool drops a quarter
// of what it is given. The budget is the -race figure plus about 15 %.
//
// Bytes were a run-to-baseline ratio until the baseline itself shrank (one
// allocation per task spawn, one math/rand source per module run) from 0.93
// to 0.58 MB on this suite: the ratio rose from 2.3 to 3.1 while the
// detector's own bytes stayed at 12.2–12.8 KB a test at both commits (13.1
// under -race). Those bytes are what the gate now bounds, with about 25 % on
// top.
const (
	detectorMallocsPerTestBudget = 20
	detectorBytesPerTestBudget   = 16 << 10
)

// TestSuiteAllocationBudget is the suite-level memory gate: a fixed generated
// suite uninstrumented and then for two runs under TSVD, as the benchmark's
// suite_run workload runs it. What the detector adds per test — (run ÷ runs −
// baseline) ÷ tests, in allocations and in bytes — must stay inside the
// committed budgets.
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

	perTest := func(base, run uint64) float64 {
		return (float64(run)/runs - float64(base)) / float64(tests)
	}
	mallocs := perTest(m1.Mallocs-m0.Mallocs, m2.Mallocs-m1.Mallocs)
	bytes := perTest(m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc)
	t.Logf("%d tests: baseline %d mallocs, %d B; run %d mallocs, %d B over %d runs; detector adds %.1f mallocs and %.0f B per test",
		tests, m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m2.Mallocs-m1.Mallocs, m2.TotalAlloc-m1.TotalAlloc,
		runs, mallocs, bytes)
	if mallocs > detectorMallocsPerTestBudget {
		t.Errorf("the detector adds %.1f allocations per test, budget %d", mallocs, detectorMallocsPerTestBudget)
	}
	if bytes > detectorBytesPerTestBudget {
		t.Errorf("the detector adds %.0f bytes per test, budget %d", bytes, detectorBytesPerTestBudget)
	}
}
