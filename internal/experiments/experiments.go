// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5) over the synthetic workload suites. Each function
// prints the same rows/series the paper reports; cmd/tsvd-bench and the
// top-level benchmarks are thin wrappers around it.
//
// Absolute numbers differ from the paper — the substrate is a synthetic
// workload at millisecond scale, not Microsoft's test fleet — but the
// shapes are the reproduction target: who finds more bugs, who pays more
// overhead, where the parameter sweet spots sit.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/workload"
)

// Params sizes the experiments. Defaults keep a full regeneration within
// minutes; the paper's scale is reached by raising the module counts.
type Params struct {
	// Scale is the TimeScale applied to all detector durations
	// (0.02 → 2ms delays and windows).
	Scale float64
	// Seed generates the suites.
	Seed int64
	// SmallModules sizes the Small-benchmark analogue (paper: 1000).
	SmallModules int
	// LargeModules sizes the Large-benchmark analogue (paper: ~43K).
	LargeModules int
	// Fig8Modules sizes the many-runs experiment's suite.
	Fig8Modules int
	// Fig8Runs is the number of accumulated runs (paper: 50).
	Fig8Runs int
	// Parallelism is modules-in-flight (paper: 10).
	Parallelism int
}

// parallelismForHost returns ~1.25 modules per hardware thread, the
// paper's ratio (10 modules on 8 threads).
func parallelismForHost() int {
	p := runtime.NumCPU() + runtime.NumCPU()/4
	if p < 1 {
		p = 1
	}
	return p
}

// DefaultParams returns the harness-scale defaults.
func DefaultParams() Params {
	return Params{
		Scale:        0.02,
		Seed:         2019, // SOSP '19
		SmallModules: 100,
		LargeModules: 600,
		Fig8Modules:  60,
		Fig8Runs:     50,
		// The paper runs 10 modules at a time on an 8-thread server
		// (§5.1) — about one module per hardware thread, so that module
		// wall times reflect the detector, not CPU queueing. Scale the
		// same ratio to this machine.
		Parallelism: parallelismForHost(),
	}
}

func (p Params) cfg(algo config.Algorithm) config.Config {
	return config.Defaults(algo).Scaled(p.Scale)
}

func (p Params) opts(algo config.Algorithm, runs int) harness.Options {
	return harness.Options{
		Config:      p.cfg(algo),
		Runs:        runs,
		Parallelism: p.Parallelism,
		RunSeedBase: harness.Seed(p.Seed * 31),
	}
}

// techniques are Table 2's rows, in the paper's order.
func techniques() []config.Algorithm {
	return []config.Algorithm{
		config.AlgoStaticRandom, // "DataCollider"
		config.AlgoDynamicRandom,
		config.AlgoTSVDHB,
		config.AlgoTSVD,
	}
}

// Table1 reproduces the bug-population summary over the Large suite under
// TSVD (two runs), including the bug-property percentages.
func Table1(p Params, w io.Writer) {
	suite := workload.GenerateSuite(p.Seed, p.LargeModules)
	out := harness.Run(suite, p.opts(config.AlgoTSVD, 2))
	planted := suite.PlantedPairs()

	var sameLoc, readWrite, async, dict, list int
	for pair := range out.FoundBugs {
		b := planted[pair]
		if b.SameLocation {
			sameLoc++
		}
		if b.ReadWrite {
			readWrite++
		}
		if b.Async {
			async++
		}
		switch b.Class {
		case "Dictionary":
			dict++
		case "List":
			list++
		}
	}
	found := out.TotalFound()
	bugs := map[report.PairKey]bool{}
	for pair := range out.FoundBugs {
		bugs[pair] = true
	}
	var occTotal, spTotal int
	var occs []int
	var depthSum, depthN int
	for _, b := range out.Reports.Bugs() {
		if !bugs[b.Key] {
			continue
		}
		occTotal += b.Occurrences
		spTotal += b.StackPairs
		occs = append(occs, b.Occurrences)
		depthSum += harness.StackDepthOf(b.First.Trapped.Stack)
		depthSum += harness.StackDepthOf(b.First.Conflicting.Stack)
		depthN += 2
	}
	sort.Ints(occs)

	fmt.Fprintf(w, "Table 1: Summary of bugs found by TSVD (Large suite analogue)\n")
	fmt.Fprintf(w, "Test targets\n")
	fmt.Fprintf(w, "  # of test modules            %d\n", len(suite.Modules))
	fmt.Fprintf(w, "  # of planted TSVs            %d\n", suite.TotalPlantedBugs())
	fmt.Fprintf(w, "Bugs found\n")
	fmt.Fprintf(w, "  # of unique bugs (loc pairs) %d\n", found)
	fmt.Fprintf(w, "  # of unique bug locations    %d\n", uniqueLocations(out.FoundBugs))
	fmt.Fprintf(w, "  # of unique stack trace prs  %d\n", spTotal)
	fmt.Fprintf(w, "  %% of modules with bugs       %.1f%%\n",
		pct(out.ModulesWithBugs, len(suite.Modules)))
	fmt.Fprintf(w, "Bug properties (of found bugs)\n")
	fmt.Fprintf(w, "  %% read-write bugs            %.0f%%\n", pct(readWrite, found))
	fmt.Fprintf(w, "  %% same-location bugs         %.0f%%\n", pct(sameLoc, found))
	fmt.Fprintf(w, "  %% bugs in async code         %.0f%%\n", pct(async, found))
	fmt.Fprintf(w, "  avg (median) occ. of a bug   %.1f (%d)\n",
		avg(occTotal, found), median(occs))
	fmt.Fprintf(w, "  avg stack pairs per bug      %.1f\n", avg(spTotal, found))
	fmt.Fprintf(w, "  avg stack depth              %.1f\n", avg(depthSum, depthN))
	fmt.Fprintf(w, "  %% Dictionary bugs            %.0f%%\n", pct(dict, found))
	fmt.Fprintf(w, "  %% List bugs                  %.0f%%\n", pct(list, found))
}

// Table2 compares the four techniques over the Small suite: bugs in run 1
// and run 2, overhead against the uninstrumented baseline, and delay count.
func Table2(p Params, w io.Writer) {
	fmt.Fprintf(w, "Table 2: Comparing TSVD with other detection techniques\n")
	fmt.Fprintf(w, "%-15s %6s %6s %6s %9s %9s\n",
		"technique", "total", "run1", "run2", "overhead", "#delay")
	rows, planted, base := table2Rows(p)
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %6d %6d %6d %8.0f%% %9d\n",
			r.algo.String(), r.total, r.run1, r.run2, r.overhead, r.delays)
	}
	fmt.Fprintf(w, "(planted bugs in suite: %d; baseline per run: %v)\n",
		planted, base.Round(time.Millisecond))
}

// table2Row is one technique's Table 2 row; overhead is in percent.
type table2Row struct {
	algo                      config.Algorithm
	total, run1, run2, delays int
	overhead                  float64
}

// table2Rows runs Table 2 on the Small suite of p.Seed: a row a technique,
// the suite's planted bugs and its baseline wall time per run.
func table2Rows(p Params) ([]table2Row, int, time.Duration) {
	suite := workload.GenerateSuite(p.Seed, p.SmallModules)
	base := harness.Baseline(suite, p.opts(config.AlgoTSVD, 1))
	var rows []table2Row
	for _, algo := range techniques() {
		out := harness.Run(suite, p.opts(algo, 2))
		rows = append(rows, table2Row{
			algo: algo, total: out.TotalFound(),
			run1: out.NewBugsByRun[0], run2: out.NewBugsByRun[1],
			overhead: 100 * harness.Overhead(out.WallTime, 2*base),
			delays:   int(out.Stats.DelaysInjected),
		})
	}
	return rows, suite.TotalPlantedBugs(), base
}

// Table2Seeds runs Table 2 once a suite seed: the rows of each seed, then for
// each technique the range of its bugs, overhead and delays over the seeds,
// and its per-seed differences to TSVD's row of the same seed.
func Table2Seeds(p Params, seeds []int64, w io.Writer) {
	fmt.Fprintf(w, "Table 2 over %d suite seeds (%d modules each)\n", len(seeds), p.SmallModules)
	fmt.Fprintf(w, "%5s %-15s %6s %6s %6s %9s %9s %8s\n",
		"seed", "technique", "total", "run1", "run2", "overhead", "#delay", "planted")
	bySeed := make([][]table2Row, len(seeds))
	for i, seed := range seeds {
		p.Seed = seed
		rows, planted, _ := table2Rows(p)
		for _, r := range rows {
			fmt.Fprintf(w, "%5d %-15s %6d %6d %6d %8.0f%% %9d %8d\n",
				seed, r.algo.String(), r.total, r.run1, r.run2, r.overhead, r.delays, planted)
		}
		bySeed[i] = rows
	}
	tsvd := len(techniques()) - 1 // TSVD is the last row
	fmt.Fprintf(w, "\nPer technique over the seeds: bugs total (min–max), overhead min–max, #delay min–max\n")
	for k, algo := range techniques() {
		var bugs, over, delays []float64
		for _, rows := range bySeed {
			bugs = append(bugs, float64(rows[k].total))
			over = append(over, rows[k].overhead)
			delays = append(delays, float64(rows[k].delays))
		}
		fmt.Fprintf(w, "%-15s bugs %4.0f (%s)  overhead %s %%  #delay %s\n",
			algo.String(), sum(bugs), span(bugs, "%.0f"), span(over, "%.0f"), span(delays, "%.0f"))
	}
	fmt.Fprintf(w, "\nPaired differences, technique minus TSVD, seed by seed\n")
	for k, algo := range techniques() {
		if k == tsvd {
			continue
		}
		var bugs, over, delays []float64
		for _, rows := range bySeed {
			bugs = append(bugs, float64(rows[k].total-rows[tsvd].total))
			over = append(over, rows[k].overhead-rows[tsvd].overhead)
			delays = append(delays, float64(rows[k].delays-rows[tsvd].delays))
		}
		fmt.Fprintf(w, "%-15s bugs %s (%s, sum %+.0f)\n", algo.String(), list(bugs, "%+.0f"), span(bugs, "%+.0f"), sum(bugs))
		fmt.Fprintf(w, "%-15s overhead pp %s (%s, lower on %d of %d)\n", "", list(over, "%+.0f"), span(over, "%+.0f"), below(over), len(over))
		fmt.Fprintf(w, "%-15s #delay %s (%s, lower on %d of %d)\n", "", list(delays, "%+.0f"), span(delays, "%+.0f"), below(delays), len(delays))
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// span renders the range of xs as "min–max".
func span(xs []float64, f string) string {
	lo, hi := slices.Min(xs), slices.Max(xs)
	return fmt.Sprintf(f+"–"+f, lo, hi)
}

// list renders xs space-separated.
func list(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}

// below counts the negative entries of xs.
func below(xs []float64) int {
	n := 0
	for _, x := range xs {
		if x < 0 {
			n++
		}
	}
	return n
}

// Figure8 accumulates unique bugs over many runs per technique and then
// categorizes TSVD's remaining false negatives as §5.3 does.
func Figure8(p Params, w io.Writer) {
	suite := workload.GenerateSuite(p.Seed, p.Fig8Modules)
	fmt.Fprintf(w, "Figure 8: Number of bugs found after more runs (suite: %d modules, %d planted)\n",
		p.Fig8Modules, suite.TotalPlantedBugs())
	fmt.Fprintf(w, "%-15s", "run")
	for _, algo := range techniques() {
		fmt.Fprintf(w, " %13s", algo.String())
	}
	fmt.Fprintln(w)

	cumulative := map[config.Algorithm][]int{}
	outcomes := map[config.Algorithm]*harness.Outcome{}
	for _, algo := range techniques() {
		out := harness.Run(suite, p.opts(algo, p.Fig8Runs))
		outcomes[algo] = out
		cum := 0
		for _, n := range out.NewBugsByRun {
			cum += n
			cumulative[algo] = append(cumulative[algo], cum)
		}
	}
	for run := 0; run < p.Fig8Runs; run++ {
		fmt.Fprintf(w, "%-15d", run+1)
		for _, algo := range techniques() {
			fmt.Fprintf(w, " %13d", cumulative[algo][run])
		}
		fmt.Fprintln(w)
	}

	// §5.3 false-negative categorization for TSVD: planted bugs missed at
	// the paper's two-run budget and after all accumulated runs, by kind.
	tsvd := outcomes[config.AlgoTSVD]
	for _, horizon := range []int{2, p.Fig8Runs} {
		missed := map[workload.BugKind]int{}
		total := 0
		for pair, b := range suite.PlantedPairs() {
			run, found := tsvd.FoundBugs[pair]
			if !found || run > horizon {
				missed[b.Kind]++
				total++
			}
		}
		fmt.Fprintf(w, "\nTSVD false negatives after %d run(s), by category (§5.3): %d\n",
			horizon, total)
		for _, k := range []workload.BugKind{
			workload.BugRare, workload.BugHBShadowed, workload.BugMarginal,
			workload.BugHot, workload.BugAsync, workload.BugCold, workload.BugNoise,
		} {
			if missed[k] > 0 {
				fmt.Fprintf(w, "  %-12s %d\n", k, missed[k])
			}
		}
	}
}

// Table3 removes one TSVD technique at a time (§5.4's ablation).
func Table3(p Params, w io.Writer) {
	suite := workload.GenerateSuite(p.Seed, p.SmallModules)
	base := harness.Baseline(suite, p.opts(config.AlgoTSVD, 1))

	rows := []struct {
		name   string
		mutate func(*config.Config)
	}{
		{"TSVD", func(*config.Config) {}},
		{"No HB-inference", func(c *config.Config) { c.DisableHBInference = true }},
		{"No windowing", func(c *config.Config) { c.DisableNearMissWindow = true }},
		{"No phase detection", func(c *config.Config) { c.DisablePhaseDetection = true }},
	}
	fmt.Fprintf(w, "Table 3: Removing one technique at a time from TSVD\n")
	fmt.Fprintf(w, "%-20s %6s %6s %6s %9s %9s\n",
		"variant", "total", "run1", "run2", "overhead", "#delay")
	for _, row := range rows {
		o := p.opts(config.AlgoTSVD, 2)
		row.mutate(&o.Config)
		out := harness.Run(suite, o)
		fmt.Fprintf(w, "%-20s %6d %6d %6d %8.0f%% %9d\n",
			row.name, out.TotalFound(),
			out.NewBugsByRun[0], out.NewBugsByRun[1],
			100*harness.Overhead(out.WallTime, 2*base),
			out.Stats.DelaysInjected)
	}
}

func uniqueLocations(found map[report.PairKey]int) int {
	locs := map[uint64]bool{}
	for pair := range found {
		locs[uint64(pair.A)] = true
		locs[uint64(pair.B)] = true
	}
	return len(locs)
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

func avg(sum, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func median(sorted []int) int {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)/2]
}
