package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/scenarios"
	"repro/internal/trapstore"
	"repro/internal/workload"
)

// Table4 runs the nine open-source scenarios (§5.7) under TSVD with the
// paper's default parameters (time-scaled) and prints the Table-4 row
// shape: tests, runs used, TSVs found, overhead.
func Table4(p Params, w io.Writer) {
	// Scenario tests pace at 2ms, so run with a 40ms window/20ms delay.
	cfg := config.Defaults(config.AlgoTSVD).Scaled(0.4)
	fmt.Fprintf(w, "Table 4: TSVD results on open-source-modeled projects\n")
	fmt.Fprintf(w, "%-22s %7s %6s %6s %9s\n", "project", "#tests", "#run", "#TSV", "overhead")
	for _, s := range scenarios.All() {
		out, err := scenarios.Run(s, cfg, 2)
		if err != nil {
			fmt.Fprintf(w, "%-22s error: %v\n", s.Name, err)
			continue
		}
		fmt.Fprintf(w, "%-22s %7d %6d %6d %8.1f%%\n",
			out.Name, out.Tests, out.RunsUsed, out.TSVs, 100*out.Overhead)
	}
}

// ResourceUsage reproduces §5.5: memory and CPU cost of running with TSVD
// against the uninstrumented baseline, measured over the Small suite. Time
// is the summed module durations (what harness.Baseline reports), next to
// the delay the detector injected on purpose — the part of the slowdown that
// is the algorithm working rather than the detector costing.
func ResourceUsage(p Params, w io.Writer) {
	suite := workload.GenerateSuite(p.Seed, p.SmallModules)

	type usage struct {
		time, delay    time.Duration
		bytes, mallocs uint64
	}
	measure := func(run func() (time.Duration, time.Duration)) usage {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var u usage
		u.time, u.delay = run()
		runtime.ReadMemStats(&after)
		u.bytes, u.mallocs = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		return u
	}
	base := measure(func() (time.Duration, time.Duration) {
		return harness.Baseline(suite, p.opts(config.AlgoTSVD, 1)), 0
	})
	tsvd := measure(func() (time.Duration, time.Duration) {
		out := harness.Run(suite, p.opts(config.AlgoTSVD, 1))
		return out.WallTime, out.Stats.TotalDelay
	})

	fmt.Fprintf(w, "§5.5 resource usage over the Small suite (one run)\n")
	fmt.Fprintf(w, "%-14s %12s %15s %11s %10s\n", "config", "module time", "injected delay", "bytes", "mallocs")
	row := func(name string, u usage) {
		fmt.Fprintf(w, "%-14s %12v %15v %10dK %10d\n", name,
			u.time.Round(time.Millisecond), u.delay.Round(time.Millisecond), u.bytes/1024, u.mallocs)
	}
	row("baseline", base)
	row("TSVD", tsvd)
	if base.time <= 0 || base.bytes == 0 || base.mallocs == 0 {
		return
	}
	fmt.Fprintf(w, "%-14s %11.2fx %15s %10.2fx %9.2fx\n", "TSVD/baseline",
		float64(tsvd.time)/float64(base.time), "",
		float64(tsvd.bytes)/float64(base.bytes), float64(tsvd.mallocs)/float64(base.mallocs))
	fmt.Fprintf(w, "time added: %v; delay injected: %v (summed over threads, whose delays overlap)\n",
		(tsvd.time - base.time).Round(time.Millisecond), tsvd.delay.Round(time.Millisecond))
	fmt.Fprintf(w, "allocation increase: %+.0f%% bytes, %+.0f%% mallocs\n",
		100*(float64(tsvd.bytes)/float64(base.bytes)-1), 100*(float64(tsvd.mallocs)/float64(base.mallocs)-1))
}

// AsyncInlining reproduces the §4 observation: with the CLR-style
// fast-async inlining emulation enabled (and TSVD's force-async
// instrumentation therefore absent), async bugs hide.
func AsyncInlining(p Params, w io.Writer) {
	suite := workload.GenerateSuite(p.Seed, p.SmallModules)
	planted := suite.BugsByKind()

	forced := harness.Run(suite, p.opts(config.AlgoTSVD, 2))
	inlineOpts := p.opts(config.AlgoTSVD, 2)
	inlineOpts.InlineFastAsync = true
	inlined := harness.Run(suite, inlineOpts)

	fmt.Fprintf(w, "§4 async-inlining ablation (async bugs planted: %d)\n",
		planted[workload.BugAsync])
	fmt.Fprintf(w, "%-28s %11s %10s\n", "scheduler mode", "async bugs", "all bugs")
	fmt.Fprintf(w, "%-28s %11d %10d\n", "force-async (TSVD's §4 fix)",
		forced.FoundByKind(suite)[workload.BugAsync], forced.TotalFound())
	fmt.Fprintf(w, "%-28s %11d %10d\n", "CLR fast-async inlining",
		inlined.FoundByKind(suite)[workload.BugAsync], inlined.TotalFound())
}

// DelayOverlap reproduces the §3.4.6 design discussion: suppressing
// overlapping delays finds fewer bugs under the same budget.
func DelayOverlap(p Params, w io.Writer) {
	suite := workload.GenerateSuite(p.Seed, p.SmallModules)
	aggressive := harness.Run(suite, p.opts(config.AlgoTSVD, 2))
	avoidOpts := p.opts(config.AlgoTSVD, 2)
	avoidOpts.Config.AvoidOverlappingDelays = true
	avoiding := harness.Run(suite, avoidOpts)

	fmt.Fprintf(w, "§3.4.6 parallel delay injection ablation\n")
	fmt.Fprintf(w, "%-26s %6s %9s\n", "policy", "bugs", "#delay")
	fmt.Fprintf(w, "%-26s %6d %9d\n", "aggressive (TSVD)",
		aggressive.TotalFound(), aggressive.Stats.DelaysInjected)
	fmt.Fprintf(w, "%-26s %6d %9d\n", "avoid overlaps",
		avoiding.TotalFound(), avoiding.Stats.DelaysInjected)
}

// Fleet measures the tentpole of fleet mode: K shards sharing one trap
// store catch cold bugs (single-occurrence per run, §3.4.6's motivating
// class) within their very first round, because peers' publishes seed them
// before their own runs start; isolated shards must each spend a round
// learning the pairs themselves. Reported per shard count: distinct cold
// bugs the shard itself trapped within the budget.
func Fleet(p Params, w io.Writer) {
	// The cold-bug-rich suite (same seed the harness tests pin): enough
	// single-occurrence bugs that seeding is the only way to catch them.
	suite := workload.GenerateSuite(33, 120)
	planted := suite.BugsByKind()

	fmt.Fprintf(w, "fleet mode: shared trap store vs isolated shards (cold bugs planted: %d)\n",
		planted[workload.BugCold])
	fmt.Fprintf(w, "%-9s %7s %18s %18s %15s\n",
		"shards", "rounds", "cold catches", "fleet-wide bugs", "mean 1st round")
	for _, shards := range []int{2, 3, 4} {
		for _, rounds := range []int{1, 2} {
			shared := harness.RunFleet(suite, shards, rounds, p.opts(config.AlgoTSVD, 1),
				trapstore.NewMemory("TSVD", nil))
			isolated := harness.RunFleet(suite, shards, rounds, p.opts(config.AlgoTSVD, 1), nil)
			sm, _ := shared.MeanFirstBugRound()
			im, _ := isolated.MeanFirstBugRound()
			fmt.Fprintf(w, "%-9d %7d %8d vs %-7d %8d vs %-7d %6.2f vs %-5.2f\n",
				shards, rounds,
				shared.ColdCatches, isolated.ColdCatches,
				len(shared.Found), len(isolated.Found),
				sm, im)
		}
	}
	fmt.Fprintf(w, "(cold catches: per-shard distinct cold bugs, summed over shards;\n")
	fmt.Fprintf(w, " shared vs isolated store. Cold bugs need a seeded trap, so isolated\n")
	fmt.Fprintf(w, " shards catch none in round 1 by construction.)\n")
}

// Sampling measures the production sampling tier (docs/SAMPLING.md): the
// overhead-vs-recall trade across the three Config.Mode settings plus fixed
// and adaptive per-site probabilities. Overhead is wall time relative to an
// uninstrumented (Nop) baseline of the same suite; recall is planted bugs
// found. The interesting shape: fixed low probabilities shed overhead
// roughly linearly while hot-path bugs keep surfacing (hot sites get many
// chances even at 1% admission), and the adaptive controller lands near the
// fixed point that matches its target without hand-tuning.
func Sampling(p Params, w io.Writer) {
	suite := workload.GenerateSuite(p.Seed, p.Fig8Modules)
	planted := suite.PlantedPairs()

	const runs = 2
	base := harness.Baseline(suite, p.opts(config.AlgoTSVD, runs))

	type variant struct {
		name string
		mut  func(*config.Config)
	}
	variants := []variant{
		{"full", func(c *config.Config) {}},
		{"sampled p=1.00", func(c *config.Config) {
			c.Mode = config.ModeSampled
			c.SampleProbability = 1.0
		}},
		{"sampled p=0.10", func(c *config.Config) {
			c.Mode = config.ModeSampled
			c.SampleProbability = 0.10
		}},
		{"sampled p=0.01", func(c *config.Config) {
			c.Mode = config.ModeSampled
			c.SampleProbability = 0.01
		}},
		{"sampled auto 1%", func(c *config.Config) {
			c.Mode = config.ModeSampled
			c.OverheadTarget = 0.01
		}},
		{"observe-only", func(c *config.Config) {
			c.Mode = config.ModeObserveOnly
		}},
	}

	fmt.Fprintf(w, "production sampling tier: overhead vs recall (modules: %d, planted: %d, runs: %d)\n",
		len(suite.Modules), len(planted), runs)
	fmt.Fprintf(w, "%-16s %6s %8s %11s %12s %10s %9s %8s\n",
		"mode", "bugs", "#delay", "#suppress", "sampled-out", "overhead", "charged", "p-final")
	for _, v := range variants {
		opts := p.opts(config.AlgoTSVD, runs)
		v.mut(&opts.Config)
		out := harness.Run(suite, opts)
		sampledOut := 0.0
		if out.Stats.OnCalls > 0 {
			sampledOut = 100 * float64(out.Stats.CallsSampledOut) / float64(out.Stats.OnCalls)
		}
		overhead := 100 * (float64(out.WallTime)/float64(base.Nanoseconds()*runs) - 1)
		fmt.Fprintf(w, "%-16s %6d %8d %11d %11.1f%% %9.1f%%",
			v.name, out.TotalFound(), out.Stats.DelaysInjected,
			out.Stats.DelaysSuppressed, sampledOut, overhead)
		if opts.Config.Mode == config.ModeSampled {
			fmt.Fprintf(w, " %8.1f%% %8.4f", 100*float64(out.Overhead.Spent)/float64(base.Nanoseconds()*runs),
				out.Overhead.Probability)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(overhead: suite wall time vs an uninstrumented baseline, per run;\n")
	fmt.Fprintf(w, " charged: what the run's one sampler charged itself — rejected calls'\n")
	fmt.Fprintf(w, " floor, admitted calls' identity and analysis, injected delay — against\n")
	fmt.Fprintf(w, " the same baseline; p-final: the admission probability it ended at;\n")
	fmt.Fprintf(w, " sampled-out: OnCalls rejected by the admission gate. Red-handed trap\n")
	fmt.Fprintf(w, " checks run before the gate, so sampling trades delay budget — not\n")
	fmt.Fprintf(w, " soundness — for overhead; observe-only reaches every trap decision but\n")
	fmt.Fprintf(w, " never sleeps, bounding its recall to phase-free schedules.)\n")
}
