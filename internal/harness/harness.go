// Package harness executes workload suites under detector configurations
// and aggregates the measurements the paper's evaluation reports: unique
// bugs per run, runtime overhead against an uninstrumented baseline, delay
// counts, and the Table-1 population statistics. Modules run Parallelism at
// a time — the paper runs 10 modules at a time on its small server (§5.1) —
// each module run on a detector as fresh as a new one, matching the
// deployment model of one instrumented test process per module: a worker
// renews its detector in place (core.Renew) from module to module.
package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sampler"
	"repro/internal/sites"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/trapfile"
	"repro/internal/trapstore"
	"repro/internal/triage"
	"repro/internal/workload"
)

// Options configures one suite execution.
type Options struct {
	// Config is the detector configuration (algorithm, parameters,
	// TimeScale).
	Config config.Config
	// Runs is the number of consecutive runs; trap sets persist between
	// runs per module (§3.4.6). Zero means the default of 1 — a zero-run
	// suite measures nothing, so the zero value cannot be meant literally.
	Runs int
	// RunSeedBase varies workload schedule randomness per run. nil means
	// the default base (42); an explicit pointer — obtained from Seed — is
	// used verbatim, so every seed value, including zero, is reproducible.
	// (A plain int64 could not distinguish "unset" from an explicit zero.)
	RunSeedBase *int64
	// Parallelism is the number of modules in flight at once. Zero means
	// the paper's default of 10 (§5.1) — zero in-flight modules would
	// deadlock, so, like Runs, the zero value cannot be meant literally.
	Parallelism int
	// InlineFastAsync emulates the CLR fast-async optimization instead of
	// TSVD's force-async instrumentation (§4). Default false applies
	// force-async uniformly, as the paper does for every technique.
	InlineFastAsync bool
	// Store, when non-nil, is the run's trap store — a local trap file that
	// carries the set to the next process (§3.4.6), or one shared across
	// concurrent shards (fleet mode): before each run the harness
	// fetches the store's pairs and seeds every module with them, and after
	// each run it publishes the union of the per-module trap sets. Store
	// errors never abort the suite — they accumulate in Outcome.StoreErr
	// for the caller to classify (a trapstore.Fallback already degrades
	// around an unreachable daemon, so errors here are data errors or an
	// unreachable store with no local fallback).
	Store trapstore.TrapStore
	// Metrics, when non-nil, attaches every module detector of the suite to
	// one live metrics view (core.NewDetectorMetrics), so a registry scrape
	// mid-suite reports the suite-wide counters while modules are still
	// running.
	Metrics *core.DetectorMetrics
	// Triage, when non-nil, receives the whole suite execution as one
	// triage unit when Run returns: every raw violation folds into its
	// signature cluster and the drained traces feed opportunity accounting
	// and explanation slices (internal/triage). Shared safely across
	// concurrent Run calls — RunFleet attaches one Triage to every shard.
	Triage *triage.Triage
	// TriageProvenance labels the unit Triage receives (shard, round, seed,
	// mode, source). Zero-valued fields are filled from Config where
	// possible (Seed, Mode).
	TriageProvenance triage.Provenance
	// Progress, when non-nil, receives a heartbeat every second while the
	// suite runs, plus one final update after the last module completes.
	// Updates are delivered sequentially, never concurrently; the callback
	// must not call back into the harness.
	Progress func(ProgressUpdate)

	// sampler is the one sampler every module detector of a Run draws on
	// (nil outside config.ModeSampled).
	sampler *core.SharedSampler
}

// Seed wraps an explicit run-seed base. harness.Seed(0) is a real,
// reproducible choice; leaving RunSeedBase nil selects the default.
func Seed(v int64) *int64 { return &v }

func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		o.Runs = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 10
	}
	if o.RunSeedBase == nil {
		o.RunSeedBase = Seed(42)
	}
	return o
}

// runSeedBase is the post-defaults accessor; withDefaults guarantees non-nil.
func (o Options) runSeedBase() int64 { return *o.RunSeedBase }

// Outcome aggregates one suite execution.
type Outcome struct {
	Algo config.Algorithm

	// FoundBugs maps each detected planted bug to the 1-based run in
	// which it was first caught.
	FoundBugs map[report.PairKey]int
	// NewBugsByRun[i] counts planted bugs first found in run i+1.
	NewBugsByRun []int
	// UnknownPairs are reported pairs absent from ground truth. The
	// workload is constructed so this must stay empty — reported bugs are
	// caught red-handed, and every truly racy pair is planted.
	UnknownPairs []report.PairKey

	// WallTime sums module durations across runs (server-time model).
	WallTime time.Duration
	// Stats sums detector counters across modules and runs.
	Stats core.Stats
	// Reports merges every module's violations (Table 1 statistics).
	Reports *report.Collector
	// ModulesWithBugs counts modules where at least one bug was found.
	ModulesWithBugs int
	// Panics counts test-body panics (all recovered).
	Panics int
	// FinalTraps is the union of every module's dangerous pairs after the
	// last run — the contents of the next trap file.
	FinalTraps []report.PairKey
	// StoreErr joins every error Options.Store returned during the suite
	// (nil when no store was configured or every operation succeeded). The
	// suite itself always runs to completion; callers classify the error
	// with errors.Is (trapfile.ErrCorrupt, trapstore.ErrUnavailable).
	StoreErr error

	// Traces holds each module run's drained event trace, in completion
	// order, when Config.Trace is enabled (empty otherwise). Each detector
	// is drained once, right after its module run finishes, so a
	// default-sized buffer never drops events.
	Traces []trace.ModuleTrace
	// TraceTotals sums the tracers' loss accounting across all module runs;
	// TraceTotals.Dropped must be zero for the trace to reconcile with
	// Stats.
	TraceTotals trace.Totals
	// Overhead is the sampler's account of the whole execution in
	// config.ModeSampled — one sampler is shared by every module detector of
	// a Run, so the overhead target is a budget for the suite, not for each
	// module's first interval: probability reached, time charged by layer,
	// the controller's last belief. Zero in other modes.
	Overhead sampler.Snapshot
	// Sites is the suite-wide site registry every module detector interned
	// into (Run ensures one shared registry when Config.Sites is nil), so
	// trace serialization resolves consistent site ids across modules.
	Sites *sites.Registry
}

// FoundByKind tallies found planted bugs by kind.
func (o *Outcome) FoundByKind(suite *workload.Suite) map[workload.BugKind]int {
	planted := suite.PlantedPairs()
	out := map[workload.BugKind]int{}
	for pair := range o.FoundBugs {
		if b, ok := planted[pair]; ok {
			out[b.Kind]++
		}
	}
	return out
}

// TotalFound is the number of unique planted bugs detected.
func (o *Outcome) TotalFound() int { return len(o.FoundBugs) }

// timing derives the workload pacing from the detector configuration: the
// pace is a quarter of the near-miss window so looped conflicting accesses
// reliably near-miss, and test deadlines leave room for injected delays.
type timing struct {
	pace  time.Duration
	delay time.Duration
}

func timingFor(cfg config.Config) timing {
	pace := cfg.EffectiveNearMissWindow() / 4
	if pace < 200*time.Microsecond {
		pace = 200 * time.Microsecond
	}
	return timing{pace: pace, delay: cfg.EffectiveDelay()}
}

// Baseline measures the suite uninstrumented (Nop detector): the
// denominator of every overhead figure.
func Baseline(suite *workload.Suite, opts Options) time.Duration {
	opts = opts.withDefaults()
	cfg := opts.Config
	cfg.Algorithm = config.AlgoNop
	o := runSuite(suite, opts, cfg, nil, 1, nil, make([]worker, opts.Parallelism))
	return o.WallTime
}

// Run executes the suite under opts.Config for opts.Runs consecutive runs,
// carrying each module's trap set forward between runs.
func Run(suite *workload.Suite, opts Options) *Outcome {
	opts = opts.withDefaults()
	if opts.Config.Sites == nil {
		// One registry for the whole suite: module detectors intern into the
		// same table, so merged traces and reports resolve one consistent
		// set of site ids.
		opts.Config.Sites = sites.New()
	}
	out := &Outcome{
		Algo:      opts.Config.Algorithm,
		FoundBugs: map[report.PairKey]int{},
		Reports:   report.NewCollector(),
		Sites:     opts.Config.Sites,
	}
	opts.sampler = core.NewSharedSampler(opts.Config)
	planted := suite.PlantedPairs()
	modulesWithFound := map[string]bool{}
	prog := newProgressTracker(opts.Progress, time.Second, opts.Runs, len(suite.Modules))
	defer prog.finish()

	traps := make([][]report.PairKey, len(suite.Modules))
	workers := make([]worker, opts.Parallelism)
	for run := 1; run <= opts.Runs; run++ {
		prog.startRun(run)
		if opts.Store != nil {
			// Seed this run from everything the fleet has found so far.
			f, err := opts.Store.Fetch()
			if err != nil {
				out.StoreErr = errors.Join(out.StoreErr, err)
			} else {
				// Re-intern the fetched site table so this run resolves
				// API metadata for pairs whose sites it has not executed
				// yet (the trap-file analogue of trapfile.LoadSeed).
				for _, t := range f.Sites {
					opts.Config.Sites.Intern(t)
				}
				if len(f.Pairs) > 0 {
					seed := trapfile.ToKeys(f.Pairs)
					for mi := range traps {
						traps[mi] = unionKeys(traps[mi], seed)
					}
				}
			}
		}
		ro := runSuite(suite, opts, opts.Config, traps, run, prog, workers)
		out.WallTime += ro.WallTime
		out.Stats.Add(ro.Stats)
		out.Panics += ro.Panics
		out.Reports.Merge(ro.Reports)
		out.Traces = append(out.Traces, ro.Traces...)
		out.TraceTotals.Emitted += ro.TraceTotals.Emitted
		out.TraceTotals.Dropped += ro.TraceTotals.Dropped
		out.TraceTotals.Buffered += ro.TraceTotals.Buffered

		newBugs := 0
		for _, bug := range ro.Reports.Bugs() {
			pair := bug.Key
			if _, known := planted[pair]; !known {
				out.UnknownPairs = append(out.UnknownPairs, pair)
				continue
			}
			if _, seen := out.FoundBugs[pair]; !seen {
				out.FoundBugs[pair] = run
				newBugs++
			}
		}
		for name, found := range ro.modulesFound {
			if found {
				modulesWithFound[name] = true
			}
		}
		out.NewBugsByRun = append(out.NewBugsByRun, newBugs)

		if opts.Store != nil {
			// Hand this run's discoveries to the fleet, site table included,
			// so a shard seeded from the store can resolve API metadata for
			// call sites it has not executed yet.
			f := trapfile.NewWithSites(opts.Config.Algorithm.String(), unionTraps(traps), opts.Config.Sites)
			if err := opts.Store.Publish(f); err != nil {
				out.StoreErr = errors.Join(out.StoreErr, err)
			}
		}
	}
	out.ModulesWithBugs = len(modulesWithFound)
	out.FinalTraps = unionTraps(traps)
	out.Overhead = opts.sampler.Snapshot()
	if opts.Triage != nil {
		prov := opts.TriageProvenance
		if prov.Seed == 0 {
			prov.Seed = opts.Config.Seed
		}
		if prov.Mode == "" {
			prov.Mode = opts.Config.Mode.String()
		}
		opts.Triage.AddRun(out.Reports, out.Traces, prov)
	}
	return out
}

// unionTraps flattens the per-module trap slots into one deduplicated set.
func unionTraps(traps [][]report.PairKey) []report.PairKey {
	var out []report.PairKey
	seen := map[report.PairKey]bool{}
	for _, pairs := range traps {
		for _, p := range pairs {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// unionKeys appends the members of add that cur lacks.
func unionKeys(cur, add []report.PairKey) []report.PairKey {
	seen := make(map[report.PairKey]bool, len(cur))
	for _, p := range cur {
		seen[p] = true
	}
	for _, p := range add {
		if !seen[p] {
			seen[p] = true
			cur = append(cur, p)
		}
	}
	return cur
}

// runResult is one run over the whole suite.
type runResult struct {
	WallTime     time.Duration
	Stats        core.Stats
	Reports      *report.Collector
	Panics       int
	modulesFound map[string]bool
	Traces       []trace.ModuleTrace
	TraceTotals  trace.Totals
}

// worker is what one of runSuite's workers keeps from module to module, and
// from run to run of one Run: its detector and its math/rand source.
type worker struct {
	det core.Detector
	rng *rand.Rand
}

// runSuite executes every module once. traps, when non-nil, is the per-
// module trap persistence slot (read before, written after). run is the
// 1-based run number.
//
// The workers, one for each of Parallelism modules in flight, take the
// modules in order. A worker renews its detector (core.Renew) for each
// module it takes, before the module's clock starts: once a module has ended
// — every task idle, every goroutine its tests spawned joined — nothing holds
// the detector any more. A test body that panics may leave goroutines behind
// that still call it, so after a module with a panic the worker lets its
// detector go and the next module gets a new one.
func runSuite(suite *workload.Suite, opts Options, cfg config.Config,
	traps [][]report.PairKey, run int, prog *progressTracker, workers []worker) *runResult {

	res := &runResult{Reports: report.NewCollector(), modulesFound: map[string]bool{}}
	tm := timingFor(cfg)

	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers[:min(len(workers), len(suite.Modules))] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := &workers[w]
			detOpts := make([]core.Option, 0, 3)
			if opts.Metrics != nil {
				detOpts = append(detOpts, core.WithDetectorMetrics(opts.Metrics))
			}
			detOpts = append(detOpts, core.WithSharedSampler(opts.sampler))
			// One source for the worker, reseeded per test: a test draws the
			// same sequence a source of its own would give it, and Env.Rng is
			// only ever used from the test's main goroutine, so tests never
			// share it.
			if wk.rng == nil {
				wk.rng = rand.New(rand.NewSource(0))
			}
			det := wk.det
			defer func() { wk.det = det }()
			for mi := int(next.Add(1) - 1); mi < len(suite.Modules); mi = int(next.Add(1) - 1) {
				mod := suite.Modules[mi]

				mcfg := cfg
				mcfg.Seed = cfg.Seed + int64(mi)*1009 + int64(run)*7919
				modOpts := detOpts
				if traps != nil && len(traps[mi]) > 0 {
					modOpts = append(detOpts, core.WithInitialTraps(traps[mi]))
				}
				var err error
				det, err = core.Renew(det, mcfg, modOpts...)
				if err != nil {
					panic(fmt.Sprintf("harness: detector config invalid: %v", err))
				}

				schedOpts := []task.SchedulerOption{task.WithForceAsync()}
				if opts.InlineFastAsync {
					// "Fast" scales with the workload pace: anything under
					// ~20 pace units is a fast mock by this suite's measure.
					schedOpts = []task.SchedulerOption{
						task.WithInlineFastTasks(),
						task.WithInlineThreshold(20 * tm.pace),
					}
				}
				schedDet := det
				if _, isNop := det.(*core.NopDetector); isNop {
					schedDet = nil // baseline: no monitoring cost at all
				}
				sched := task.NewScheduler(schedDet, schedOpts...)

				start := time.Now()
				panics := runModule(mod, det, sched, opts, tm, wk.rng, mi, run)
				sched.WaitIdle()
				dur := time.Since(start)

				mu.Lock()
				res.WallTime += dur
				res.Stats.Add(det.Stats())
				res.Panics += panics
				res.modulesFound[mod.Name] = det.Reports().UniqueBugs() > 0
				res.Reports.Merge(det.Reports())
				if traps != nil {
					traps[mi] = det.ExportTraps()
				}
				if tr := det.Tracer(); tr != nil {
					// One drain per module run, after it is fully idle: the
					// buffer is sized to hold a whole run, so this is the
					// loss-free path reconciliation depends on.
					events := tr.Drain()
					tot := tr.Totals()
					res.Traces = append(res.Traces, trace.ModuleTrace{
						Module: mod.Name, Run: run, Events: events,
						Emitted: tot.Emitted, Dropped: tot.Dropped,
					})
					res.TraceTotals.Emitted += tot.Emitted
					res.TraceTotals.Dropped += tot.Dropped
					res.TraceTotals.Buffered += tot.Buffered
				}
				if prog != nil {
					bugs := det.Reports().Bugs()
					keys := make([]report.PairKey, len(bugs))
					for i, b := range bugs {
						keys[i] = b.Key
					}
					prog.moduleDone(det.Stats().DelaysInjected, keys)
				}
				mu.Unlock()
				if moduleRan != nil {
					moduleRan(w, det, panics)
				}
				if panics > 0 {
					det = nil
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// moduleRan, when set, is called by a worker after each module run it has
// folded into the run's result, with the worker's index, the detector the
// module ran on and the panics it counted. Tests set it before Run.
var moduleRan func(worker int, det core.Detector, panics int)

// runModule executes the module's tests sequentially, as a test runner
// does, recovering from test-body panics. rng is the worker's source.
func runModule(mod *workload.Module, det core.Detector, sched *task.Scheduler,
	opts Options, tm timing, rng *rand.Rand, mi, run int) int {

	panics := 0
	for ti, test := range mod.Tests {
		// The baseline is truly uninstrumented: a nil detector skips the
		// OnCall prologue entirely, like running the original binary.
		envDet := det
		if _, isNop := det.(*core.NopDetector); isNop {
			envDet = nil
		}
		rng.Seed(opts.runSeedBase() + int64(run)*1_000_003 + int64(mi)*10_007 + int64(ti))
		env := &workload.Env{
			Det:   envDet,
			Sched: sched,
			Rng:   rng,
			Pace:  tm.pace,
			Delay: tm.delay,
			Deadline: time.Now().
				Add(time.Duration(3*test.NominalUnits*float64(tm.pace)) + 12*tm.delay),
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					panics++
				}
			}()
			test.Body(env)
		}()
	}
	return panics
}

// Overhead computes the relative slowdown of measured against baseline.
func Overhead(measured, baseline time.Duration) float64 {
	if baseline <= 0 {
		return 0
	}
	return float64(measured-baseline) / float64(baseline)
}

// StackDepthOf counts frames in a captured stack (two lines per frame).
func StackDepthOf(stack string) int {
	n := 0
	for _, c := range stack {
		if c == '\n' {
			n++
		}
	}
	return n / 2
}
