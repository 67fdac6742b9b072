// Command tsvd-run executes a generated workload suite under a chosen
// detection technique and prints the bug reports and statistics — the
// command-line face of the integrated build-and-test deployment the paper
// describes (§2.1).
//
// Usage:
//
//	tsvd-run -modules 50 -runs 2 -algo tsvd
//	tsvd-run -modules 20 -algo tsvdhb -v
//	tsvd-run -modules 5 -trace /tmp/trace-out
//	tsvd-run -modules 20 -triage /tmp/bugs-out
//	tsvd-run -modules 30 -trapfile traps.json -trap-server http://127.0.0.1:8321
//	tsvd-run -modules 50 -mode observe-only
//	tsvd-run -modules 50 -mode sampled -overhead-target 0.01
//
// -mode selects the production sampling tier (docs/SAMPLING.md): full is
// today's behavior, observe-only records near misses and logical trap
// firings without sleeping any thread, and sampled gates analysis through a
// per-site probability (-sample-probability, auto-throttled toward
// -overhead-target when one is set).
//
// The machine-readable bug report is -triage's bugs.json (one cluster per
// site pair, the id tsvd-triage gives the same bug from a -trace directory);
// -v prints each bug's two stacks and its distinct stack-pair count.
//
// With -trapfile the run seeds from and persists to a local trap file
// (§3.4.6); adding -trap-server joins a fleet: the run also fetches from and
// publishes to a tsvd-trapd daemon, degrading back to the local file alone
// when the daemon is unreachable (the run still exits 0 — fleet mode is an
// accelerant, never a point of failure).
//
// Exit status:
//
//	0 — success (including daemon unreachable but local trap file intact)
//	1 — the run failed, or reported pairs outside the suite's ground truth
//	    (a detector soundness regression)
//	2 — usage errors
//	3 — a corrupt trap file or trap-server payload (trapfile.ErrCorrupt)
//	4 — trap store unreachable with no local fallback (trapstore.ErrUnavailable)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/sampler"
	"repro/internal/trace"
	"repro/internal/trapstore"
	"repro/internal/triage"
	"repro/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		algoName   = flag.String("algo", "tsvd", "technique: tsvd, tsvdhb, dynamicrandom, datacollider")
		modules    = flag.Int("modules", 50, "number of generated modules")
		runs       = flag.Int("runs", 2, "consecutive runs (trap set persists between runs)")
		seed       = flag.Int64("seed", 2019, "suite seed")
		scale      = flag.Float64("scale", 0.02, "time scale (1.0 = the paper's 100ms delays)")
		verbose    = flag.Bool("v", false, "print a live progress heartbeat and each bug's two-sided report")
		trapsFile  = flag.String("trapfile", "", "local trap file to seed each run from and publish to (§3.4.6)")
		trapServer = flag.String("trap-server", "", "tsvd-trapd base URL to share traps with across shards (fleet mode)")
		traceDir   = flag.String("trace", "", "directory to write the detector event trace (events.jsonl, metrics.json, summary.json)")
		triageDir  = flag.String("triage", "", "directory to write the clustered bug-triage report (bugs.json, bugs.md); implies tracing")
		modeName   = flag.String("mode", "full", "sampling mode: full, sampled, observe-only (docs/SAMPLING.md)")
		sampleProb = flag.Float64("sample-probability", 1.0, "per-site admission probability in sampled mode")
		overhead   = flag.Float64("overhead-target", 0, "overhead fraction the sampler auto-throttles toward (0 = fixed probability)")
	)
	flag.Parse()

	algos := map[string]config.Algorithm{
		"tsvd":          config.AlgoTSVD,
		"tsvdhb":        config.AlgoTSVDHB,
		"dynamicrandom": config.AlgoDynamicRandom,
		"datacollider":  config.AlgoStaticRandom,
	}
	algo, ok := algos[*algoName]
	if !ok {
		fmt.Fprintf(os.Stderr, "tsvd-run: unknown algorithm %q\n", *algoName)
		return 2
	}

	mode, err := config.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsvd-run: %v\n", err)
		return 2
	}

	suite := workload.GenerateSuite(*seed, *modules)
	opts := harness.Options{
		Config: config.Defaults(algo).Scaled(*scale),
		Runs:   *runs,
	}
	opts.Config.Mode = mode
	opts.Config.SampleProbability = *sampleProb
	opts.Config.OverheadTarget = *overhead
	if err := opts.Config.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "tsvd-run: %v\n", err)
		return 2
	}
	if *traceDir != "" {
		opts.Config.Trace = true
	}
	var tri *triage.Triage
	if *triageDir != "" {
		// Triage needs the drained events for opportunity accounting and
		// explanation slices, so -triage implies tracing even without -trace.
		opts.Config.Trace = true
		tri = triage.New()
		opts.Triage = tri
		opts.TriageProvenance = triage.Provenance{Source: "tsvd-run"}
	}
	if *verbose {
		// Live heartbeat on stderr while the suite runs; the harness emits a
		// final update on completion, so the last line always shows the full
		// module count.
		opts.Progress = func(u harness.ProgressUpdate) {
			fmt.Fprintf(os.Stderr,
				"tsvd-run: run %d/%d  modules %d/%d  bugs %d  delays %d  elapsed %s\n",
				u.Run, u.Runs, u.ModulesDone, u.ModulesTotal,
				u.BugsFound, u.DelaysInjected, u.Elapsed.Round(10*time.Millisecond))
		}
	}

	var storeTracer *trace.Tracer
	if *traceDir != "" && (*trapsFile != "" || *trapServer != "") {
		storeTracer = trace.New(1 << 12)
	}
	store := buildStore(*trapServer, *trapsFile, storeTracer)
	if store != nil {
		opts.Store = store
		defer store.Close()
	}

	out := harness.Run(suite, opts)

	var storeTotals trace.StoreTotals
	if store != nil {
		storeTotals = store.Totals()
	}
	if storeTracer != nil {
		// The store's fetch/publish/fallback events join the detector
		// traces as their own pseudo-module, so trace.Summary.Check can
		// reconcile them against summary.store.
		tot := storeTracer.Totals()
		out.Traces = append(out.Traces, trace.ModuleTrace{
			Module: "trapstore", Events: storeTracer.Drain(),
			Emitted: tot.Emitted, Dropped: tot.Dropped,
		})
		out.TraceTotals.Emitted += tot.Emitted
		out.TraceTotals.Dropped += tot.Dropped
		out.TraceTotals.Buffered += tot.Buffered
	}

	var metrics *trace.Metrics
	if *traceDir != "" {
		var err error
		metrics, err = writeTrace(*traceDir, algo.String(), *modules, *runs, out, storeTotals)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsvd-run: %v\n", err)
			return 1
		}
	}
	if tri != nil {
		if err := triage.WriteDir(*triageDir, algo.String(), tri.Units(), tri.Clusters()); err != nil {
			fmt.Fprintf(os.Stderr, "tsvd-run: %v\n", err)
			return 1
		}
	}

	if out.StoreErr != nil {
		// The suite itself ran to completion; classify the store failure by
		// sentinel so CI can tell a corrupt file from a dead daemon.
		fmt.Fprintf(os.Stderr, "tsvd-run: trap store: %v\n", out.StoreErr)
		return harness.StoreExitCode(out.StoreErr)
	}
	if storeTotals.Fallbacks > 0 {
		// Degraded but healthy: the daemon was unreachable and the local
		// trap file absorbed everything. Worth a line, not a failure.
		fmt.Fprintf(os.Stderr,
			"tsvd-run: trap server unreachable %d time(s); continued on the local trap file\n",
			storeTotals.Fallbacks)
	}

	status := 0
	if len(out.UnknownPairs) > 0 {
		// Reports outside the suite's planted ground truth mean the detector
		// (or the workload bookkeeping) fabricated a pair — fail the run so
		// CI catches it.
		fmt.Fprintf(os.Stderr, "tsvd-run: %d reported pairs outside ground truth\n",
			len(out.UnknownPairs))
		status = 1
	}

	fmt.Printf("%s over %d modules (%d planted TSVs), %d run(s):\n",
		algo, *modules, suite.TotalPlantedBugs(), *runs)
	fmt.Printf("  unique bugs found: %d", out.TotalFound())
	for i, n := range out.NewBugsByRun {
		fmt.Printf("  run%d:%d", i+1, n)
	}
	fmt.Println()
	st := out.Stats
	fmt.Printf("  delays injected: %d (total %v)  near-misses: %d  pairs: +%d -hb:%d -decay:%d\n",
		st.DelaysInjected, st.TotalDelay, st.NearMisses,
		st.PairsAdded, st.PairsPrunedHB, st.PairsPrunedDecay)
	fmt.Printf("  instrumented calls: %d  locations: %d (%d seen concurrent)\n",
		st.OnCalls, st.LocationsSeen, st.LocationsSeenConcurrent)
	if st.NearMissGaps.Total() > 0 {
		fmt.Printf("  near-miss gap histogram: %s\n", st.NearMissGaps)
	}
	if ov := out.Overhead; ov.Spent > 0 {
		fmt.Printf("  sampler: p=%.4g  sampled out: %d  charged: %v (skip %v, prologue %v, analysis %v, delay %v)\n",
			ov.Probability, st.CallsSampledOut, ov.Spent, ov.Layers[sampler.LayerSkip],
			ov.Layers[sampler.LayerPrologue], ov.Layers[sampler.LayerAnalysis], ov.Layers[sampler.LayerDelay])
		if ov.Ticks > 0 {
			fmt.Printf("  overhead over the last interval: %.2f%% of wall time (floor %.2f%%)\n",
				100*ov.Last.Observed, 100*ov.Last.Floor)
		}
		if ov.Last.FloorBound {
			fmt.Printf("  the floor alone exceeds the %.2f%% target: no admission probability can meet it\n",
				100**overhead)
		}
	}
	if metrics != nil {
		report.TraceSummary(os.Stdout, metrics, 15)
		fmt.Printf("  trace written to %s\n", *traceDir)
	}
	if tri != nil {
		fmt.Printf("  triage: %d cluster(s) from %d firing(s), written to %s\n",
			len(tri.Clusters()), tri.FiringsFolded(), *triageDir)
	}
	if *verbose {
		for _, bug := range out.Reports.Bugs() {
			fmt.Println()
			fmt.Print(bug.First.String())
			fmt.Printf("  occurrences: %d, distinct stack pairs: %d\n",
				bug.Occurrences, bug.StackPairs)
		}
	}
	return status
}

// buildStore assembles the run's trap store from the two flags: the local
// trap file, the fleet daemon, or — when both are given — the daemon with
// graceful degradation to the file. Returns nil when neither flag is set.
func buildStore(serverURL, filePath string, tracer *trace.Tracer) trapstore.TrapStore {
	switch {
	case serverURL != "" && filePath != "":
		return trapstore.NewFallback(
			trapstore.NewHTTPStore(serverURL, trapstore.HTTPConfig{Tracer: tracer}),
			trapstore.NewFileStore(filePath, tracer),
			tracer)
	case serverURL != "":
		return trapstore.NewHTTPStore(serverURL, trapstore.HTTPConfig{Tracer: tracer})
	case filePath != "":
		return trapstore.NewFileStore(filePath, tracer)
	default:
		return nil
	}
}

// writeTrace drains the run's event traces into dir: events.jsonl (one event
// per line, all module runs concatenated), metrics.json (the per-location
// aggregate) and summary.json (producer-side accounting for trace.Summary.Check).
func writeTrace(dir, tool string, modules, runs int, out *harness.Outcome,
	storeTotals trace.StoreTotals) (*trace.Metrics, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace dir: %w", err)
	}

	events, err := os.Create(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		return nil, err
	}
	var drained int64
	for _, mt := range out.Traces {
		if err := trace.WriteJSONL(events, mt, out.Sites); err != nil {
			events.Close()
			return nil, err
		}
		drained += int64(len(mt.Events))
	}
	if err := events.Close(); err != nil {
		return nil, err
	}

	metrics := trace.Aggregate(out.Traces)
	mf, err := os.Create(filepath.Join(dir, "metrics.json"))
	if err != nil {
		return nil, err
	}
	if err := metrics.WriteJSON(mf); err != nil {
		mf.Close()
		return nil, err
	}
	if err := mf.Close(); err != nil {
		return nil, err
	}

	sum := trace.Summary{
		Version:  trace.SchemaVersion,
		Tool:     tool,
		Modules:  modules,
		Runs:     runs,
		Emitted:  out.TraceTotals.Emitted,
		Dropped:  out.TraceTotals.Dropped,
		Drained:  drained,
		ByKind:   trace.CountByKind(out.Traces),
		Stats:    out.TraceStatTotals(),
		Store:    storeTotals,
		Overhead: out.TraceOverhead(),
		Sites:    trace.SiteTable(out.Sites),
	}
	sf, err := os.Create(filepath.Join(dir, "summary.json"))
	if err != nil {
		return nil, err
	}
	if err := sum.WriteSummary(sf); err != nil {
		sf.Close()
		return nil, err
	}
	return metrics, sf.Close()
}
