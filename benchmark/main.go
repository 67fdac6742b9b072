// Command benchmark is the repository's benchmark: what an instrumented
// call, a suite run and a fleet sync round cost, end to end and layer by
// layer. BENCHMARK.json at the repository root tells the driver how to run
// it; README.md in this directory explains the workloads and metrics.
//
//	go run ./benchmark -workload hot_calls -seed 1 -seconds 20 -trace 0
//
// runs one workload once and prints every metric by name and unit, then one
// JSON object on the last line. Without -workload it runs all five; with
// -sets N -check it runs N complete sets and fails when they disagree by
// more than the bounds in BENCHMARK.json. It drives the system only through
// exported functions of the root package and of internal/*.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fasttime"
)

// runCtx is what one workload run is given.
type runCtx struct {
	seed    int64
	seconds float64
	workers int
	trace   bool
	spans   *spanRecorder // nil unless trace
	outDir  string
}

// share returns the given fraction of the run's measuring time.
func (c *runCtx) share(f float64) time.Duration {
	return time.Duration(f * c.seconds * float64(time.Second))
}

// scale shrinks fixed-size work for runs shorter than the standard 20 s
// (tests use 0.2 s), and is 1 from there up.
func (c *runCtx) scale() float64 { return min(1, c.seconds/20) }

// setups is how many times a workload repeats its set-up so that setup_s is
// a median; short smoke runs set up once.
func (c *runCtx) setups(n int) int {
	if c.seconds < 5 {
		return 1
	}
	return n
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports.
type result struct {
	workload  string
	attempted int
	failed    int
	problems  []string // failed output checks; any makes the run incorrect
	values    map[string]float64
	notes     []string
}

func newResult(workload string) *result {
	return &result{workload: workload, values: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) setAll(vs map[string]float64) {
	for name, v := range vs {
		r.values[name] = v
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) fail(err error) *result {
	r.problem("%v", err)
	return r
}

func (r *result) absorbCalls(m *callsMeasurement) {
	r.attempted += m.attempted
	r.failed += m.failed
	r.problems = append(r.problems, m.problems...)
}

// setStats reports detector counters per run.
func (r *result) setStats(s core.Stats, runs float64) {
	per := func(v int64) float64 { return float64(v) / runs }
	r.set("core.oncalls_per_run", per(s.OnCalls))
	r.set("core.delays_per_run", per(s.DelaysInjected))
	r.set("core.delay_s_per_run", s.TotalDelay.Seconds()/runs)
	r.set("core.near_misses_per_run", per(s.NearMisses))
	r.set("core.pairs_added_per_run", per(s.PairsAdded))
	r.set("core.pairs_pruned_hb_per_run", per(s.PairsPrunedHB))
	r.set("core.pairs_pruned_decay_per_run", per(s.PairsPrunedDecay))
	r.set("core.violations_per_run", per(s.Violations))
	r.set("core.sequential_skips_per_run", per(s.SequentialSkips))
	if s.DelaysInjected > 0 {
		r.set("core.delay_productive_frac", float64(s.Violations)/float64(s.DelaysInjected))
	}
	if s.OnCalls > 0 {
		r.set("core.sampled_out_frac", float64(s.CallsSampledOut)/float64(s.OnCalls))
	}
}

// skew is added to what every output check expects (calls issued, pairs
// generated; any value empties suite_run's planted set). It is always 0
// outside the test that proves the checks are live: a wrong expectation
// must fail the run.
var skew int

var workloads = []workloadDef{
	{"hot_calls", runCallWorkload(hotCalls)},
	{"shared_reads", runCallWorkload(sharedReads)},
	{"sampled_calls", runCallWorkload(sampledCalls)},
	{"suite_run", runSuiteWorkload},
	{"fleet_sync", runFleetWorkload},
}

// normalizeArgs lets -trace stand alone (as the README writes it) as well
// as take the 0/1 the driver passes.
func normalizeArgs(args []string) []string {
	out := append([]string(nil), args...)
	for i, a := range out {
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(out) || strings.HasPrefix(out[i+1], "-") {
			out[i] = "-trace=1"
		}
	}
	return out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runLimit is how long one workload run may take before the program gives
// up on it: a run is sized for well under a minute, and the driver allows
// three. A hang must end as a failed run, not as a stuck process.
const runLimit = 150 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run (default: all five)")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 20, "measuring time of one run")
		trace    = fs.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes spans.jsonl")
		workers  = fs.Int("workers", min(runtime.NumCPU(), 2), "worker goroutines / store clients")
		sets     = fs.Int("sets", 1, "complete sets to run back to back")
		check    = fs.Bool("check", false, "with -sets: fail when a gated metric's spread between sets exceeds its bound in ./BENCHMARK.json")
		out      = fs.String("out", ".bench_build/benchmark", "directory for spans.jsonl and temporary snapshots")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *sets < 1 || *workers < 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		return 2
	}
	if *workers > runtime.NumCPU() {
		fmt.Fprintf(stderr, "benchmark: %d workers on %d CPUs would measure the scheduler, not the system; refusing\n", *workers, runtime.NumCPU())
		return 2
	}
	selected := workloads
	if *workload != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *workload {
				selected = []workloadDef{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
	}
	printHeader(stdout, stderr, *workers, *seed, *seconds)

	ctx := &runCtx{seed: *seed, seconds: *seconds, workers: *workers, trace: *trace != 0, outDir: *out}
	if ctx.trace {
		ctx.spans = newSpanRecorder(*seed)
	}
	ok := true
	var rounds []map[string]*result // one map per set: workload → result
	for set := 0; set < *sets; set++ {
		results := map[string]*result{}
		for i, w := range selected {
			if ctx.trace {
				ctx.spans.workload = w.name
			}
			watchdog := time.AfterFunc(runLimit, func() {
				fmt.Fprintf(stderr, "benchmark: %s is still running after %v; giving up\n", w.name, runLimit)
				os.Exit(3)
			})
			res := w.run(ctx)
			watchdog.Stop()
			if ctx.trace && set == *sets-1 && i == len(selected)-1 {
				// Spans are held in memory until the last workload ends.
				if path, err := ctx.spans.write(*out); err != nil {
					res.problem("write spans: %v", err)
				} else {
					fmt.Fprintf(stdout, "spans   %s\n", path)
				}
			}
			results[w.name] = res
			if !report(stdout, res, ctx.trace) {
				ok = false
			}
		}
		rounds = append(rounds, results)
	}
	if *sets > 1 {
		if !compareSets(stdout, stderr, rounds, "BENCHMARK.json", *check) {
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// printHeader records what the numbers were measured on.
func printHeader(stdout, stderr io.Writer, workers int, seed int64, seconds float64) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	clock := "fallback"
	if fasttime.Enabled() {
		clock = "tsc"
	}
	fmt.Fprintf(stdout, "header  commit=%s go=%s nproc=%d gomaxprocs=%d cpu=%q workers=%d seed=%d seconds=%g fasttime=%s\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), workers, seed, seconds, clock)
	if runtime.GOMAXPROCS(0) != runtime.NumCPU() {
		fmt.Fprintf(stderr, "benchmark: warning: GOMAXPROCS=%d but nproc=%d; numbers are not comparable with the reference runs\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// report prints every metric of the pass by name and unit, then the JSON
// object the driver reads, and returns whether the run was correct.
func report(w io.Writer, res *result, traced bool) bool {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s\n", res.workload)
	for _, n := range res.notes {
		fmt.Fprintf(w, "timing  %s\n", n)
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		v, measured := res.values[d.name]
		if !measured && !traced {
			res.problem("metric %s was not measured", d.name)
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric  %-40s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "FAILED  %s: %s\n", res.workload, p)
	}
	correct := len(res.problems) == 0
	if !correct && res.failed == 0 {
		// No operation of a run whose outputs are wrong counts as good.
		res.failed = max(res.attempted, 1)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, max(res.attempted, 1), res.failed, metrics})
	if err != nil {
		fmt.Fprintf(w, "FAILED  %s: %v\n", res.workload, err)
		return false
	}
	fmt.Fprintf(w, "%s\n", line)
	return correct
}

// compareSets prints the gated metrics of every set side by side with their
// spread, (max − min) ÷ median, and — when check is set — fails a spread
// wider than the metric's bound in BENCHMARK.json.
func compareSets(stdout, stderr io.Writer, rounds []map[string]*result, specPath string, check bool) bool {
	bounds := map[string]float64{}
	if check {
		f, err := loadBenchmarkFile(specPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: -check needs the bounds: %v\n", err)
			return false
		}
		for _, m := range f.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	var names []string
	for name := range rounds[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		for _, d := range endToEnd {
			var vals []float64
			var cells []string
			for _, set := range rounds {
				v := set[name].values[d.name]
				vals = append(vals, v)
				cells = append(cells, fmt.Sprintf("%12.6g", v))
			}
			s := sortedCopy(vals)
			spread := 0.0
			if mid := quantile(s, 0.5); mid != 0 {
				spread = (s[len(s)-1] - s[0]) / mid
			}
			verdict := ""
			if bound, gated := bounds[d.name]; gated && spread > bound {
				verdict = fmt.Sprintf("  EXCEEDS bound %.2f", bound)
				ok = false
			}
			fmt.Fprintf(stdout, "sets    %-14s %-22s %s  spread %.4f%s\n", name, d.name, strings.Join(cells, " "), spread, verdict)
		}
	}
	return ok
}
