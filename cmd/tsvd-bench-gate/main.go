// Command tsvd-bench-gate is the hot-path performance gate: for every gate
// committed in bench_gate.json it runs the gated microbenchmark in its own
// package several times and fails when the best observed ns/op exceeds the
// gate's threshold, or when any run allocated: every gated path is a
// per-call path, and none of them may touch the heap. Three paths are gated
// today: an instrumented call end to end through the public API
// (BenchmarkDictionarySetInstrumented in the root package: prologue, detector
// and raw operation — what a user pays; also rotating over 16 owned objects
// and rejected by the sampled tier), the detector OnCall fast path alone
// (BenchmarkOnCallUncontended/TSVD, same package, and
// BenchmarkOnCallContention/TSVD/goroutines=1 for what it costs once a second
// thread exists) and the trace ring-buffer Emit path (BenchmarkEmit in
// internal/trace) that the triage explanation slices depend on.
//
// The minimum across runs is the gate's estimator on purpose: the benchmark
// VM's run-to-run noise is one-sided (preemption and frequency excursions
// only ever make a run slower), so the minimum tracks the code's actual cost
// while the mean tracks the machine's mood. A structural regression — a new
// lock, map probe, allocation, or string materialization on the hot path —
// raises the minimum too and is exactly what the gate exists to catch.
//
// Exit status: 0 when every gate passes, 1 when any fails, 2 on
// configuration or execution errors. `make bench-gate` runs it from the
// repository root; it is part of `make check`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// gateConfig is the committed threshold file (bench_gate.json).
type gateConfig struct {
	// Gates lists every benchmark threshold to enforce.
	Gates []gate `json:"gates"`
}

// gate is one benchmark threshold.
type gate struct {
	// Benchmark is the full sub-benchmark name to gate.
	Benchmark string `json:"benchmark"`
	// Package is the package directory the benchmark lives in ("." for
	// the repository root).
	Package string `json:"package"`
	// MaxNsPerOp fails the gate when the best run exceeds it.
	MaxNsPerOp float64 `json:"max_ns_per_op"`
	// Runs is how many -count repetitions feed the minimum.
	Runs int `json:"runs"`
	// Benchtime is the per-run -benchtime value.
	Benchtime string `json:"benchtime"`
	// Note documents the threshold's provenance; the gate ignores it.
	Note string `json:"note"`
}

func main() {
	cfgPath := flag.String("config", "bench_gate.json", "threshold file")
	goBin := flag.String("go", "go", "go tool to invoke")
	flag.Parse()

	data, err := os.ReadFile(*cfgPath)
	if err != nil {
		fail(2, "read config: %v", err)
	}
	var cfg gateConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fail(2, "parse %s: %v", *cfgPath, err)
	}
	if len(cfg.Gates) == 0 {
		fail(2, "%s: at least one gate is required", *cfgPath)
	}

	failed := false
	for _, g := range cfg.Gates {
		if g.Benchmark == "" || g.MaxNsPerOp <= 0 {
			fail(2, "%s: benchmark and max_ns_per_op are required on every gate", *cfgPath)
		}
		if g.Package == "" {
			g.Package = "."
		}
		if g.Runs <= 0 {
			g.Runs = 3
		}
		if g.Benchtime == "" {
			g.Benchtime = "300ms"
		}

		ns, allocs, runs, err := runGate(*goBin, g)
		if err != nil {
			fail(2, "%s: %v", g.Benchmark, err)
		}
		ok := true
		if allocs > 0 {
			fmt.Fprintf(os.Stderr,
				"tsvd-bench-gate: %s (%s): %d allocs/op — a gated path must not allocate\n",
				g.Benchmark, g.Package, allocs)
			ok = false
		}
		if ns > g.MaxNsPerOp {
			fmt.Fprintf(os.Stderr,
				"tsvd-bench-gate: %s (%s): best of %d runs = %.2f ns/op, gate = %.2f ns/op — the fast path regressed\n",
				g.Benchmark, g.Package, runs, ns, g.MaxNsPerOp)
			ok = false
		}
		if ok {
			fmt.Printf("tsvd-bench-gate: ok — %s (%s) best of %d runs = %.2f ns/op (gate %.2f), 0 allocs/op\n",
				g.Benchmark, g.Package, runs, ns, g.MaxNsPerOp)
		}
		failed = failed || !ok
	}
	if failed {
		os.Exit(1)
	}
}

// runGate executes one gate's benchmark in its package and returns the best
// ns/op, the worst allocs/op and the number of runs observed.
func runGate(goBin string, g gate) (float64, int64, int, error) {
	// Anchor every slash segment: go's -bench matching is per-segment
	// substring, so a bare "TSVD" would also run "TSVDHB".
	segs := strings.Split(g.Benchmark, "/")
	for i, s := range segs {
		segs[i] = "^" + regexp.QuoteMeta(s) + "$"
	}
	pattern := strings.Join(segs, "/")

	cmd := exec.Command(goBin, "test", "-run", "^$",
		"-bench", pattern,
		"-benchmem",
		"-benchtime", g.Benchtime,
		"-count", strconv.Itoa(g.Runs),
		g.Package)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("benchmark run failed: %v\n%s", err, out)
	}
	ns, allocs, runs, err := summarize(string(out), g.Benchmark)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%v\n%s", err, out)
	}
	return ns, allocs, runs, nil
}

// benchLine matches one `go test -bench -benchmem` result line:
// "BenchmarkName-8   1234567   41.2 ns/op   0 B/op   0 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op.*?\s(\d+) allocs/op`)

// summarize extracts the minimum ns/op and the maximum allocs/op across the
// result lines for the named benchmark, and the number of lines observed.
func summarize(out, name string) (bestNs float64, worstAllocs int64, runs int, err error) {
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil || m[1] != name {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("parse ns/op in %q: %v", line, err)
		}
		allocs, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("parse allocs/op in %q: %v", line, err)
		}
		runs++
		if runs == 1 || ns < bestNs {
			bestNs = ns
		}
		worstAllocs = max(worstAllocs, allocs)
	}
	if runs == 0 {
		return 0, 0, 0, fmt.Errorf("no result lines for %s", name)
	}
	return bestNs, worstAllocs, runs, nil
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tsvd-bench-gate: "+format+"\n", args...)
	os.Exit(code)
}
