// Command tsvd-bench regenerates the paper's evaluation tables and figures
// (§5) over the synthetic workload suites.
//
// Usage:
//
//	tsvd-bench -exp all
//	tsvd-bench -exp table2 -small 200
//	tsvd-bench -exp table2 -seeds 1..8
//	tsvd-bench -exp fig9g -scale 0.05
//
// Experiments: table1 table2 table3 table4 fig8 fig9a..fig9h resource
// asyncinline fleet sampling all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run (table1..4, fig8, fig9a..h, resource, asyncinline, fleet, sampling, all)")
		scale    = flag.Float64("scale", 0, "time scale override (default from experiment params)")
		seed     = flag.Int64("seed", 0, "suite seed override")
		small    = flag.Int("small", 0, "Small-suite module count override")
		large    = flag.Int("large", 0, "Large-suite module count override")
		fig8runs = flag.Int("fig8runs", 0, "Figure 8 run count override")
		fig8mods = flag.Int("fig8mods", 0, "Figure 8 module count override")
		parallel = flag.Int("parallel", 0, "modules in flight override")
		seeds    = flag.String("seeds", "", "suite seeds for table2, a range A..B: the rows of each seed, then ranges and paired differences")
	)
	flag.Parse()

	p := experiments.DefaultParams()
	if *scale > 0 {
		p.Scale = *scale
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *small > 0 {
		p.SmallModules = *small
	}
	if *large > 0 {
		p.LargeModules = *large
	}
	if *fig8runs > 0 {
		p.Fig8Runs = *fig8runs
	}
	if *fig8mods > 0 {
		p.Fig8Modules = *fig8mods
	}
	if *parallel > 0 {
		p.Parallelism = *parallel
	}

	runners := map[string]func(experiments.Params, io.Writer){
		"table1":      experiments.Table1,
		"table2":      experiments.Table2,
		"table3":      experiments.Table3,
		"table4":      experiments.Table4,
		"fig8":        experiments.Figure8,
		"fig9a":       experiments.Figure9a,
		"fig9b":       experiments.Figure9b,
		"fig9c":       experiments.Figure9c,
		"fig9d":       experiments.Figure9d,
		"fig9e":       experiments.Figure9e,
		"fig9f":       experiments.Figure9f,
		"fig9g":       experiments.Figure9g,
		"fig9h":       experiments.Figure9h,
		"resource":    experiments.ResourceUsage,
		"asyncinline": experiments.AsyncInlining,
		"fleet":       experiments.Fleet,
		"sampling":    experiments.Sampling,
	}
	order := []string{
		"table1", "table2", "table3", "table4", "fig8",
		"fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f", "fig9g", "fig9h",
		"resource", "asyncinline", "fleet", "sampling",
	}

	if *seeds != "" {
		list, err := parseSeeds(*seeds)
		if err == nil && *exp != "table2" {
			err = fmt.Errorf("-seeds applies to -exp table2 only")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsvd-bench: %v\n", err)
			os.Exit(2)
		}
		experiments.Table2Seeds(p, list, os.Stdout)
		return
	}

	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = order
	}
	for i, name := range names {
		run, ok := runners[strings.TrimSpace(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "tsvd-bench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		if i > 0 {
			fmt.Println()
		}
		run(p, os.Stdout)
	}
}

// parseSeeds reads a range "A..B", A ≤ B.
func parseSeeds(s string) ([]int64, error) {
	lo, hi, _ := strings.Cut(s, "..")
	a, err1 := strconv.ParseInt(lo, 10, 64)
	b, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || a > b {
		return nil, fmt.Errorf("bad -seeds %q: want a range A..B", s)
	}
	var out []int64
	for v := a; v <= b; v++ {
		out = append(out, v)
	}
	return out, nil
}
