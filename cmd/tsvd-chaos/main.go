// Command tsvd-chaos drives the fleet chaos harness (internal/chaos): a
// deterministic, seeded interleaving of shard detector runs, daemon kills
// and restarts (some over a torn log tail or a half-done compaction),
// trap-file corruption, injected network faults, concurrent publishes and
// session supersedes, with hard invariants checked after every action —
// durability of the pairs the daemon acked, the Fallback no-pair-lost
// contract, exact trace/metrics reconciliation, and converge equality.
//
// Usage:
//
//	tsvd-chaos -seed 42 -actions 30 -shards 3            # one run
//	tsvd-chaos -seed 42 -plant lose-local-publish        # must be caught
//	tsvd-chaos -replay internal/chaos/regression_seeds.json
//	tsvd-chaos -seed 42 -record internal/chaos/regression_seeds.json
//
// The same seed always produces the same action log and the same verdict.
// A failing run prints the violated invariant, an explanation slice (the
// event history of the offending pairs), the minimized failing plan, and a
// ready-to-commit regression-seed JSON snippet.
//
// Exit status: 0 when every invariant held (or every replayed seed matched
// its expected verdict), 1 on a violation or replay mismatch, 2 on usage
// errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"time"

	"repro/internal/chaos"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seed     = flag.Int64("seed", 1, "plan seed; same seed, same plan, same verdict")
		actions  = flag.Int("actions", 30, "number of planned fleet actions (a closing converge is always appended)")
		shards   = flag.Int("shards", 3, "number of simulated CI shards")
		plant    = flag.String("plant", "", `deliberately planted fault the run must catch ("lose-local-publish", "ignore-log")`)
		minimize = flag.Bool("minimize", true, "shrink a failing plan to a smaller failing action list")
		replay   = flag.String("replay", "", "replay every seed in this regression database and verify each verdict")
		record   = flag.String("record", "", "append this run's parameters to the seed database at the given path")
		verbose  = flag.Bool("v", false, "log every action as it executes")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: tsvd-chaos [-seed N] [-actions N] [-shards N] [-plant FAULT] [-replay FILE] [-record FILE]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		return 2
	}

	if *replay != "" {
		n, err := chaos.ReplaySeeds(*replay, func(format string, args ...any) {
			fmt.Printf("tsvd-chaos: "+format+"\n", args...)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsvd-chaos: replay: %v\n", err)
			return 1
		}
		fmt.Printf("tsvd-chaos: replayed %d regression seeds from %s, all verdicts match\n", n, *replay)
		return 0
	}

	planted, err := chaos.ParsePlant(*plant)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsvd-chaos: %v\n", err)
		return 2
	}

	cfg := chaos.Config{Seed: *seed, Actions: *actions, Shards: *shards, Plant: planted, Minimize: *minimize}
	if *verbose {
		cfg.Logf = func(format string, args ...any) { fmt.Printf("tsvd-chaos: "+format+"\n", args...) }
	}
	res, err := chaos.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsvd-chaos: %v\n", err)
		return 2
	}

	expectCaught := planted != 0
	switch {
	case res.Violation == nil && !expectCaught:
		fmt.Printf("tsvd-chaos: PASS seed=%d actions=%d shards=%d: all invariants held over %d actions\n",
			*seed, *actions, *shards, res.ActionsRun)
		if *record != "" {
			return recordSeed(*record, cfg, "pass", "routine chaos run, all invariants held")
		}
		return 0
	case res.Violation != nil && expectCaught:
		fmt.Printf("tsvd-chaos: CAUGHT seed=%d plant=%s: the planted fault tripped invariant %q after action #%d\n",
			*seed, *plant, res.Violation.Invariant, res.Violation.Action)
		printViolation(res)
		if *record != "" {
			return recordSeed(*record, cfg, "caught",
				fmt.Sprintf("planted %s caught by %s", *plant, res.Violation.Invariant))
		}
		return 0
	case res.Violation == nil && expectCaught:
		fmt.Fprintf(os.Stderr,
			"tsvd-chaos: ORACLE FAILURE seed=%d plant=%s: the planted fault was NOT caught in %d actions\n",
			*seed, *plant, res.ActionsRun)
		return 1
	default:
		fmt.Fprintf(os.Stderr, "tsvd-chaos: FAIL seed=%d: %v\n", *seed, res.Violation)
		printViolation(res)
		// A struct of numbers and strings: marshalling it cannot fail.
		snippet, _ := json.MarshalIndent(seedEntry(cfg, "pass", "<what this seed caught>"), "    ", "  ")
		fmt.Fprintf(os.Stderr, "\nready-to-commit regression seed:\n    %s\n", snippet)
		return 1
	}
}

// printViolation renders the explanation slice and minimized plan.
func printViolation(res *chaos.Result) {
	v := res.Violation
	fmt.Printf("\ninvariant:  %s\ndetail:     %s\n", v.Invariant, v.Detail)
	if len(v.Explanation) > 0 {
		fmt.Printf("\nexplanation (history of the offending pairs):\n")
		for _, line := range v.Explanation {
			fmt.Printf("  %s\n", line)
		}
	}
	plan := v.MinimizedPlan
	label := "minimized failing plan"
	if plan == nil {
		plan = res.Plan[:v.Action+1]
		label = "failing action prefix (minimization off)"
	}
	fmt.Printf("\n%s (%d actions):\n", label, len(plan))
	for i, line := range plan {
		fmt.Printf("  %2d. %s\n", i, line)
	}
}

// seedEntry is cfg as the database entry that replays it.
func seedEntry(cfg chaos.Config, expect, note string) chaos.SeedEntry {
	return chaos.SeedEntry{
		Seed: cfg.Seed, Actions: cfg.Actions, Shards: cfg.Shards,
		Plant: chaos.PlantName(cfg.Plant), Expect: expect,
		Added: time.Now().Format("2006-01-02"), Note: note,
	}
}

// recordSeed appends this run's parameters to the seed database at path,
// creating it when absent.
func recordSeed(path string, cfg chaos.Config, expect, note string) int {
	db, err := chaos.LoadSeeds(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "tsvd-chaos: record: %v\n", err)
			return 1
		}
		db = &chaos.SeedDB{Version: 1}
	}
	db.Seeds = append(db.Seeds, seedEntry(cfg, expect, note))
	if err := chaos.SaveSeeds(path, db); err != nil {
		fmt.Fprintf(os.Stderr, "tsvd-chaos: record: %v\n", err)
		return 1
	}
	fmt.Printf("tsvd-chaos: recorded seed %d in %s (%d seeds total)\n", cfg.Seed, path, len(db.Seeds))
	return 0
}
