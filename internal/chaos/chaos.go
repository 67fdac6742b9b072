// Package chaos is the fleet chaos harness behind cmd/tsvd-chaos: a
// deterministic, seeded driver that interleaves weighted fleet actions —
// shard detector runs across every algorithm variant and sampling mode,
// daemon kills and snapshot-restored restarts (plain, over a torn log tail,
// or over a compaction that died half-way), trap-file corruption and
// truncation, slow/flaky/5xx networks injected into the HTTPStore transport,
// concurrent publishes, public-API session supersedes — against one
// in-process daemon (a real trapstore.NewHandler behind a real HTTP server,
// persisting through a real trapstore.SnapshotPersister) and checks hard
// invariants after every action:
//
//   - Durability: every pair the daemon acknowledged a publish of is in what
//     a reboot of it reads, its snapshot file with its append log replayed
//     (the ack contract), and its set never holds a pair no publish carried.
//   - The Fallback contract: each healthy shard's local trap file holds
//     exactly the union of that shard's published sets — no pair a run
//     discovered is ever lost, daemon up or down.
//   - Exact observability: every shard run's trace events reconcile against
//     its detector Stats and store totals (the trace.Reconcile rule,
//     in-process), and its exported metrics series match the same counters
//     (core.CheckCounters).
//   - Converge equality: after a converge — the daemon restarted if down,
//     corrupt files healed, every shard file pushed, the daemon's set pulled
//     back — the daemon and every shard file hold the identical set.
//
// All randomness is drawn at plan time from the seed, so the action log is a
// pure function of (Seed, Actions, Shards) and a failing seed replays
// exactly. Failing plans are minimized ddmin-style to a smaller failing
// action list, explained with an error-invariant-style slice of the events
// that touched the offending pairs, and committed to
// internal/chaos/regression_seeds.json, which `make race` replays forever
// (docs/TESTING.md).
package chaos

import (
	"fmt"
	"os"

	"repro/internal/trapfile"
	"repro/internal/trapstore"
)

// chaosScale is the detector TimeScale every chaos shard runs at: 2% of the
// paper's delays keeps a whole plan in seconds while preserving every
// code path.
const chaosScale = 0.02

// Config parameterizes one chaos run.
type Config struct {
	// Seed drives every random choice in the plan. Two runs with equal
	// (Seed, Actions, Shards, Plant) produce bit-for-bit identical action
	// logs.
	Seed int64
	// Actions is the number of planned fleet actions (default 30). A closing
	// converge action is always appended, so the executed plan has
	// Actions+1 entries.
	Actions int
	// Shards is the number of simulated CI shards (default 3), each with its
	// own local trap file.
	Shards int
	// Plant arms a deliberately planted contract bug
	// (trapstore.PlantFault) for the duration of the run. The harness must
	// catch any non-FaultNone plant — replaying a planted seed that passes
	// is itself a failure, proving the oracles are alive.
	Plant trapstore.PlantedFault
	// Minimize shrinks a failing plan to a smaller failing action list
	// before reporting, bounded by MaxReplays full re-executions.
	Minimize bool
	// MaxReplays bounds minimization replays (default 12).
	MaxReplays int
	// Logf, when non-nil, receives the live action log and verdicts.
	Logf func(format string, args ...any)
	// Dir, when non-empty, is the working directory for trap files and the
	// daemon snapshot; empty selects a fresh temp directory removed when the
	// run finishes.
	Dir string
}

func (c Config) withDefaults() Config {
	if c.Actions <= 0 {
		c.Actions = 30
	}
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.MaxReplays <= 0 {
		c.MaxReplays = 12
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// quiet returns a copy suitable for minimization replays: no logging, no
// recursive minimization.
func (c Config) quiet() Config {
	c.Logf = func(string, ...any) {}
	c.Minimize = false
	return c
}

// Result is one chaos run's outcome.
type Result struct {
	// Plan is the full planned action log, one line per action, identical
	// across runs with the same Config.
	Plan []string
	// ActionsRun counts actions executed; fewer than len(Plan) when a
	// violation stopped the run early.
	ActionsRun int
	// Violation is nil when every invariant held through the whole plan.
	Violation *Violation
}

// Violation describes the first invariant breach of a run.
type Violation struct {
	// Action is the 0-based index into Result.Plan of the action after
	// which the invariant failed.
	Action int
	// Invariant names the breached invariant (e.g. "shard-file-pairs",
	// "daemon-durability", "trace-reconcile").
	Invariant string
	// Detail is the human-readable diagnosis, naming the offending pairs.
	Detail string
	// Explanation is the error-invariant-style slice: the ordered history of
	// model and store events that touched the offending pairs, ending at the
	// failed check — the minimal story of how the state diverged.
	Explanation []string
	// MinimizedPlan is the reduced failing action list when minimization
	// ran (Config.Minimize), nil otherwise.
	MinimizedPlan []string

	// pairs are the offending pairs the detail names, driving the
	// explanation slice.
	pairs []trapfile.Pair
}

// Error renders the violation as a one-line summary.
func (v *Violation) Error() string {
	return fmt.Sprintf("chaos: invariant %q failed after action #%d: %s", v.Invariant, v.Action, v.Detail)
}

// Run plans and executes one chaos run. The returned error reports
// environment problems (an unusable working directory); invariant breaches
// are reported in Result.Violation, never as an error.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	plan := newPlan(cfg)
	res := &Result{Plan: describePlan(plan)}

	v, ran, err := execute(cfg, plan)
	if err != nil {
		return nil, err
	}
	res.ActionsRun = ran
	res.Violation = v
	if v != nil && cfg.Minimize {
		res.Violation.MinimizedPlan = describePlan(minimize(cfg, plan, v))
	}
	return res, nil
}

// execute runs plan action by action against a fresh fleet, checking every
// invariant after every action. It returns the first violation (nil when the
// plan passes), the number of actions executed, and any environment error.
func execute(cfg Config, plan []action) (*Violation, int, error) {
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "tsvd-chaos-*")
		if err != nil {
			return nil, 0, fmt.Errorf("chaos: temp dir: %w", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	trapstore.PlantFault(cfg.Plant)
	defer trapstore.PlantFault(trapstore.FaultNone)

	f, err := newFleet(cfg, dir)
	if err != nil {
		return nil, 0, err
	}
	defer f.shutdown()
	m := newModel(cfg.Shards)

	for i, a := range plan {
		cfg.Logf("act#%02d %s", i, a.describe())
		if v := f.apply(i, a, m); v != nil {
			v.Explanation = m.explain(v)
			return v, i + 1, nil
		}
		if v := f.checkInvariants(i, m); v != nil {
			v.Explanation = m.explain(v)
			return v, i + 1, nil
		}
	}
	return nil, len(plan), nil
}
