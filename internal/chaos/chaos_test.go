package chaos

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trapstore"
)

// TestPlanDeterministic is the replayability contract: the plan — every
// action, every parameter — is a pure function of (Seed, Actions, Shards),
// bit for bit.
func TestPlanDeterministic(t *testing.T) {
	cfg := Config{Seed: 77, Actions: 40, Shards: 3}.withDefaults()
	a, b := describePlan(newPlan(cfg)), describePlan(newPlan(cfg))
	if len(a) != cfg.Actions+1 {
		t.Fatalf("plan has %d actions, want %d planned + 1 closing converge", len(a), cfg.Actions)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plans diverge at action %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	if last := a[len(a)-1]; !strings.Contains(last, "converge") {
		t.Fatalf("plan does not end with a converge round: %s", last)
	}

	other := describePlan(newPlan(Config{Seed: 78, Actions: 40, Shards: 3}.withDefaults()))
	same := 0
	for i := range a {
		if a[i] == other[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 77 and 78 produced identical plans; the seed is not reaching the RNG")
	}
}

// TestRunDeterministic executes the same seed twice end to end: identical
// plans, identical verdicts.
func TestRunDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Actions: 8, Shards: 2}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Plan) != len(b.Plan) {
		t.Fatalf("plan lengths differ: %d vs %d", len(a.Plan), len(b.Plan))
	}
	for i := range a.Plan {
		if a.Plan[i] != b.Plan[i] {
			t.Fatalf("executed plans diverge at action %d:\n  %s\n  %s", i, a.Plan[i], b.Plan[i])
		}
	}
	if (a.Violation == nil) != (b.Violation == nil) {
		t.Fatalf("verdicts differ: %v vs %v", a.Violation, b.Violation)
	}
}

// TestCleanRunHoldsAllInvariants runs an unplanted plan through every check.
func TestCleanRunHoldsAllInvariants(t *testing.T) {
	res, err := Run(Config{Seed: 42, Actions: 10, Shards: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("clean run violated an invariant: %v\nexplanation:\n  %s",
			res.Violation, strings.Join(res.Violation.Explanation, "\n  "))
	}
	if res.ActionsRun != len(res.Plan) {
		t.Fatalf("ran %d of %d actions without a violation", res.ActionsRun, len(res.Plan))
	}
}

// TestPlantedFaultCaught arms the deliberately planted pair-loss bug — a
// Fallback that skips the local write when the remote publish succeeds —
// and requires the harness to catch it, minimize the plan, and explain the
// lost pairs, well inside the 200-action budget.
func TestPlantedFaultCaught(t *testing.T) {
	res, err := Run(Config{
		Seed: 11, Actions: 12, Shards: 2,
		Plant: trapstore.FaultLoseLocalPublish, Minimize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Violation
	if v == nil {
		t.Fatal("the planted lose-local-publish fault was not caught: the oracles are dead")
	}
	if v.Action >= 200 {
		t.Fatalf("planted fault caught only after action #%d, want < 200", v.Action)
	}
	if v.Invariant != "shard-file-pairs" {
		t.Fatalf("planted fault tripped invariant %q, want shard-file-pairs", v.Invariant)
	}
	if len(v.Explanation) == 0 {
		t.Fatal("violation carries no explanation slice")
	}
	var sawGain, sawCheck bool
	for _, line := range v.Explanation {
		if strings.Contains(line, "local file gained") {
			sawGain = true
		}
		if strings.Contains(line, "check failed after action") {
			sawCheck = true
		}
	}
	if !sawGain || !sawCheck {
		t.Fatalf("explanation slice lacks the pair history or the closing verdict:\n  %s",
			strings.Join(v.Explanation, "\n  "))
	}
	if v.MinimizedPlan == nil {
		t.Fatal("minimization was requested but MinimizedPlan is nil")
	}
	if len(v.MinimizedPlan) > v.Action+1 {
		t.Fatalf("minimized plan has %d actions, more than the %d-action failing prefix",
			len(v.MinimizedPlan), v.Action+1)
	}
	for _, line := range v.MinimizedPlan {
		if !strings.HasPrefix(line, "run ") && !strings.Contains(line, "converge") {
			t.Fatalf("minimized plan kept an action irrelevant to a publish-path bug: %s", line)
		}
	}
}

// TestRegressionSeedsReplay replays the committed database; `make race` runs
// it under the race detector.
func TestRegressionSeedsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replaying the full seed database is not a -short test")
	}
	n, err := ReplaySeeds("regression_seeds.json", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatal("the committed regression database is empty; at least one seed must be enforced")
	}
}

// TestSeedDBRoundTrip covers the database I/O and its validation.
func TestSeedDBRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seeds.json")
	db := &SeedDB{Version: 1, Seeds: []SeedEntry{
		{Seed: 9, Actions: 5, Shards: 2, Expect: "pass", Added: "2026-08-08"},
		{Seed: 9, Actions: 5, Shards: 2, Plant: "lose-local-publish", Expect: "caught", Added: "2026-08-08"},
	}}
	if err := SaveSeeds(path, db); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSeeds(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Seeds) != 2 || got.Seeds[1].Plant != "lose-local-publish" {
		t.Fatalf("round trip lost data: %+v", got)
	}

	bad := &SeedDB{Version: 1, Seeds: []SeedEntry{{Seed: 1, Expect: "maybe"}}}
	if err := SaveSeeds(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSeeds(path); err == nil {
		t.Fatal("LoadSeeds accepted an invalid expect verdict")
	}

	// An entry written for some other version of the harness fails to load,
	// naming the field; it does not replay as whatever is left of it.
	stale := `{"version":1,"seeds":[{"seed":42,"actions":15,"shards":3,"replicas":3,"expect":"pass","added":"2026-08-08"}]}`
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSeeds(path); err == nil || !strings.Contains(err.Error(), `"replicas"`) {
		t.Fatalf("LoadSeeds of an entry with an unknown field = %v, want an error naming \"replicas\"", err)
	}

	// A seed whose plan no longer has what its covers list names is rejected
	// before the plan runs.
	drifted := &SeedDB{Version: 1, Seeds: []SeedEntry{
		{Seed: 9, Actions: 3, Shards: 2, Expect: "pass", Added: "2026-10-03", Covers: []string{"converge", "no-such-action"}},
	}}
	if err := SaveSeeds(path, drifted); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplaySeeds(path, nil); err == nil || !strings.Contains(err.Error(), `"no-such-action"`) {
		t.Fatalf("ReplaySeeds of a seed whose covers names a missing action = %v, want an error naming it", err)
	}

	if _, err := ParsePlant("no-such-fault"); err == nil {
		t.Fatal("ParsePlant accepted an unknown fault name")
	}
	if name := PlantName(trapstore.FaultLoseLocalPublish); name != "lose-local-publish" {
		t.Fatalf("PlantName = %q", name)
	}
}
