package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/trapstore"
)

// SeedEntry is one committed regression seed: the full parameterization of a
// chaos run plus the expected verdict. Seeds with Expect "pass" are runs
// that once failed (or nearly failed) and must stay green; seeds with Expect
// "caught" carry a planted fault and prove the oracles still fire — a
// planted seed that passes is itself a harness failure.
type SeedEntry struct {
	// Seed is the plan seed; with Actions and Shards it reproduces the plan
	// bit-for-bit.
	Seed int64 `json:"seed"`
	// Actions is the planned action count of the recorded run.
	Actions int `json:"actions"`
	// Shards is the shard count of the recorded run.
	Shards int `json:"shards"`
	// Plant names the armed fault: "" (none), "lose-local-publish" or
	// "ignore-log".
	Plant string `json:"plant,omitempty"`
	// Expect is the required verdict: "pass" (no violation) or "caught"
	// (some violation must fire).
	Expect string `json:"expect"`
	// Added is the date the seed was committed, for archaeology.
	Added string `json:"added"`
	// Note says what the seed exercises or which bug it once caught.
	Note string `json:"note,omitempty"`
	// Covers lists substrings of plan lines (as TestChaosSmoke -v logs them)
	// the seed's plan must still contain — what the note promises, in a form
	// ReplaySeeds checks: a planner change that turns the seed into some
	// other plan fails the replay instead of passing as something else.
	Covers []string `json:"covers,omitempty"`
}

// SeedDB is the committed regression-seed database
// (internal/chaos/regression_seeds.json), replayed by `make race`.
type SeedDB struct {
	// Version is the database format version (currently 1).
	Version int `json:"version"`
	// Seeds are the enforced regression seeds, in commit order.
	Seeds []SeedEntry `json:"seeds"`
}

// ParsePlant maps a SeedEntry.Plant name to the fault constant.
func ParsePlant(s string) (trapstore.PlantedFault, error) {
	switch s {
	case "":
		return trapstore.FaultNone, nil
	case "lose-local-publish":
		return trapstore.FaultLoseLocalPublish, nil
	case "ignore-log":
		return trapstore.FaultIgnoreLog, nil
	default:
		return trapstore.FaultNone, fmt.Errorf("chaos: unknown planted fault %q", s)
	}
}

// PlantName is ParsePlant's inverse, for recording seeds.
func PlantName(f trapstore.PlantedFault) string {
	switch f {
	case trapstore.FaultLoseLocalPublish:
		return "lose-local-publish"
	case trapstore.FaultIgnoreLog:
		return "ignore-log"
	}
	return ""
}

// LoadSeeds reads a seed database from path. A field it does not know is an
// error, not ignored: an entry written for another version of the harness
// would otherwise replay as a different plan and report "ok".
func LoadSeeds(path string) (*SeedDB, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: read seeds: %w", err)
	}
	var db SeedDB
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&db); err != nil {
		return nil, fmt.Errorf("chaos: parse seeds %s: %w", path, err)
	}
	for i, s := range db.Seeds {
		if s.Expect != "pass" && s.Expect != "caught" {
			return nil, fmt.Errorf("chaos: seed %d in %s: expect %q, want \"pass\" or \"caught\"", i, path, s.Expect)
		}
		if _, err := ParsePlant(s.Plant); err != nil {
			return nil, fmt.Errorf("chaos: seed %d in %s: %w", i, path, err)
		}
	}
	return &db, nil
}

// SaveSeeds writes db to path, indented for committing.
func SaveSeeds(path string, db *SeedDB) error {
	raw, err := json.MarshalIndent(db, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ReplaySeeds runs every seed in the database at path and checks each
// verdict against its Expect. It returns the number of seeds replayed and
// the first mismatch (a seed whose plan lacks something its Covers names, a
// "pass" seed that violated, or a "caught" seed whose planted fault the
// oracles missed).
func ReplaySeeds(path string, logf func(format string, args ...any)) (int, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	db, err := LoadSeeds(path)
	if err != nil {
		return 0, err
	}
	for i, s := range db.Seeds {
		plant, _ := ParsePlant(s.Plant) // validated by LoadSeeds
		cfg := Config{Seed: s.Seed, Actions: s.Actions, Shards: s.Shards, Plant: plant}
		plan := strings.Join(describePlan(newPlan(cfg.withDefaults())), "\n")
		for _, want := range s.Covers {
			if !strings.Contains(plan, want) {
				return i, fmt.Errorf("chaos: regression seed %d (seed=%d) no longer covers %q: its plan has no such action",
					i, s.Seed, want)
			}
		}
		res, err := Run(cfg)
		if err != nil {
			return i, fmt.Errorf("chaos: seed %d (seed=%d): %w", i, s.Seed, err)
		}
		switch {
		case s.Expect == "pass" && res.Violation != nil:
			return i, fmt.Errorf("chaos: regression seed %d (seed=%d, %s) expected to pass but failed: %w",
				i, s.Seed, s.Note, res.Violation)
		case s.Expect == "caught" && res.Violation == nil:
			return i, fmt.Errorf("chaos: planted seed %d (seed=%d, plant=%s) passed — the oracles missed the planted fault",
				i, s.Seed, s.Plant)
		}
		logf("seed %d/%d ok: seed=%d actions=%d shards=%d plant=%q expect=%s",
			i+1, len(db.Seeds), s.Seed, s.Actions, s.Shards, s.Plant, s.Expect)
	}
	return len(db.Seeds), nil
}
