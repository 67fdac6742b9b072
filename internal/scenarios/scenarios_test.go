package scenarios

import (
	"testing"

	"repro/internal/config"
)

// scenarioConfig: scenarios pace at 2ms, so a 40ms window / 20ms delay
// comfortably covers them while keeping tests quick.
func scenarioConfig() config.Config {
	return config.Defaults(config.AlgoTSVD).Scaled(0.4)
}

func TestAllScenariosDetectWithinTwoRuns(t *testing.T) {
	for _, s := range All() {
		// Not parallel: whether a trap springs inside the delay window is a
		// matter of timing, and nine scenarios sharing two cores under the
		// race detector starved System.Linq.Dynamic's four workers often
		// enough to miss its only two writes (about 1 run in 10).
		t.Run(s.Name, func(t *testing.T) {
			out, err := Run(s, scenarioConfig(), 2)
			if err != nil {
				t.Fatal(err)
			}
			if out.TSVs < s.MinTSVs {
				t.Fatalf("%s: found %d TSVs in %d runs, want >= %d",
					s.Name, out.TSVs, out.RunsUsed, s.MinTSVs)
			}
			if out.RunsUsed > 2 {
				t.Fatalf("%s: needed %d runs", s.Name, out.RunsUsed)
			}
		})
	}
}

func TestScenarioInventory(t *testing.T) {
	all := All()
	if len(all) != 9 {
		t.Fatalf("scenario count = %d, want 9 (Table 4)", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if s.Name == "" || s.Issue == "" || len(s.Tests) == 0 || s.MinTSVs < 1 {
			t.Fatalf("scenario %q incomplete: %+v", s.Name, s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate scenario %q", s.Name)
		}
		seen[s.Name] = true
	}
}

// TestScenariosQuietUnderNop: without a detector the tests still pass
// (the races exist but rarely fire spontaneously, like the upstream repos
// before TSVD).
func TestScenariosQuietUnderNop(t *testing.T) {
	cfg := scenarioConfig()
	cfg.Algorithm = config.AlgoNop
	for _, s := range All() {
		out, err := Run(s, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out.TSVs != 0 {
			t.Fatalf("%s: Nop detector reported %d TSVs", s.Name, out.TSVs)
		}
	}
}
