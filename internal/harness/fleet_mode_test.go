package harness

import (
	"testing"

	"repro/internal/config"
	"repro/internal/trapstore"
	"repro/internal/workload"
)

// TestSampledShardSeedsFullModeShardNextRound covers the mode×fleet
// interaction: a shard running in sampled mode (p < 1) still publishes its
// sprung traps to the shared store, and a full-mode shard seeded from that
// store in the next round catches cold bugs in its very first run — which an
// unseeded full-mode shard provably cannot (cold bugs occur once per run and
// need a pre-planted trap).
func TestSampledShardSeedsFullModeShardNextRound(t *testing.T) {
	suite := workload.GenerateSuite(33, 120) // cold-bug-rich seed
	if suite.BugsByKind()[workload.BugCold] < 3 {
		t.Fatalf("suite has too few cold bugs: %v", suite.BugsByKind())
	}
	shared := trapstore.NewMemory("TSVD", nil)

	// Round 1: the sampled shard. Sampling thins the analysis but must not
	// thin the fleet protocol — whatever it discovered is published.
	sampled := opts(config.AlgoTSVD, 1)
	sampled.Config.Mode = config.ModeSampled
	// High enough that some cold pair is learned: each needs both of its
	// one-call sides admitted, and at 0.7 all four were missed (0.51⁴) in
	// one run out of fourteen.
	sampled.Config.SampleProbability = 0.9
	sampled.Store = shared
	o1 := Run(suite, sampled)
	if o1.StoreErr != nil {
		t.Fatalf("sampled shard store error: %v", o1.StoreErr)
	}
	if o1.Stats.CallsSampledOut == 0 {
		t.Fatal("sampled shard rejected no calls; the mode was not in effect")
	}
	if shared.PairCount() == 0 {
		t.Fatal("sampled shard published no pairs to the shared store")
	}

	// Round 2: a fresh full-mode shard on the same store, different schedule
	// seed (a different shard sees a different interleaving).
	full := opts(config.AlgoTSVD, 1)
	full.Store = shared
	full.RunSeedBase = Seed(999)
	full.Config.Seed += 7
	o2 := Run(suite, full)
	if o2.StoreErr != nil {
		t.Fatalf("full shard store error: %v", o2.StoreErr)
	}

	planted := suite.PlantedPairs()
	cold := 0
	for pair := range o2.FoundBugs {
		if b, ok := planted[pair]; ok && b.Kind == workload.BugCold {
			cold++
		}
	}
	if cold == 0 {
		t.Fatalf("full-mode shard caught no cold bugs in its single run despite %d seeded pairs",
			shared.PairCount())
	}

	// Control: the same full-mode shard without the store catches none —
	// the catch above is attributable to the sampled shard's publishes.
	control := opts(config.AlgoTSVD, 1)
	control.RunSeedBase = Seed(999)
	control.Config.Seed += 7
	oc := Run(suite, control)
	for pair := range oc.FoundBugs {
		if b, ok := planted[pair]; ok && b.Kind == workload.BugCold {
			t.Fatalf("unseeded control shard caught cold bug %v; cold class broke", pair)
		}
	}

	// The store protocol ran: one fetch + one publish per shard round.
	if tot := shared.Totals(); tot.Fetches != 2 || tot.Publishes != 2 {
		t.Fatalf("store totals = %+v, want 2 fetches and 2 publishes", tot)
	}
}
