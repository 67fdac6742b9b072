package workload

import (
	"fmt"
	"math/rand"
)

// GenerateSuite builds a deterministic n-module suite from seed. Roughly
// 30% of modules carry at least one planted bug (weighted toward hot bugs,
// with every §5.3 false-negative category represented); the rest are
// bug-free but full of near misses, sequential phases and hot loops, so
// detectors pay for their mistakes.
func GenerateSuite(seed int64, n int) *Suite {
	s := &Suite{Seed: seed, Modules: make([]*Module, 0, n)}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		s.Modules = append(s.Modules, generateModule(fmt.Sprintf("s%d-m%04d", seed, i), rng))
	}
	return s
}

func generateModule(name string, rng *rand.Rand) *Module {
	b := &blockBuilder{moduleName: name, rng: rng}

	// Every module gets 1–3 safe blocks: ordinary concurrent code. Most
	// safe code never produces conflicting near misses (hot loops,
	// sequential phases); lock-protected and ad-hoc-ordered near-missing
	// blocks are the minority, as in real modules — they are what
	// separates TSVD's selective injection from the random baselines.
	nSafe := 1 + rng.Intn(3)
	for i := 0; i < nSafe; i++ {
		switch r := rng.Float64(); {
		case r < 0.30:
			b.addHotSafeLoop()
		case r < 0.50:
			b.addSequentialPhase()
		case r < 0.75:
			b.addTaskStorm()
		case r < 0.88:
			b.addSafeLocked()
		default:
			b.addPingPongSafe()
		}
	}

	// ~30% of modules carry one planted bug; a few carry two.
	nBugs := 0
	switch r := rng.Float64(); {
	case r < 0.05:
		nBugs = 2
	case r < 0.30:
		nBugs = 1
	}
	for i := 0; i < nBugs; i++ {
		switch r := rng.Float64(); {
		case r < 0.28:
			b.addHotBug()
		case r < 0.60: // async-heavy, as in the paper (70% of bugs, Table 1)
			b.addAsyncCacheBug()
		case r < 0.72:
			b.addColdBug()
		case r < 0.82:
			b.addRareBug()
		case r < 0.90:
			b.addMarginalBug()
		case r < 0.96:
			b.addNoiseBug()
		default:
			b.addHBShadowedBug()
		}
	}

	// Shuffle test order so bug tests are not always last.
	rng.Shuffle(len(b.tests), func(i, j int) {
		b.tests[i], b.tests[j] = b.tests[j], b.tests[i]
	})
	return &Module{Name: name, Tests: b.tests, Bugs: b.bugs}
}
