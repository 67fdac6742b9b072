package workload

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestGenerateSuiteDeterministic(t *testing.T) {
	a := GenerateSuite(7, 30)
	b := GenerateSuite(7, 30)
	if len(a.Modules) != 30 || len(b.Modules) != 30 {
		t.Fatalf("module counts: %d, %d", len(a.Modules), len(b.Modules))
	}
	if a.TotalPlantedBugs() != b.TotalPlantedBugs() {
		t.Fatal("same seed produced different bug counts")
	}
	for i := range a.Modules {
		ma, mb := a.Modules[i], b.Modules[i]
		if ma.Name != mb.Name || len(ma.Tests) != len(mb.Tests) || len(ma.Bugs) != len(mb.Bugs) {
			t.Fatalf("module %d differs between generations", i)
		}
		for j := range ma.Bugs {
			if ma.Bugs[j] != mb.Bugs[j] {
				t.Fatalf("module %d bug %d differs", i, j)
			}
		}
	}
}

func TestGenerateSuiteDifferentSeedsDiffer(t *testing.T) {
	a := GenerateSuite(1, 50)
	b := GenerateSuite(2, 50)
	if a.TotalPlantedBugs() == b.TotalPlantedBugs() {
		// Counts can collide; require the pair sets to differ.
		pa, pb := a.PlantedPairs(), b.PlantedPairs()
		same := true
		for k := range pa {
			if _, ok := pb[k]; !ok {
				same = false
				break
			}
		}
		if same && len(pa) == len(pb) {
			t.Fatal("different seeds produced identical ground truth")
		}
	}
}

func TestSuitePopulationProperties(t *testing.T) {
	s := GenerateSuite(11, 300)
	total := s.TotalPlantedBugs()
	if total < 40 {
		t.Fatalf("only %d planted bugs in 300 modules; generator too stingy", total)
	}
	kinds := s.BugsByKind()
	for _, k := range []BugKind{BugHot, BugAsync, BugCold, BugRare, BugMarginal, BugNoise} {
		if kinds[k] == 0 {
			t.Errorf("no %s bugs in a 300-module suite", k)
		}
	}
	// Class mix: Dictionary must dominate (Table 1: 55%).
	classes := map[string]int{}
	sameLoc, readWrite, async := 0, 0, 0
	for _, m := range s.Modules {
		for _, b := range m.Bugs {
			classes[b.Class]++
			if b.SameLocation {
				sameLoc++
			}
			if b.ReadWrite {
				readWrite++
			}
			if b.Async {
				async++
			}
		}
	}
	if classes["Dictionary"] <= classes["List"] {
		t.Errorf("class mix off: %v", classes)
	}
	if sameLoc == 0 || readWrite == 0 || async == 0 {
		t.Errorf("population missing a category: sameLoc=%d readWrite=%d async=%d",
			sameLoc, readWrite, async)
	}
	// Ground-truth pairs must be unique across the suite.
	if len(s.PlantedPairs()) != total {
		t.Errorf("planted pairs collide: %d pairs for %d bugs", len(s.PlantedPairs()), total)
	}
}

func TestModuleTestsHaveNominalUnits(t *testing.T) {
	s := GenerateSuite(3, 50)
	for _, m := range s.Modules {
		if len(m.Tests) == 0 {
			t.Fatalf("module %s has no tests", m.Name)
		}
		for _, test := range m.Tests {
			if test.NominalUnits <= 0 {
				t.Fatalf("test %s/%s has no nominal duration", m.Name, test.Name)
			}
			if test.Body == nil {
				t.Fatalf("test %s/%s has no body", m.Name, test.Name)
			}
		}
	}
}

func TestSiteKeysNamespacedPerModule(t *testing.T) {
	s := GenerateSuite(5, 10)
	seen := map[string]bool{}
	for _, m := range s.Modules {
		for _, b := range m.Bugs {
			key := b.Pair.A.Key()
			if key == "" {
				t.Fatalf("planted site has no persistent key")
			}
			if !strings.HasPrefix(key, "wl/") {
				t.Fatalf("unexpected site key %q", key)
			}
			if !strings.Contains(key, m.Name) {
				t.Fatalf("site key %q not namespaced to module %s", key, m.Name)
			}
		}
		if seen[m.Name] {
			t.Fatalf("duplicate module name %s", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestHBShadowedBlockReturnsOnExpiredDeadline: phase 1 hands a baton from the
// s1 thread to the s2 thread. When the deadline passes between two handovers
// the sender leaves its loop, and the receiver used to wait for the next
// baton for ever. The body must return promptly whenever the deadline falls:
// before the block starts, or in the middle of the baton phase.
func TestHBShadowedBlockReturnsOnExpiredDeadline(t *testing.T) {
	b := &blockBuilder{moduleName: "hbshadow-test", rng: rand.New(rand.NewSource(1))}
	b.addHBShadowedBug()
	body := b.tests[0].Body

	const pace = 40 * time.Millisecond // handovers at 0, 20, 40, 60, 80 ms
	for name, untilDeadline := range map[string]time.Duration{
		"already expired":     -time.Second,
		"expires mid-handoff": 30 * time.Millisecond,
	} {
		t.Run(name, func(t *testing.T) {
			env := &Env{Pace: pace, Deadline: time.Now().Add(untilDeadline)}
			done := make(chan struct{})
			go func() {
				defer close(done)
				body(env)
			}()
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatal("hbshadow body still running 1s after its deadline: a thread is stuck on the baton")
			}
		})
	}
}
