// Package workload generates the synthetic module suites that stand in for
// the paper's proprietary Microsoft benchmarks (43K modules "Large", 1000
// sampled modules "Small" — §5.1). Each generated module is a small
// concurrent program with unit tests, built from blocks that reproduce the
// population properties the evaluation depends on:
//
//   - planted thread-safety violations with ground truth, spanning the
//     paper's bug taxonomy: hot-path bugs, single-occurrence bugs (caught
//     only with a trap file in run 2), rare-schedule bugs, marginal-timing
//     bugs (§5.3's delay-injection false negatives), and bugs shadowed by
//     over-eager HB inference (§5.3's HB-inference false negatives);
//   - safe near-misses: lock-protected conflicting accesses (exercising HB
//     inference), strictly alternating ad-hoc-synchronized accesses
//     (exercising decay), sequential phases (exercising phase detection)
//     and hot single-threaded loops (overhead soaks for the random
//     variants);
//   - the paper's class mix (Dictionary-heavy), read-write vs write-write
//     mix, same-location bugs, and async (task) vs raw-thread bugs.
//
// Everything is deterministic in the generator seed; per-run scheduling
// randomness comes from the run seed the harness passes in.
package workload

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/report"
	"repro/internal/task"
)

// BugKind classifies a planted bug by how hard the detector must work.
type BugKind string

const (
	// BugHot overlaps on almost every run: conflicting accesses loop
	// close together in time.
	BugHot BugKind = "hot"
	// BugAsync is a hot bug expressed through the task substrate's
	// async patterns (the Figure 3 cache idiom).
	BugAsync BugKind = "async"
	// BugCold executes each side exactly once per run: run 1 can only
	// learn the near miss, run 2 catches it via the trap file (§3.4.6).
	BugCold BugKind = "cold"
	// BugRare brings its sides close together only under rare schedules
	// (§5.3 near-miss false negatives).
	BugRare BugKind = "rare"
	// BugMarginal offsets its sides by roughly one delay length, so
	// whether the injected delay reaches the conflict is luck (§5.3
	// delay-injection false negatives).
	BugMarginal BugKind = "marginal"
	// BugNoise is a hot bug whose object also receives a burst of
	// unrelated same-thread accesses between the conflicting ones, so a
	// size-1 object history evicts the dangerous entry (Fig. 9b).
	BugNoise BugKind = "noise"
	// BugHBShadowed is ordered by ad-hoc synchronization during its first
	// iterations and truly concurrent afterwards; TSVD's HB inference
	// learns the early ordering and suppresses the pair for good (§5.3
	// HB-inference false negatives).
	BugHBShadowed BugKind = "hbshadowed"
)

// PlantedBug is ground truth for one violation the generator planted.
type PlantedBug struct {
	Pair  report.PairKey
	Kind  BugKind
	Class string
	// ReadWrite marks a read-vs-write conflict (vs write-write).
	ReadWrite bool
	// SameLocation marks both sides sharing one static location.
	SameLocation bool
	// Async marks bugs expressed through the task substrate.
	Async bool
}

// Test is one unit test of a module.
type Test struct {
	Name string
	// NominalUnits is the approximate uninstrumented duration in pace
	// units; the harness derives the test deadline from it.
	NominalUnits float64
	Body         func(env *Env)
}

// Module is one software module: a few unit tests plus ground truth.
type Module struct {
	Name  string
	Tests []Test
	Bugs  []PlantedBug
}

// Suite is a collection of modules, the unit the harness runs.
type Suite struct {
	Seed    int64
	Modules []*Module
}

// TotalPlantedBugs counts the ground-truth violations in the suite.
func (s *Suite) TotalPlantedBugs() int {
	n := 0
	for _, m := range s.Modules {
		n += len(m.Bugs)
	}
	return n
}

// PlantedPairs returns the ground-truth pair set.
func (s *Suite) PlantedPairs() map[report.PairKey]PlantedBug {
	out := map[report.PairKey]PlantedBug{}
	for _, m := range s.Modules {
		for _, b := range m.Bugs {
			out[b.Pair] = b
		}
	}
	return out
}

// BugsByKind tallies planted bugs per kind.
func (s *Suite) BugsByKind() map[BugKind]int {
	out := map[BugKind]int{}
	for _, m := range s.Modules {
		for _, b := range m.Bugs {
			out[b.Kind]++
		}
	}
	return out
}

// Env is the per-run execution environment the harness hands each test.
type Env struct {
	// Det receives the instrumented calls; nil runs uninstrumented.
	Det core.Detector
	// Sched runs the async (task-substrate) blocks; its fork/join events
	// reach Det.
	Sched *task.Scheduler
	// Rng drives per-run schedule randomness (rare bugs, marginal
	// offsets). It must only be used from the test's main goroutine.
	Rng *rand.Rand
	// Pace is the base time unit for workload sleeps.
	Pace time.Duration
	// Delay is the detector's configured injection length, which the
	// marginal and HB-shadowed blocks calibrate against.
	Delay time.Duration
	// Deadline emulates the unit-test timeout: loops stop when past it.
	Deadline time.Time
}

// sleep pauses for units pace units.
func (e *Env) sleep(units float64) {
	time.Sleep(time.Duration(units * float64(e.Pace)))
}

// expired reports whether the test's deadline has passed.
func (e *Env) expired() bool {
	return !e.Deadline.IsZero() && time.Now().After(e.Deadline)
}

// site is one generated static program location.
type site struct {
	op     ids.OpID
	kind   core.Kind
	class  string
	method string
}

// call reports the access and performs a small unit of work standing in for
// the container operation. It uses the same prologue generated
// instrumentation would: a per-call registry lookup resolving the interned
// SiteID.
func (e *Env) call(s site, obj ids.ObjectID) {
	if e.Det != nil {
		e.Det.OnCall(core.Access{
			Thread: ids.CurrentThreadID(),
			Obj:    obj,
			Op:     s.op,
			Site:   e.Det.Sites().ForCall(s.op, s.class, s.method, s.kind == core.KindWrite),
			Kind:   s.kind,
		})
	}
	busyWork()
}

// busyWork is a tiny CPU stand-in for the real container operation, sized
// well under a pace unit. The sink is atomic because every workload thread
// passes through here — the *containers* are the racy part of the model,
// not the busy-work.
func busyWork() {
	acc := int64(0)
	for i := int64(0); i < 32; i++ {
		acc += i * i
	}
	busySink.Store(acc)
}

var busySink atomic.Int64

// spawn runs fn on a fresh goroutine, returning a join channel. Raw
// goroutines model plain threads: no fork/join events reach the detector
// (TSVDHB cannot order them; TSVD does not care).
func spawn(fn func()) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	return done
}

// blockBuilder accumulates one module's content during generation.
type blockBuilder struct {
	moduleName string
	rng        *rand.Rand
	tests      []Test
	bugs       []PlantedBug
	siteSeq    int
}

func (b *blockBuilder) site(block string, kind core.Kind, class, method string) site {
	b.siteSeq++
	key := fmt.Sprintf("wl/%s/%s/site%d", b.moduleName, block, b.siteSeq)
	return site{op: ids.InternKey(key), kind: kind, class: class, method: method}
}

// conflictingSite flips a coin between a second write site and a read site
// (the paper's bug population is roughly half read-write, Table 1).
func (b *blockBuilder) conflictingSite(block, class string) site {
	if b.rng.Float64() < 0.5 {
		return b.site(block, core.KindRead, class, readMethod(class))
	}
	return b.site(block, core.KindWrite, class, writeMethod(class))
}

// pickClass draws a container class with the paper's distribution: 55%
// Dictionary, 37% List, 8% other (Table 1).
func (b *blockBuilder) pickClass() string {
	switch r := b.rng.Float64(); {
	case r < 0.55:
		return "Dictionary"
	case r < 0.92:
		return "List"
	default:
		others := []string{"HashSet", "Queue", "SortedDictionary", "Counter", "PriorityQueue", "SortedSet", "BitArray"}
		return others[b.rng.Intn(len(others))]
	}
}

// writeMethod / readMethod pick plausible API names for a class.
func writeMethod(class string) string {
	switch class {
	case "Dictionary", "SortedDictionary":
		return "Add"
	case "List":
		return "Add"
	case "HashSet":
		return "Add"
	case "Queue", "PriorityQueue":
		return "Enqueue"
	case "Counter":
		return "Increment"
	case "SortedSet":
		return "Add"
	case "BitArray":
		return "Set"
	default:
		return "Set"
	}
}

func readMethod(class string) string {
	switch class {
	case "Dictionary", "SortedDictionary":
		return "ContainsKey"
	case "List":
		return "Get"
	case "HashSet":
		return "Contains"
	case "Queue", "PriorityQueue":
		return "Peek"
	case "Counter":
		return "Value"
	case "SortedSet":
		return "Contains"
	case "BitArray":
		return "Get"
	default:
		return "Get"
	}
}
