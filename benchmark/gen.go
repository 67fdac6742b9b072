package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/trapfile"
	"repro/internal/workload"
)

// Everything the system under test receives is generated here, from the
// run's seed alone: the same seed regenerates byte-identical inputs.

const (
	batchCalls  = 1024 // calls per timed batch
	keyMask     = 1023 // keys stay below 1024, so containers do not grow
	streamCalls = 16 * batchCalls
)

// op is one generated call: which written-out call site issues it, on
// which container of its class, with which key.
type op struct {
	site uint8
	cont uint8
	key  uint16
}

// genStream builds one worker's op stream for a call workload. The stream
// is replayed cyclically, so it must be valid from any whole-pass boundary:
// queue writes alternate Enqueue, Dequeue (starting from a 16-element
// queue, the length never leaves {16, 17}) and come in equal numbers.
func genStream(kind callKind, seed int64, worker int) []op {
	rng := rand.New(rand.NewSource(seed*7919 + int64(worker)*104729 + int64(kind)))
	ops := make([]op, streamCalls)
	enqueueNext := true
	lastEnqueue := -1
	for i := range ops {
		c := rng.Intn(len(containerClasses))
		class := containerClasses[c]
		write := kind != sharedReads && rng.Float64() < 0.6
		var site uint8
		switch {
		case class == classQueue && write && enqueueNext:
			site, lastEnqueue, enqueueNext = siteQueueEnqueue, i, false
		case class == classQueue && write:
			site, enqueueNext = siteQueueDequeue, true
		default:
			choices := sitesFor(kind, class, write)
			site = choices[rng.Intn(len(choices))]
		}
		ops[i] = op{site: site, cont: uint8(containerIndex[c]), key: uint16(rng.Intn(keyMask + 1))}
	}
	if !enqueueNext {
		// An unmatched Enqueue would grow the queue by one per pass.
		ops[lastEnqueue].site = siteQueuePeek
	}
	return ops
}

// fleetInputs is everything one fleet_sync repetition publishes.
type fleetInputs struct {
	seed     []trapfile.Pair     // already in the store when clients start
	publish  [][][]trapfile.Pair // [client][round] → the 32 pairs of one Publish
	expected map[trapfile.Pair]bool
}

const (
	publishNew   = 24 // pairs per Publish the store has not seen
	publishKnown = 8  // pairs per Publish it already holds
)

func genPair(seed int64, rep, stream, i int) trapfile.Pair {
	// Location keys as the detector writes them (file:line), A < B.
	return trapfile.Pair{
		A: fmt.Sprintf("fleet/s%d/r%d/c%d/a.go:%d", seed, rep, stream, i),
		B: fmt.Sprintf("fleet/s%d/r%d/c%d/b.go:%d", seed, rep, stream, i),
	}
}

// genFleet builds one repetition's inputs. The already-known pairs of a
// Publish are drawn from the seeded set, so what the store ends up holding
// does not depend on how the clients interleave.
func genFleet(seed int64, rep, clients, rounds, seedPairs int) fleetInputs {
	rng := rand.New(rand.NewSource(seed*15485863 + int64(rep)))
	in := fleetInputs{expected: map[trapfile.Pair]bool{}}
	for i := 0; i < seedPairs; i++ {
		p := genPair(seed, rep, 0, i)
		in.seed = append(in.seed, p)
		in.expected[p] = true
	}
	in.publish = make([][][]trapfile.Pair, clients)
	for c := range in.publish {
		next := 0
		for r := 0; r < rounds; r++ {
			batch := make([]trapfile.Pair, 0, publishNew+publishKnown)
			for i := 0; i < publishNew; i++ {
				p := genPair(seed, rep, c+1, next)
				next++
				batch = append(batch, p)
				in.expected[p] = true
			}
			for i := 0; i < publishKnown; i++ {
				batch = append(batch, in.seed[rng.Intn(len(in.seed))])
			}
			in.publish[c] = append(in.publish[c], batch)
		}
	}
	return in
}

// suiteQuota is the block mix of a 100-module suite at the generator's own
// expected proportions (internal/workload/generate.go): 200 safe blocks and
// 34 bug blocks. suite_run's modules are drawn from a seeded pool until
// exactly this mix is filled, so every seed gives different modules
// (classes, sites, grouping, order, schedules) with the same population
// statistics. A plain GenerateSuite(seed, 100) varies by ±20 % in planted
// bugs and baseline time from seed to seed, which is wider than any
// regression bound this benchmark could then enforce.
//
// The generator's twelfth kind, "hbshadow" (one block in a hundred modules),
// is left out: its first phase hands a baton from one goroutine to another,
// and when a stall of the machine outlasts the test's deadline in that phase
// the sender gives up and the receiver waits for ever. That hung one run in
// about fifty on the machine this was written on. Mending the block is a
// change to internal/workload, which a change that defines the benchmark
// may not make.
var suiteQuota = map[string]int{
	"hotsafe": 60, "seqphase": 40, "taskstorm": 50, "safelock": 26, "pingpong": 24,
	"hot": 10, "asynccache": 11, "cold": 4, "rare": 4, "marginal": 3, "noise": 2,
}

// genSuite draws the stratified suite; scale (0..1] shrinks every quota for
// short runs, keeping at least one block of each kind — and four of each
// safe kind, because every module that carries a bug block carries one to
// three safe blocks with it. The pool is doubled until the mix can be
// filled from it; 600 modules are enough for all but one seed in a
// thousand.
func genSuite(seed int64, scale float64) (*workload.Suite, error) {
	quota := map[string]int{}
	for name, n := range suiteQuota {
		floor := 1
		if n >= 24 {
			floor = 4
		}
		quota[name] = max(floor, int(math.Round(float64(n)*scale)))
	}
	for poolSize := 600; poolSize <= 9600; poolSize *= 2 {
		if suite := drawSuite(seed, poolSize, quota); suite != nil {
			return suite, nil
		}
	}
	return nil, fmt.Errorf("no pool for seed %d fills the suite's block mix", seed)
}

// drawSuite takes modules from a seeded pool until quota is met exactly, or
// returns nil when the pool cannot meet it.
func drawSuite(seed int64, poolSize int, quota map[string]int) *workload.Suite {
	left := map[string]int{}
	for name, n := range quota {
		left[name] = n
	}
	pool := workload.GenerateSuite(seed, poolSize).Modules
	suite := &workload.Suite{Seed: seed}
	taken := make([]bool, len(pool))
	// take walks the pool in order and takes every module that passes want
	// and whose blocks all still fit the quotas.
	take := func(want func(*workload.Module) bool) {
		for i, m := range pool {
			if taken[i] || !want(m) {
				continue
			}
			need := map[string]int{}
			for _, t := range m.Tests {
				need[t.Name]++
			}
			fits := true
			for name, n := range need {
				fits = fits && left[name] >= n
			}
			if !fits {
				continue
			}
			for name, n := range need {
				left[name] -= n
			}
			taken[i] = true
			suite.Modules = append(suite.Modules, m)
		}
	}
	// Modules with planted bugs first, the rarest bug kind first: their
	// safe blocks count against the safe quotas, which the clean modules
	// then fill exactly.
	for _, kind := range []string{"noise", "marginal", "cold", "rare", "hot", "asynccache"} {
		take(func(m *workload.Module) bool {
			for _, t := range m.Tests {
				if t.Name == kind {
					return true
				}
			}
			return false
		})
	}
	take(func(m *workload.Module) bool { return len(m.Bugs) == 0 })
	for _, n := range left {
		if n != 0 {
			return nil
		}
	}
	return suite
}

func suiteTests(s *workload.Suite) int {
	n := 0
	for _, m := range s.Modules {
		n += len(m.Tests)
	}
	return n
}
