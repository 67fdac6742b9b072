package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/report"
)

// A live pair is delayed only where its partner can still arrive
// (docs/ALGORITHM.md §3.5): at a location that was the earlier access of one
// of the pair's near misses in this run, and at the call that just found a
// near miss. The scripts here are the suite blocks that rule was measured on
// (internal/workload), shrunk to a few calls each.

// call is a script step: the clock moves by gap, then thread calls op on obj.
func call(gap time.Duration, thread ids.ThreadID, obj ids.ObjectID, op ids.OpID, kind Kind) renewStep {
	return renewStep{gap: gap, a: acc(thread, obj, op, kind)}
}

// planProbe notes the steps at which its detector planned a delay: in
// observe-only mode a planned delay is counted in DelaysSuppressed and
// nobody sleeps, so every step is one call and nothing decays.
type planProbe struct {
	Detector
	step    int
	planned []int
}

func (p *planProbe) OnCall(a Access) {
	before := p.Stats().DelaysSuppressed
	p.Detector.OnCall(a)
	if p.Stats().DelaysSuppressed > before {
		p.planned = append(p.planned, p.step)
	}
	p.step++
}

// plannedAt drives steps through a TSVD in observe-only mode, seeded with
// traps, and returns the steps that planned a delay.
func plannedAt(t *testing.T, traps []report.PairKey, steps []renewStep) []int {
	t.Helper()
	cfg := testConfig(config.AlgoTSVD)
	cfg.Mode = config.ModeObserveOnly
	clk := &scriptClock{}
	p := &planProbe{Detector: mustNew(t, cfg, WithClock(clk), WithInitialTraps(traps))}
	drive(p, clk, steps)
	return p.planned
}

// TestSeqPhaseDelaysOnlyTheFindingReads is the seqphase block: one thread
// initializes an object, then two readers read it. Each reader's first read
// comes within the near-miss window of the init writes and finds the pair
// (init write, read); its earlier side is the write, whose thread does not
// write again. So the two finding reads plan a delay, and none of the later
// reads does.
func TestSeqPhaseDelaysOnlyTheFindingReads(t *testing.T) {
	const obj, write, read = 1, 301, 302
	var steps []renewStep
	for i := 0; i < 12; i++ {
		steps = append(steps, call(10*time.Microsecond, 1, obj, write, KindWrite))
	}
	steps = append(steps,
		call(time.Millisecond, 2, obj, read, KindRead),
		call(time.Millisecond, 3, obj, read, KindRead))
	for i := 0; i < 6; i++ {
		steps = append(steps, call(12*time.Millisecond, ids.ThreadID(2+i%2), obj, read, KindRead))
	}
	if got, want := plannedAt(t, nil, steps), []int{12, 13}; !slices.Equal(got, want) {
		t.Fatalf("delays planned at steps %v, want only the finding reads %v", got, want)
	}
}

// TestNoiseFindingReadCatchesTheNextWrite is the noise block: a writer
// loops write, four reads, pause; a victim reads once, right after a burst.
// The read finds the pair (write, read) with the write as its earlier side,
// and it is the read itself that delays: the writer's next write runs into
// its trap. The victim never calls again, so a delay at the write side alone
// catches nothing.
func TestNoiseFindingReadCatchesTheNextWrite(t *testing.T) {
	const obj, write, victim = 1, 601, 606
	var steps []renewStep
	for i := 0; i < 3; i++ {
		steps = append(steps, call(time.Millisecond, 1, obj, write, KindWrite))
		for n := ids.OpID(602); n <= 605; n++ {
			steps = append(steps, call(100*time.Microsecond, 1, obj, n, KindRead))
		}
		if i == 1 {
			steps = append(steps, call(100*time.Microsecond, 2, obj, victim, KindRead))
		}
	}
	clk := &scriptClock{}
	d := mustNew(t, testConfig(config.AlgoTSVD), WithClock(clk))
	drive(d, clk, steps)
	bugs := d.Reports().Bugs()
	if len(bugs) != 1 || bugs[0].Key != report.KeyOf(write, victim) || bugs[0].First.Trapped.Op != victim {
		t.Fatalf("bugs %+v, want (%d, %d) caught in the victim's trap", bugs, write, victim)
	}
}

// TestReverseNearMissMakesTheLaterSideDelayable is the marginal block: the
// second side lands a little after the first and finds the pair, so only the
// first side is delayable; once a call of the second side is followed closely
// by one of the first, that near miss has the second side as its earlier
// access, and the second side is delayable from then on too.
func TestReverseNearMissMakesTheLaterSideDelayable(t *testing.T) {
	const obj, s1, s2 = 1, 701, 702
	steps := []renewStep{
		call(time.Millisecond, 1, obj, s1, KindWrite),
		call(3*time.Millisecond, 2, obj, s2, KindWrite),  // finds (s1, s2): plans
		call(15*time.Millisecond, 2, obj, s2, KindWrite), // nothing near: s2 is the later side
		call(2*time.Millisecond, 1, obj, s1, KindWrite),  // finds s2 → s1: plans
		call(15*time.Millisecond, 2, obj, s2, KindWrite), // nothing near: s2 is delayable now
		call(15*time.Millisecond, 1, obj, s1, KindWrite),
	}
	if got, want := plannedAt(t, nil, steps), []int{1, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("delays planned at steps %v, want %v", got, want)
	}
}

// TestLoadedPairDelaysBothEndsUntilOrdered: a pair from a trap file has not
// been seen in this run, so either side may be the one its partner arrives
// after, and both delay; the first near miss of the pair orders it, and from
// then on only its earlier side delays (and the call that found it).
func TestLoadedPairDelaysBothEndsUntilOrdered(t *testing.T) {
	const x, y = 501, 502
	steps := []renewStep{
		call(time.Millisecond, 2, 99, 999, KindRead), // a second thread: the phase is concurrent
		call(time.Millisecond, 1, 1, x, KindWrite),
		call(time.Millisecond, 2, 2, y, KindWrite),
		call(20*time.Millisecond, 1, 3, x, KindWrite),
		call(time.Millisecond, 2, 3, y, KindWrite), // finds x → y
		call(20*time.Millisecond, 2, 4, y, KindWrite),
		call(20*time.Millisecond, 1, 5, x, KindWrite),
	}
	if got, want := plannedAt(t, []report.PairKey{report.KeyOf(x, y)}, steps), []int{1, 2, 3, 4, 6}; !slices.Equal(got, want) {
		t.Fatalf("delays planned at steps %v, want %v", got, want)
	}
}
