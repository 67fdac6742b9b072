package sampler

import (
	"math"
	"testing"
	"time"

	"repro/internal/ids"
)

// admitRate measures the empirical admission rate of one site over n trials.
func admitRate(s *Sampler, siteID ids.SiteID, n int) float64 {
	state := SeedRand(1, 7)
	admitted := 0
	for i := 0; i < n; i++ {
		if s.Admit(siteID, Rand(&state)) {
			admitted++
		}
	}
	return float64(admitted) / float64(n)
}

func TestAdmitExtremes(t *testing.T) {
	always := New(Params{BaseProbability: 1})
	if got := admitRate(always, 1, 1000); got != 1 {
		t.Fatalf("p=1 admitted %.3f, want every call", got)
	}
	never := New(Params{BaseProbability: 0})
	if got := admitRate(never, 1, 1000); got != 0 {
		t.Fatalf("p=0 admitted %.3f, want none", got)
	}
}

func TestAdmitRateTracksProbability(t *testing.T) {
	s := New(Params{BaseProbability: 0.25})
	got := admitRate(s, 1, 100000)
	if got < 0.22 || got > 0.28 {
		t.Fatalf("p=0.25 admitted %.4f, want ~0.25", got)
	}
}

func TestTickDisabledWithoutTarget(t *testing.T) {
	s := New(Params{BaseProbability: 0.5, Interval: time.Second})
	s.ObserveCost(10 * time.Second)
	if _, ok := s.Tick(time.Minute); ok {
		t.Fatal("Tick ran with OverheadTarget=0; fixed-probability mode must not adjust")
	}
	if p := s.Probability(); p != 0.5 {
		t.Fatalf("probability drifted to %v in fixed mode", p)
	}
}

func TestThrottleDownOnHighOverhead(t *testing.T) {
	s := New(Params{BaseProbability: 1, OverheadTarget: 0.01, Interval: time.Second})
	// 50% observed overhead against a 1% target: each tick must halve the
	// probability (the per-tick step clamp), monotonically toward the floor.
	prev := s.Probability()
	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		now += time.Second
		s.ObserveCost(500 * time.Millisecond)
		adj, ok := s.Tick(now)
		if !ok {
			t.Fatalf("tick %d did not run", i)
		}
		if adj.Probability > prev {
			t.Fatalf("tick %d raised probability %v -> %v under overload", i, prev, adj.Probability)
		}
		prev = adj.Probability
	}
	if prev > 0.01 {
		t.Fatalf("after sustained overload probability is %v, want heavily throttled", prev)
	}
}

func TestRecoveryOnLowOverhead(t *testing.T) {
	s := New(Params{BaseProbability: 1, OverheadTarget: 0.01, Interval: time.Second})
	// Drive it down first.
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		now += time.Second
		s.ObserveCost(500 * time.Millisecond)
		s.Tick(now)
	}
	low := s.Probability()
	// Then observe (almost) no overhead: the controller must recover, at
	// most doubling per tick. The EWMA drains over the first few ticks, so
	// only enforce monotonic recovery once it has (8 ticks at alpha=0.5
	// shrink the smoothed estimate by 256×).
	prev := low
	for i := 0; i < 40; i++ {
		now += time.Second
		s.ObserveCost(time.Microsecond)
		adj, ok := s.Tick(now)
		if !ok {
			t.Fatalf("recovery tick %d did not run", i)
		}
		if i >= 8 && adj.Probability < prev {
			t.Fatalf("tick %d lowered probability %v -> %v while idle", i, prev, adj.Probability)
		}
		if adj.Probability > prev*maxStepRatio*1.0001 {
			t.Fatalf("tick %d jumped %v -> %v, more than the step clamp allows", i, prev, adj.Probability)
		}
		prev = adj.Probability
	}
	if prev <= low {
		t.Fatalf("probability never recovered from %v", low)
	}
}

func TestTickRespectsInterval(t *testing.T) {
	s := New(Params{BaseProbability: 1, OverheadTarget: 0.01, Interval: time.Second})
	if _, ok := s.Tick(500 * time.Millisecond); ok {
		t.Fatal("tick ran before the interval elapsed")
	}
	if _, ok := s.Tick(time.Second); !ok {
		t.Fatal("tick refused to run after the interval elapsed")
	}
	if _, ok := s.Tick(1500 * time.Millisecond); ok {
		t.Fatal("second tick ran only half an interval after the first")
	}
}

func TestHardBudgetCapsAdmission(t *testing.T) {
	s := New(Params{BaseProbability: 1, OverheadTarget: 0.01, Interval: time.Second})
	state := SeedRand(1, 1)
	if !s.Admit(1, Rand(&state)) {
		t.Fatal("fresh sampler at p=1 refused admission")
	}
	// The interval budget is 1% of 1s = 10ms; one 20ms charge exhausts it.
	s.ObserveCost(20 * time.Millisecond)
	if s.Admit(1, Rand(&state)) {
		t.Fatal("admission continued after the interval budget was exhausted")
	}
	adj, ok := s.Tick(time.Second)
	if !ok {
		t.Fatal("tick did not run")
	}
	if !adj.Capped {
		t.Fatal("adjustment did not report the exhausted budget")
	}
	if !s.Admit(1, Rand(&state)) && s.Probability() > 0.9 {
		t.Fatal("admission still suspended after the tick reset the budget")
	}
}

func TestHotSiteFairness(t *testing.T) {
	s := New(Params{BaseProbability: 1, OverheadTarget: 0.5, Interval: time.Second})
	state := SeedRand(1, 1)
	// Site 1 is 100× hotter than site 2 during the interval.
	for i := 0; i < 1000; i++ {
		s.Admit(1, Rand(&state))
	}
	for i := 0; i < 10; i++ {
		s.Admit(2, Rand(&state))
	}
	// Observed ≈ target so the global probability holds steady.
	s.ObserveCost(500 * time.Millisecond)
	if _, ok := s.Tick(time.Second); !ok {
		t.Fatal("tick did not run")
	}
	hot := admitRate(s, 1, 100000)
	cold := admitRate(s, 2, 100000)
	if hot >= cold {
		t.Fatalf("hot site admitted %.4f >= cold site %.4f; fairness should lower hot sites", hot, cold)
	}
	if cold < 0.9 {
		t.Fatalf("cold site admitted %.4f, want near the global probability", cold)
	}
}

func TestSnapshotAccounting(t *testing.T) {
	s := New(Params{BaseProbability: 0.5, OverheadTarget: 0.01, Interval: time.Second})
	state := SeedRand(3, 3)
	s.Admit(1, Rand(&state))
	s.Admit(2, Rand(&state))
	s.ObserveCost(3 * time.Millisecond)
	s.ObserveDelay(2 * time.Millisecond)
	s.Tick(time.Second)
	snap := s.Snapshot()
	if snap.Sites != 2 {
		t.Fatalf("Sites = %d, want 2", snap.Sites)
	}
	if snap.Spent != 5*time.Millisecond {
		t.Fatalf("Spent = %v, want 5ms", snap.Spent)
	}
	if snap.Layers[LayerDelay] != 2*time.Millisecond {
		t.Fatalf("Layers[LayerDelay] = %v, want 2ms", snap.Layers[LayerDelay])
	}
	if snap.Ticks != 1 {
		t.Fatalf("Ticks = %d, want 1", snap.Ticks)
	}
}

func TestSeedRandNonzeroAndDistinct(t *testing.T) {
	if SeedRand(0, 0) == 0 {
		t.Fatal("SeedRand(0,0) returned a zero xorshift state")
	}
	if SeedRand(1, 1) == SeedRand(1, 2) {
		t.Fatal("distinct threads share a seed")
	}
	a, b := SeedRand(1, 1), SeedRand(1, 1)
	x, y := Rand(&a), Rand(&b)
	if x != y {
		t.Fatal("identical seeds diverged")
	}
}

// countdown drives the two-stage scheme the way the detector does: one
// goroutine's stage-one countdown in front of stage two.
type countdown struct {
	s      *Sampler
	rng    uint64
	left   int64
	admit  bool
	weight int64
}

// call reports whether one call at siteID is admitted.
func (c *countdown) call(siteID ids.SiteID) bool {
	for c.left == 0 && !c.admit {
		g := c.s.NextGap(Rand(&c.rng), MaxSkip)
		c.left, c.admit, c.weight = g.Skip, g.Admit, g.Weight
	}
	if c.left > 0 {
		c.left--
		return false
	}
	c.admit = false
	return c.s.AdmitSite(siteID, Rand(&c.rng), c.weight)
}

// binomialOK reports whether k successes in n trials is within five standard
// deviations of probability p (plus one for rounding).
func binomialOK(k, n int, p float64) bool {
	dev := 5*math.Sqrt(float64(n)*p*(1-p)) + 1
	return math.Abs(float64(k)-float64(n)*p) <= dev
}

func TestNextGapExtremes(t *testing.T) {
	if g := New(Params{BaseProbability: 1}).NextGap(12345, MaxSkip); g.Skip != 0 || !g.Admit {
		t.Fatalf("p=1 drew %+v, want an immediate survivor", g)
	}
	if g := New(Params{BaseProbability: 0}).NextGap(12345, MaxSkip); g.Skip != MaxSkip || g.Admit {
		t.Fatalf("p=0 drew %+v, want a full gap without a survivor", g)
	}
	if g := New(Params{BaseProbability: 0}).NextGap(12345, 3); g.Skip != 3 {
		t.Fatalf("gap %d exceeds the caller's cap of 3", g.Skip)
	}
	s := New(Params{BaseProbability: 1, OverheadTarget: 0.01, Interval: time.Second})
	s.ObserveCost(time.Second) // trips the interval cap
	if g := s.NextGap(12345, MaxSkip); g.Skip != CappedSkip || g.Admit {
		t.Fatalf("capped sampler drew %+v, want %d calls and no survivor", g, CappedSkip)
	}
}

// TestCountdownRateTracksProbability: cutting a geometric gap at MaxSkip and
// redrawing leaves every call admitted independently with probability p —
// including at probabilities whose mean gap is far beyond the cut.
func TestCountdownRateTracksProbability(t *testing.T) {
	for _, p := range []float64{0.5, 0.04, 0.001} {
		c := &countdown{s: New(Params{BaseProbability: p}), rng: SeedRand(7, 1)}
		const n = 2_000_000
		admitted := 0
		for i := 0; i < n; i++ {
			if c.call(1) {
				admitted++
			}
		}
		if !binomialOK(admitted, n, p) {
			t.Errorf("p=%v admitted %d of %d", p, admitted, n)
		}
	}
}

// TestTwoStagePerSiteFractions: after a rebalance, one hot and several cold
// sites are each admitted at exactly the probability the controller assigned
// them, although stage one thins every call at the global probability
// without knowing its site.
func TestTwoStagePerSiteFractions(t *testing.T) {
	s := New(Params{BaseProbability: 0.2, OverheadTarget: 0.9, Interval: time.Second})
	c := &countdown{s: s, rng: SeedRand(3, 1)}
	sitesN := []ids.SiteID{1, 2, 3, 4, 5}
	const hot = ids.SiteID(1)
	// Interval one: site 1 makes 50× the calls of each other site. Only
	// stage-one survivors reach the site table, weighted by 1/p.
	for i := 0; i < 200_000; i++ {
		c.call(hot)
		if i%50 == 0 {
			for _, id := range sitesN[1:] {
				c.call(id)
			}
		}
	}
	// Nothing was charged, so the tick doubles p (the step clamp) to 0.4.
	if adj, ok := s.Tick(time.Second); !ok || adj.Probability != 0.4 {
		t.Fatalf("tick: %+v, %v; want probability 0.4", adj, ok)
	}
	prob := func(id ids.SiteID) float64 {
		return float64(s.siteFor(id).threshold.Load()) / (1 << thresholdBits)
	}
	// The hot site made ~4.6× the mean (200k of 216k calls over 5 sites).
	if sp := prob(hot); sp < 0.07 || sp > 0.11 {
		t.Fatalf("hot site has probability %v, want about 0.4/4.6", sp)
	}
	for _, id := range sitesN[1:] {
		if sp := prob(id); sp != 0.4 {
			t.Fatalf("cold site %d has probability %v, want the global 0.4", id, sp)
		}
	}
	// Interval two, no further tick: measure what each site is admitted at.
	const n = 400_000
	for _, id := range sitesN {
		admitted := 0
		for i := 0; i < n; i++ {
			if c.call(id) {
				admitted++
			}
		}
		if sp := prob(id); !binomialOK(admitted, n, sp) {
			t.Errorf("site %d admitted %d of %d, assigned probability %v", id, admitted, n, sp)
		}
	}
}

// TestFloorIsChargedButNeverCaps: the floor steers the controller — when it
// alone exceeds the target the probability falls to the minimum and the
// adjustment says so — but it does not trip the hard cap, which would
// silence the admissions the minimum probability exists to keep.
func TestFloorIsChargedButNeverCaps(t *testing.T) {
	s := New(Params{BaseProbability: 1, OverheadTarget: 0.01, Interval: time.Second})
	now := time.Duration(0)
	var adj Adjustment
	for i := 0; i < 20; i++ {
		now += time.Second
		s.Observe(LayerSkip, 50*time.Millisecond) // 5% of every interval
		if s.Snapshot().Capped {
			t.Fatalf("tick %d: the floor tripped the hard cap", i)
		}
		adj, _ = s.Tick(now)
	}
	if adj.Probability != minProbability {
		t.Fatalf("probability %v after 20 floor-bound ticks, want the minimum", adj.Probability)
	}
	if !adj.FloorBound || adj.Floor != 0.05 || adj.Observed != 0.05 {
		t.Fatalf("adjustment %+v, want FloorBound with Floor = Observed = 0.05", adj)
	}
	snap := s.Snapshot()
	if snap.Layers[LayerSkip] != time.Second || snap.Spent != time.Second || snap.Last != adj {
		t.Fatalf("snapshot %+v does not carry the floor account", snap)
	}
}
