package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/trace"
)

// A renewed detector must behave as a new one on the same input: Renew keeps
// the storage a run allocated, and everything it keeps must come back empty.
// The tests here drive a detector on one goroutine under a clock the input
// moves, so two detectors given the same input make the same decisions, down
// to the timestamps of their events and the stacks of their reports.

// scriptClock is the driving clock: Since is what the stream set it to, and a
// delay advances it by what was slept. Inside its first level of Sleep it
// runs during — the stream's next steps, so traps spring on one goroutine.
// With timer set, a delay that is not woken early ends as a timer would: d
// after it began, or late, when during ran past that, and it reports the
// overrun as slept.
type scriptClock struct {
	at     time.Duration
	during func()
	inside bool
	timer  bool
}

func (c *scriptClock) Now() time.Time                { return time.Time{} }
func (c *scriptClock) Since(time.Time) time.Duration { return c.at }
func (c *scriptClock) Sleep(d time.Duration, cancel <-chan struct{}) (time.Duration, bool) {
	start := c.at
	if c.during != nil && !c.inside {
		c.inside = true
		c.during()
		c.inside = false
	}
	select {
	case <-cancel:
		c.at += d / 3
		return d / 3, true
	default:
		if c.timer {
			c.at = max(c.at, start+d)
			return c.at - start, false
		}
		c.at += d
		return d, false
	}
}

// renewStep is one input: the clock moves by gap, then either an access or
// one synchronization event (fork, join, acquire, release) of a.Thread with
// other, a thread or a lock.
type renewStep struct {
	gap   time.Duration
	a     Access
	sync  int
	other int64
}

// renewStream draws n steps in segments: one thread alone for a while (a
// sequential phase, so near misses are skipped),
// then three threads interleaved over five objects. Most calls go to a few
// hot locations, so pairs form, delays fire and decay; the rest spread over
// a few hundred sites, so the coverage table grows; a few gaps are long
// enough for HB inference.
func renewStream(seed int64, n int) []renewStep {
	r := rand.New(rand.NewSource(seed))
	var out []renewStep
	for len(out) < n {
		alone := ids.ThreadID(1 + r.Intn(3))
		seq := 30 + r.Intn(30)
		for i := 0; i < seq+40+r.Intn(40); i++ {
			s := renewStep{gap: time.Duration(r.Intn(int(time.Millisecond)))}
			switch x := r.Intn(100); {
			case i < seq:
				s.gap /= 10
			case x < 3:
				s.gap = 6*time.Millisecond + time.Duration(r.Intn(int(20*time.Millisecond)))
			case x < 15:
				s.gap = time.Millisecond + time.Duration(r.Intn(int(4*time.Millisecond)))
			}
			s.a.Thread = alone
			if i >= seq {
				s.a.Thread = ids.ThreadID(1 + r.Intn(3))
			}
			if r.Intn(12) == 0 {
				s.sync, s.other = 1+r.Intn(4), int64(1+r.Intn(3))
				out = append(out, s)
				continue
			}
			s.a.Obj = ids.ObjectID(1 + r.Intn(5))
			s.a.Op = ids.OpID(101 + r.Intn(6))
			if r.Intn(10) < 3 {
				s.a.Op = ids.OpID(107 + r.Intn(150))
			}
			s.a.Kind = Kind(r.Intn(2))
			out = append(out, s)
		}
	}
	return out[:n]
}

// drive feeds steps to d, whose clock clk is; a delay takes the next two
// steps inside it.
func drive(d Detector, clk *scriptClock, steps []renewStep) {
	i := 0
	step := func() {
		s := steps[i]
		i++
		clk.at += s.gap
		t := s.a.Thread
		switch s.sync {
		case 0:
			d.OnCall(s.a)
		case 1:
			d.OnFork(t, ids.ThreadID(s.other))
		case 2:
			d.OnJoin(t, ids.ThreadID(s.other))
		case 3:
			d.OnLockAcquire(t, ids.ObjectID(s.other))
		case 4:
			d.OnLockRelease(t, ids.ObjectID(s.other))
		}
	}
	clk.during = func() {
		for k := 0; k < 2 && i < len(steps); k++ {
			step()
		}
	}
	for i < len(steps) {
		step()
	}
}

// renewOutcome is everything TestRenewIsFresh compares.
type renewOutcome struct {
	stats  Stats
	bugs   []report.Bug
	traps  []report.PairKey
	events []trace.Event
	totals trace.Totals
}

func outcomeOf(d Detector) renewOutcome {
	tr := d.Tracer()
	events := tr.Drain()
	return renewOutcome{d.Stats(), d.Reports().Bugs(), d.ExportTraps(), events, tr.Totals()}
}

var renewAlgos = []config.Algorithm{
	config.AlgoTSVD, config.AlgoTSVDHB, config.AlgoDynamicRandom, config.AlgoStaticRandom,
}

// TestRenewIsFresh: a detector driven through one stream — traps set, sprung
// and pruned, objects shared, sequential phases seen, the coverage table
// grown, every event traced — and then renewed to another configuration
// behaves on a second stream exactly as a new detector of that configuration
// does: the same counters, bugs (stacks included), trap set, events and trace
// totals, and it has seen as many threads. Renew hands back the detector it
// was given.
func TestRenewIsFresh(t *testing.T) {
	first, second := renewStream(1, 3000), renewStream(2, 3000)
	for _, algo := range renewAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			cfg := testConfig(algo)
			cfg.Trace = true
			cfg2 := cfg
			cfg2.Seed, cfg2.ObjHistory, cfg2.PhaseBufferSize = 77, 7, 12

			clk := &scriptClock{}
			prev := mustNew(t, cfg, WithClock(clk))
			drive(prev, clk, first)
			ran := outcomeOf(prev)
			if ran.stats.DelaysInjected == 0 || ran.stats.Violations == 0 || len(ran.events) == 0 {
				t.Fatalf("the first stream exercised too little: %+v", ran.stats)
			}
			if algo == config.AlgoTSVD {
				st := ran.stats
				if st.NearMisses == 0 || st.PairsPrunedHB == 0 || st.PairsPrunedDecay == 0 || st.SequentialSkips == 0 {
					t.Fatalf("the first stream left a TSVD mechanism idle: %+v", st)
				}
			}
			seed := ran.traps

			clks := [2]*scriptClock{{}, {}}
			renewed, err := Renew(prev, cfg2, WithClock(clks[0]), WithInitialTraps(seed))
			if err != nil {
				t.Fatal(err)
			}
			if renewed != prev {
				t.Fatal("Renew built a new detector instead of renewing its own variant")
			}
			fresh := mustNew(t, cfg2, WithClock(clks[1]), WithInitialTraps(seed))
			// One call site for both, so that their reports' stacks agree.
			var outs [2]renewOutcome
			for i, d := range [2]Detector{renewed, fresh} {
				drive(d, clks[i], second)
				outs[i] = outcomeOf(d)
			}
			got, want := outs[0], outs[1]

			if got.stats != want.stats {
				t.Errorf("Stats:\n renewed %+v\n new     %+v", got.stats, want.stats)
			}
			if !reflect.DeepEqual(got.bugs, want.bugs) {
				t.Errorf("bugs: renewed %d, new %d, or they differ", len(got.bugs), len(want.bugs))
			}
			if !reflect.DeepEqual(got.traps, want.traps) {
				t.Errorf("trap set: renewed %v, new %v", got.traps, want.traps)
			}
			if !reflect.DeepEqual(got.events, want.events) {
				t.Errorf("events: renewed %d, new %d, or they differ", len(got.events), len(want.events))
			}
			if got.totals != want.totals {
				t.Errorf("trace totals: renewed %+v, new %+v", got.totals, want.totals)
			}
			if got, want := runtimeOf(renewed).threadsSeen.Load(), runtimeOf(fresh).threadsSeen.Load(); got != want {
				t.Errorf("threads seen: renewed %d, new %d", got, want)
			}
		})
	}
}

// TestRenewBuildsAnotherVariantAnew: a detector of another variant, or none,
// is no storage to renew on — Renew leaves it alone and builds a new one.
func TestRenewBuildsAnotherVariantAnew(t *testing.T) {
	hb := mustNew(t, testConfig(config.AlgoTSVDHB))
	hb.OnCall(acc(1, 1, 101, KindWrite))
	d, err := Renew(hb, testConfig(config.AlgoTSVD))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(*TSVD); !ok {
		t.Fatalf("Renew to TSVD gave %T", d)
	}
	if hb.Stats().OnCalls != 1 {
		t.Fatal("Renew to another variant touched the detector it was given")
	}
	if d, err := Renew(nil, testConfig(config.AlgoNop)); err != nil || d == nil {
		t.Fatalf("Renew(nil, Nop) = %v, %v", d, err)
	}
	if _, err := Renew(d, config.Config{}); err == nil {
		t.Fatal("Renew accepted an invalid configuration")
	}
}

// TestRenewKeepsMetricsMonotone: a detector renewed under one metrics view is
// one runtime in it, and the view's counters, trace totals and trap-set gauge
// carry on from where the finished run left them: they end at the sum of both
// runs, and no scrape along the way is lower than the one before.
func TestRenewKeepsMetricsMonotone(t *testing.T) {
	for _, algo := range renewAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			cfg := testConfig(algo)
			cfg.Trace = true
			reg := metrics.NewRegistry()
			m := NewDetectorMetrics(reg)
			var last map[string]float64
			scrape := func() {
				got := reg.Values()
				for k, v := range last {
					if got[k] < v && k != "tsvd_detector_parked_threads" && k != "tsvd_sampler_probability" {
						t.Fatalf("%s fell from %v to %v", k, v, got[k])
					}
				}
				last = got
			}
			var sum Stats
			var emitted int64
			var pairs int
			var d Detector
			for run, seed := range []int64{1, 2, 3} {
				clk := &scriptClock{}
				var err error
				if d, err = Renew(d, cfg, WithClock(clk), WithDetectorMetrics(m)); err != nil {
					t.Fatal(err)
				}
				scrape()
				drive(d, clk, renewStream(seed, 800))
				scrape()
				sum.Add(d.Stats())
				emitted += d.Tracer().Totals().Emitted
				pairs += len(d.ExportTraps())
				if n := len(m.live); n != 1 {
					t.Fatalf("run %d: the view holds %d runtimes, want 1", run+1, n)
				}
			}
			if err := CheckCounters(last, sum); err != nil {
				t.Error(err)
			}
			if got := last["tsvd_trace_emitted_total"]; got != float64(emitted) {
				t.Errorf("tsvd_trace_emitted_total = %v, want %d", got, emitted)
			}
			if got := last["tsvd_detector_trap_set_pairs"]; got != float64(pairs) {
				t.Errorf("tsvd_detector_trap_set_pairs = %v, want %d", got, pairs)
			}
			if got := last["tsvd_detector_instances"]; got != 3 {
				t.Errorf("tsvd_detector_instances = %v, want 3 runs", got)
			}
		})
	}
}
