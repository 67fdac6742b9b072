package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/report"
)

// phaseModel is §3.4.3 as the paper states it: a ring of the thread ids at
// the last W TSVD points, the execution concurrent iff it holds two.
type phaseModel struct {
	ring []ids.ThreadID
	n    int
}

// call records a TSVD point of t and returns the verdict for it.
func (m *phaseModel) call(t ids.ThreadID) (concurrent bool) {
	m.ring[m.n%len(m.ring)] = t
	m.n++
	for _, u := range m.ring[:min(m.n, len(m.ring))] {
		if u != t {
			return true
		}
	}
	return false
}

// phaseStream is renewStream's shape for four threads and a window of w: one
// thread alone for up to 3W calls, then all four in bursts, over three
// objects. Every step moves the clock, so the call times strictly increase
// and the clock's order is the stream's.
func phaseStream(seed int64, w, n int) []renewStep {
	r := rand.New(rand.NewSource(seed))
	var out []renewStep
	for len(out) < n {
		alone := ids.ThreadID(1 + r.Intn(4))
		seq := r.Intn(3 * w)
		tid := alone
		for i := 0; i < seq+20+r.Intn(40); i++ {
			if i >= seq && r.Intn(4) == 0 {
				tid = ids.ThreadID(1 + r.Intn(4))
			}
			s := renewStep{gap: time.Duration(1 + r.Intn(1000))}
			s.a = acc(tid, ids.ObjectID(1+r.Intn(3)), ids.OpID(101+r.Intn(8)), Kind(r.Intn(2)))
			out = append(out, s)
		}
	}
	return out[:n]
}

// phaseProbe drives a TSVD beside the model. Before each call it asks the
// detector for its verdict; the call's near-miss candidates are what it adds
// to NearMisses and SequentialSkips together, and the model's skips are the
// candidates of the calls it calls sequential.
type phaseProbe struct {
	*TSVD
	model        phaseModel
	skips        int64
	calls, seq   int
	firstDiffers string
}

func (p *phaseProbe) OnCall(a Access) {
	want := p.model.call(a.Thread)
	got := p.rt.concurrent(p.rt.threadStateFor(a.Thread), a.Thread, noCall, 0)
	before := p.Stats()
	p.TSVD.OnCall(a)
	after := p.Stats()
	if !want {
		p.seq++
		p.skips += after.NearMisses + after.SequentialSkips - before.NearMisses - before.SequentialSkips
	}
	p.calls++
	if got != want && p.firstDiffers == "" {
		p.firstDiffers = fmt.Sprintf("call %d (thread %d): detector concurrent=%v, model %v", p.calls, a.Thread, got, want)
	}
}

// TestPhaseMatchesReferenceModel: on bursty four-thread streams and windows
// of 2–31, the detector's concurrent-phase verdict is the paper's ring of
// the last W thread ids, call for call, and so are the near misses it skips
// as sequential. Each detector is a renewed one that ran another window
// first, so nothing of a previous run's call times may survive Renew.
func TestPhaseMatchesReferenceModel(t *testing.T) {
	var seq, skips int64
	for w := 2; w <= 31; w++ {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := testConfig(config.AlgoTSVD)
			cfg.Mode = config.ModeObserveOnly // pairs form, nobody sleeps
			cfg.ObjHistory = 64               // other threads' accesses outlast a window
			cfg.PhaseBufferSize = 2 + (w*7)%30
			clk := &scriptClock{}
			d := mustNew(t, cfg, WithClock(clk))
			drive(d, clk, phaseStream(-seed, cfg.PhaseBufferSize, 500))

			cfg.PhaseBufferSize = w
			clk = &scriptClock{}
			d, err := Renew(d, cfg, WithClock(clk))
			if err != nil {
				t.Fatal(err)
			}
			p := &phaseProbe{TSVD: d.(*TSVD), model: phaseModel{ring: make([]ids.ThreadID, w)}}
			drive(p, clk, phaseStream(seed, w, 1500))
			if p.firstDiffers != "" {
				t.Fatalf("W %d seed %d: %s", w, seed, p.firstDiffers)
			}
			if got := p.Stats().SequentialSkips; got != p.skips {
				t.Fatalf("W %d seed %d: %d sequential skips, the model %d", w, seed, got, p.skips)
			}
			seq, skips = seq+int64(p.seq), skips+p.skips
		}
	}
	t.Logf("%d calls the model calls sequential, %d near misses skipped", seq, skips)
	if seq == 0 || skips == 0 {
		t.Fatalf("the streams exercised too little: %d sequential calls, %d skips", seq, skips)
	}
}

// TestPhaseTiesAreConcurrent: another thread's call at the very time of this
// thread's (W−1)-th previous one keeps the phase concurrent, whichever of the
// two came first; one nanosecond earlier it does not. Thread 2's old access
// to the object is the near-miss candidate, too old to settle the verdict,
// so the thread registry is scanned.
func TestPhaseTiesAreConcurrent(t *testing.T) {
	for _, c := range []struct {
		other        time.Duration
		wantSkips    int64
		otherIsFirst bool
	}{{5, 0, false}, {5, 0, true}, {4, 1, true}} {
		cfg := testConfig(config.AlgoTSVD)
		cfg.PhaseBufferSize = 2
		clk := &scriptClock{}
		d := mustNew(t, cfg, WithClock(clk))
		call := func(at time.Duration, a Access) {
			clk.at = at
			d.OnCall(a)
		}
		call(1, acc(2, 1, 201, KindWrite))
		call(2, acc(1, 4, 103, KindWrite))
		if c.otherIsFirst {
			call(c.other, acc(2, 3, 202, KindWrite))
		}
		call(5, acc(1, 2, 101, KindWrite))
		if !c.otherIsFirst {
			call(c.other, acc(2, 3, 202, KindWrite))
		}
		call(6, acc(1, 1, 102, KindWrite))
		if st := d.Stats(); st.SequentialSkips != c.wantSkips || st.NearMisses != 1-c.wantSkips {
			t.Errorf("thread 2's latest call at %v (first: %v): %d sequential skips, %d near misses", c.other, c.otherIsFirst, st.SequentialSkips, st.NearMisses)
		}
	}
}

// TestCoverageAsksOnceASecondThreadExists: a site a thread runs for the first
// time right after a second thread's first call is seen concurrently, though
// the thread's earlier calls, alone, were all sequential; and after a
// sequential verdict that took a scan the thread asks again W calls later.
func TestCoverageAsksOnceASecondThreadExists(t *testing.T) {
	cfg := testConfig(config.AlgoTSVD)
	cfg.PhaseBufferSize = 4
	clk := &scriptClock{}
	d := mustNew(t, cfg, WithClock(clk))
	call := func(a Access) {
		clk.at++
		d.OnCall(a)
	}
	check := func(when string, seen, concurrent int64) {
		t.Helper()
		if st := d.Stats(); st.LocationsSeen != seen || st.LocationsSeenConcurrent != concurrent {
			t.Fatalf("%s: %d of %d sites seen concurrently, want %d of %d", when, st.LocationsSeenConcurrent, st.LocationsSeen, concurrent, seen)
		}
	}
	for i := 0; i < 3; i++ {
		call(acc(1, 1, 101, KindWrite))
	}
	check("a lone thread", 1, 0)
	call(acc(2, 2, 201, KindWrite))
	call(acc(1, 1, 102, KindWrite))
	check("a second thread's first call", 3, 2)
	for i := 0; i < 3; i++ {
		call(acc(1, 1, 101, KindWrite))
	}
	check("the first thread's first site again", 3, 3)
	// Thread 1's window now holds only its own calls: its next new site is
	// sequential, and that verdict, a scan, is rationed.
	call(acc(1, 1, 103, KindWrite))
	for i := 0; i < 3; i++ {
		call(acc(2, 2, 201, KindWrite))
		call(acc(1, 1, 103, KindWrite))
	}
	check("within W calls of a sequential verdict", 4, 3)
	call(acc(2, 2, 201, KindWrite))
	call(acc(1, 1, 103, KindWrite))
	check("W calls later", 4, 4)
}

// delayProbe drives a TSVD beside the model and notes, for each call, whether
// it planned a delay (DelaysSuppressed: observe-only mode plans and does not
// sleep) or withheld one as sequential (DelaysSkippedSequential).
type delayProbe struct {
	*TSVD
	model             phaseModel
	planned, withheld int64
	calls             int
	firstDiffers      string
}

func (p *delayProbe) OnCall(a Access) {
	want := p.model.call(a.Thread)
	before := p.Stats()
	p.TSVD.OnCall(a)
	after := p.Stats()
	planned := after.DelaysSuppressed - before.DelaysSuppressed
	withheld := after.DelaysSkippedSequential - before.DelaysSkippedSequential
	p.planned, p.withheld = p.planned+planned, p.withheld+withheld
	p.calls++
	ok := want && planned == 1 && withheld == 0 || !want && planned == 0 && withheld == 1
	if !ok && p.firstDiffers == "" {
		p.firstDiffers = fmt.Sprintf("call %d (thread %d): %d delay(s) planned, %d withheld; the model calls it concurrent=%v",
			p.calls, a.Thread, planned, withheld, want)
	}
}

// TestDelayPlanMatchesPhaseModel: should_delay plans a delay only in a
// concurrent phase (§3.4.3). On TestPhaseMatchesReferenceModel's streams,
// with every location of the stream in a live self-pair at probability 1
// (decay off, and in observe-only mode no delay sleeps or decays), every call
// wins its coin flip, and it plans a delay iff the paper's ring of the last W
// thread ids says concurrent — asked after the call is recorded, so a window
// shifted by that one call shows, whatever W's ring of call times holds. A
// self-pair's one location is the earlier side of each of its near misses,
// so it stays delayable all along.
func TestDelayPlanMatchesPhaseModel(t *testing.T) {
	var traps []report.PairKey
	for op := ids.OpID(101); op <= 108; op++ {
		traps = append(traps, report.KeyOf(op, op))
	}
	var planned, withheld int64
	for w := 2; w <= 31; w++ {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := testConfig(config.AlgoTSVD)
			cfg.Mode = config.ModeObserveOnly
			cfg.DecayFactor = 0
			cfg.PhaseBufferSize = w
			clk := &scriptClock{}
			p := &delayProbe{TSVD: mustNew(t, cfg, WithClock(clk), WithInitialTraps(traps)).(*TSVD),
				model: phaseModel{ring: make([]ids.ThreadID, w)}}
			drive(p, clk, phaseStream(seed, w, 1500))
			if p.firstDiffers != "" {
				t.Fatalf("W %d seed %d: %s", w, seed, p.firstDiffers)
			}
			planned, withheld = planned+p.planned, withheld+p.withheld
		}
	}
	t.Logf("%d delays planned, %d withheld as sequential", planned, withheld)
	if withheld == 0 || planned == 0 {
		t.Fatalf("the streams exercised too little: %d planned, %d withheld", planned, withheld)
	}
}
