package collections

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/sites"
)

// opRecorder is a detector that hands the test the call site of every access
// it is told about, in order.
type opRecorder struct {
	core.Detector
	ops chan ids.OpID
}

func (r *opRecorder) OnCall(a core.Access) { r.ops <- a.Op }

// site is what ids.OpID.Key and Location must say about a call site.
type site struct{ key, loc string }

// callerSite asks the runtime's own unwinder where the function skip frames
// above callerSite's caller currently is, and names the line delta below it.
func callerSite(skip, delta int) site {
	var pcs [1]uintptr
	runtime.Callers(skip+2, pcs[:])
	f, _ := runtime.CallersFrames(pcs[:]).Next()
	key := fmt.Sprintf("%s:%d", f.File, f.Line+delta)
	return site{key, fmt.Sprintf("%s (%s)", key, f.Function)}
}

// lineAbove is the site of a call written on the line above lineAbove's own
// call, in the same function.
func lineAbove() site { return callerSite(1, -1) }

// storeCallSite stores where it was itself called from: for a deferred call
// that is where the surrounding function returns, for a goroutine's entry
// function it is the runtime's goexit.
func storeCallSite(to *site, done chan<- struct{}) {
	*to = callerSite(1, 0)
	if done != nil {
		close(done)
	}
}

func setVia[K comparable, V any](d *Dictionary[K, V], k K, v V) site {
	d.Set(k, v)
	return lineAbove()
}

// touch is one source line, and small enough to be inlined into each of its
// callers.
func touch(d *Dictionary[int, int]) int { return d.Count() }

func deferredClear(d *Dictionary[int, int]) (want site) {
	defer storeCallSite(&want, nil)
	defer d.Clear()
	return site{}
}

// TestCallSiteAttribution pins which source line an instrumented call is
// attributed to, for every shape of call the proxies are reached by, against
// what runtime.Callers reports for the same line. Each shape runs several
// times, so the answers come from the resolving path first and from the
// call-site cache afterwards; `make check` runs it again without inlining,
// which gives most of these shapes a different physical frame layout.
func TestCallSiteAttribution(t *testing.T) {
	det, err := core.New(config.Defaults(config.AlgoTSVD))
	if err != nil {
		t.Fatal(err)
	}
	rec := &opRecorder{Detector: det, ops: make(chan ids.OpID, 4)}
	d := NewDictionary[int, int](rec)

	touchFn := runtime.FuncForPC(reflect.ValueOf(touch).Pointer())
	touchFile, touchLine := touchFn.FileLine(touchFn.Entry())
	touchKey := fmt.Sprintf("%s:%d", touchFile, touchLine)
	touchSite := site{touchKey, fmt.Sprintf("%s (%s)", touchKey, touchFn.Name())}

	shapes := []struct {
		name string
		call func() []site // makes len(result) instrumented calls, in result order
	}{
		{"direct", func() []site {
			d.Set(1, 1)
			return []site{lineAbove()}
		}},
		{"interface", func() []site {
			var s interface{ Set(int, int) } = d
			s.Set(1, 1)
			return []site{lineAbove()}
		}},
		{"method value", func() []site {
			set := d.Set
			set(1, 1)
			return []site{lineAbove()}
		}},
		{"generic helper", func() []site {
			return []site{setVia(d, 1, 1)}
		}},
		{"deferred", func() []site {
			return []site{deferredClear(d)}
		}},
		{"goroutine entry", func() []site {
			var want site
			done := make(chan struct{})
			go storeCallSite(&want, done)
			<-done
			go d.Clear()
			return []site{want}
		}},
		{"adjacent lines", func() []site {
			d.Set(1, 1)
			first := lineAbove()
			d.Set(2, 2)
			return []site{first, lineAbove()}
		}},
		{"inlined helper, two callers", func() []site {
			touch(d)
			touch(d)
			return []site{touchSite, touchSite}
		}},
	}
	for pass := 0; pass < 3; pass++ {
		for _, shape := range shapes {
			for i, want := range shape.call() {
				op := <-rec.ops
				if got := (site{op.Key(), op.Location()}); got != want {
					t.Errorf("pass %d, %s, call %d: attributed to %q / %q, runtime.Callers says %q / %q",
						pass, shape.name, i, got.key, got.loc, want.key, want.loc)
				}
			}
		}
	}
	if len(rec.ops) != 0 {
		t.Fatalf("%d accesses nobody expected", len(rec.ops))
	}
}

// accessRecorder is a detector that keeps the accesses it is told about,
// without allocating while its buffer has room.
type accessRecorder struct {
	core.Detector
	got []core.Access
}

func (r *accessRecorder) OnCall(a core.Access) { r.got = append(r.got, a) }

func newAccessRecorder(t *testing.T) *accessRecorder {
	t.Helper()
	det, err := core.New(config.Defaults(config.AlgoTSVD))
	if err != nil {
		t.Fatal(err)
	}
	return &accessRecorder{Detector: det, got: make([]core.Access, 0, 64)}
}

// check fails the test unless the recorded accesses name the sites
// sites.Registry.ForCall gives their ops and the wanted APIs, in order —
// one API for all of them if one is given — and empties the record. It
// returns the accesses, valid until the next call.
func (r *accessRecorder) check(t *testing.T, want ...sites.Site) []core.Access {
	t.Helper()
	if len(want) != 1 && len(r.got) != len(want) {
		t.Fatalf("%d accesses, want %d", len(r.got), len(want))
	}
	for i, a := range r.got {
		w := want[min(i, len(want)-1)]
		if s := r.Sites().ForCall(a.Op, w.Class, w.Method, w.Write); a.Site != s {
			t.Fatalf("access %d at %q: site %d (%+v), ForCall says %d for %s.%s", i, a.Op.Key(), a.Site, r.Sites().Info(a.Site), s, w.Class, w.Method)
		}
	}
	got := r.got
	r.got = r.got[:0]
	return got
}

var (
	dictSet   = sites.Site{Class: "Dictionary", Method: "Set", Write: true}
	dictCount = sites.Site{Class: "Dictionary", Method: "Count"}
	listGet   = sites.Site{Class: "List", Method: "Get"}
	listCount = sites.Site{Class: "List", Method: "Count"}
)

// TestPrologueSitesAgreeWithForCall: the site a proxy reports is the one
// ForCall interns for its op and API, whichever way the call path's memo
// word answered — two proxies called on one source line, and one call
// instruction that reaches two container classes through an interface.
func TestPrologueSitesAgreeWithForCall(t *testing.T) {
	rec := newAccessRecorder(t)
	d, l := NewDictionary[int, int](rec), NewList[int](rec)
	l.Add(7)
	rec.got = rec.got[:0]
	counters := []interface{ Count() int }{d, l, d, l}
	for pass := 0; pass < 3; pass++ {
		d.Set(1, l.Get(0))
		if got := rec.check(t, listGet, dictSet); got[0].Op != got[1].Op {
			t.Fatalf("two calls on one line attributed to %q and %q", got[0].Op.Key(), got[1].Op.Key())
		}
		for _, c := range counters {
			c.Count()
		}
		rec.check(t, dictCount, listCount, dictCount, listCount)
	}
}

//go:noinline
func setOne(d *Dictionary[int, int]) { d.Set(1, 1) }

// TestProloguesAcrossDetectors: containers of two detectors — two
// registries — reached through one call path get right sites without
// allocating, one detector after the other (the later one takes the memo
// word over) and both at once.
func TestProloguesAcrossDetectors(t *testing.T) {
	first, second := newAccessRecorder(t), newAccessRecorder(t)
	d1, d2 := NewDictionary[int, int](first), NewDictionary[int, int](second)
	for i := 0; i < 3; i++ {
		setOne(d1)
	}
	first.check(t, dictSet)
	if allocs := allocsPerRun(10, func() { setOne(d2) }); allocs != 0 {
		t.Fatalf("a later detector's call allocates %.1f times", allocs)
	}
	second.check(t, dictSet)

	for round := 0; round < 20; round++ {
		setOne(d1)
		setOne(d2)
	}
	if allocs := allocsPerRun(10, func() { setOne(d1); setOne(d2) }); allocs != 0 {
		t.Fatalf("alternating detectors' calls allocate %.1f times a round", allocs)
	}
	first.check(t, dictSet)
	second.check(t, dictSet)
}

// allocsPerRun is testing.AllocsPerRun on call paths that are already
// resolved: AllocsPerRun calls f from two places, its warm-up and its loop,
// which are two call paths for every proxy f calls, and a call path's first
// call resolves its location, which allocates. The first AllocsPerRun makes
// those first calls.
func allocsPerRun(runs int, f func()) float64 {
	testing.AllocsPerRun(1, f)
	return testing.AllocsPerRun(runs, f)
}
