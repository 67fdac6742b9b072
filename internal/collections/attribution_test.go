package collections

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ids"
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
