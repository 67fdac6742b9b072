package harness

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// moduleRun is what the moduleRan hook saw of one module run.
type moduleRun struct {
	det    core.Detector
	panics int
}

// watchModules sets the moduleRan hook for the test's duration: each call
// is recorded per worker, in order, and then handed to also (if not nil).
func watchModules(t *testing.T, also func(det core.Detector)) map[int][]moduleRun {
	t.Helper()
	var mu sync.Mutex
	seen := map[int][]moduleRun{}
	moduleRan = func(w int, det core.Detector, panics int) {
		mu.Lock()
		defer mu.Unlock()
		seen[w] = append(seen[w], moduleRun{det, panics})
		if also != nil {
			also(det)
		}
	}
	t.Cleanup(func() { moduleRan = nil })
	return seen
}

// panickingModule is a module whose second test panics after a call.
func panickingModule(name string) *workload.Module {
	call := func(env *workload.Env) {
		op := ids.InternKey(name)
		env.Det.OnCall(core.Access{Thread: ids.CurrentThreadID(), Obj: 1, Op: op,
			Site: env.Det.Sites().Register(op, "", "", true), Kind: core.KindWrite})
	}
	return &workload.Module{Name: name, Tests: []workload.Test{
		{Name: "calls", NominalUnits: 1, Body: call},
		{Name: "panics", NominalUnits: 1, Body: func(env *workload.Env) { call(env); panic(name) }},
	}}
}

// TestWorkersRenewTheirDetector: a worker runs each of its modules on the
// detector it ran the last one on, renewed — unless a test of that module
// panicked, when the next module gets a new detector. A panicking body may
// leave goroutines behind that still call the old one.
func TestWorkersRenewTheirDetector(t *testing.T) {
	suite := workload.GenerateSuite(5, 12)
	for _, i := range []int{1, 5, 6, 9} {
		suite.Modules[i] = panickingModule(suite.Modules[i].Name)
	}
	seen := watchModules(t, nil)
	o := opts(config.AlgoTSVD, 1)
	o.Parallelism = 2
	out := Run(suite, o)
	if out.Panics != 4 {
		t.Fatalf("%d panics, want 4", out.Panics)
	}
	runs, renewed, fresh := 0, 0, 0
	for w, mods := range seen {
		for i, m := range mods {
			runs++
			if i == 0 {
				continue
			}
			switch same := m.det == mods[i-1].det; {
			case mods[i-1].panics > 0 && same:
				t.Errorf("worker %d: module run %d reused the detector of a module that panicked", w, i+1)
			case mods[i-1].panics > 0:
				fresh++
			case !same:
				t.Errorf("worker %d: module run %d got a new detector after a module without a panic", w, i+1)
			default:
				renewed++
			}
		}
	}
	if runs != len(suite.Modules) || renewed == 0 || fresh == 0 {
		t.Fatalf("%d module runs, %d on a renewed detector, %d on a new one after a panic", runs, renewed, fresh)
	}
}

// TestMetricsAcrossRenewals: a Metrics-attached run whose workers renew
// their detectors reads, in a scrape taken after every module run, counters
// that never decrease, and ends with tsvd_detector_* counters equal to the
// outcome's Stats and a trap-set gauge equal to the sum of every module run's
// final set, as when every module run had a detector of its own. The view
// holds only the detectors that were not renewed: at most one a worker plus
// one a panicking module.
func TestMetricsAcrossRenewals(t *testing.T) {
	suite := workload.GenerateSuite(21, 20)
	suite.Modules = append(suite.Modules, panickingModule("panics"))
	reg := metrics.NewRegistry()
	o := opts(config.AlgoTSVD, 2)
	o.Parallelism = 3
	o.Config.Trace = true
	o.Metrics = core.NewDetectorMetrics(reg)

	var last map[string]float64
	var pairs int
	dets := map[core.Detector]bool{}
	seen := watchModules(t, func(det core.Detector) {
		got := reg.Values()
		for k, v := range last {
			if counter(k) && got[k] < v {
				t.Errorf("%s fell from %v to %v", k, v, got[k])
			}
		}
		last = got
		pairs += len(det.ExportTraps())
		dets[det] = true
	})
	out := Run(suite, o)
	if out.Stats.OnCalls == 0 || out.Stats.PairsAdded == 0 || out.Panics != 2 {
		t.Fatalf("the suite exercised too little: %d panics, %+v", out.Panics, out.Stats)
	}
	modRuns := 0
	for _, mods := range seen {
		modRuns += len(mods)
	}
	if modRuns != 2*len(suite.Modules) {
		t.Fatalf("%d module runs seen, want %d", modRuns, 2*len(suite.Modules))
	}

	got := reg.Values()
	if err := core.CheckCounters(got, out.Stats); err != nil {
		t.Error(err)
	}
	want := map[string]float64{
		"tsvd_detector_trap_set_pairs": float64(pairs),
		"tsvd_detector_instances":      float64(modRuns),
		"tsvd_trace_emitted_total":     float64(out.TraceTotals.Emitted),
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if limit := o.Parallelism + out.Panics; len(dets) > limit {
		t.Errorf("%d detectors over two runs of %d workers with %d panics, want at most %d",
			len(dets), o.Parallelism, out.Panics, limit)
	}
}

// counter reports whether a series only ever grows: a counter or a
// histogram's count, sum or bucket.
func counter(series string) bool {
	name, _, _ := strings.Cut(series, "{")
	for _, suffix := range []string{"_total", "_count", "_sum", "_bucket", "_instances"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}
