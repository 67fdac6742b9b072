package harness

import (
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestProgressHeartbeat: the Progress callback ticks while the suite runs
// and its final update reconciles with the outcome.
func TestProgressHeartbeat(t *testing.T) {
	suite := workload.GenerateSuite(21, 20)
	var mu sync.Mutex
	var updates []ProgressUpdate
	o := opts(config.AlgoTSVD, 2)
	o.ProgressInterval = 5 * time.Millisecond
	o.Progress = func(u ProgressUpdate) {
		mu.Lock()
		updates = append(updates, u)
		mu.Unlock()
	}
	out := Run(suite, o)

	mu.Lock()
	defer mu.Unlock()
	if len(updates) == 0 {
		t.Fatal("Progress never fired")
	}
	for i := 1; i < len(updates); i++ {
		if updates[i].ModulesDone < updates[i-1].ModulesDone {
			t.Fatalf("ModulesDone went backwards: %+v -> %+v", updates[i-1], updates[i])
		}
	}
	last := updates[len(updates)-1]
	wantTotal := 2 * len(suite.Modules)
	if last.ModulesTotal != wantTotal || last.ModulesDone != wantTotal {
		t.Fatalf("final update incomplete: %+v (want %d/%d modules)", last, wantTotal, wantTotal)
	}
	if last.Run != 2 || last.Runs != 2 {
		t.Fatalf("final update run counters: %+v", last)
	}
	if last.DelaysInjected != out.Stats.DelaysInjected {
		t.Fatalf("final DelaysInjected %d != outcome %d", last.DelaysInjected, out.Stats.DelaysInjected)
	}
	// BugsFound counts unique reported pairs, which is at least the planted
	// bugs the outcome classified.
	if last.BugsFound < out.TotalFound() {
		t.Fatalf("final BugsFound %d < outcome found %d", last.BugsFound, out.TotalFound())
	}
	if last.Elapsed <= 0 {
		t.Fatalf("final Elapsed = %v", last.Elapsed)
	}
}

// TestHarnessMetricsReconcileWithOutcome: Options.Metrics attaches every
// module detector to one registry, and the post-suite scrape equals the
// outcome's summed stats exactly.
func TestHarnessMetricsReconcileWithOutcome(t *testing.T) {
	suite := workload.GenerateSuite(21, 20)
	reg := metrics.NewRegistry()
	o := opts(config.AlgoTSVD, 2)
	o.Metrics = core.NewDetectorMetrics(reg)
	out := Run(suite, o)

	got := reg.Values()
	if err := core.CheckCounters(got, out.Stats); err != nil {
		t.Error(err)
	}
	if want := float64(2 * len(suite.Modules)); got["tsvd_detector_instances"] != want {
		t.Errorf("tsvd_detector_instances = %v, want %v", got["tsvd_detector_instances"], want)
	}
	if out.Stats.OnCalls == 0 {
		t.Fatal("suite exercised nothing")
	}
}
