package harness

import (
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/trapfile"
	"repro/internal/trapstore"
	"repro/internal/workload"
)

// TestTrapFileAcrossProcesses models the paper's two-process deployment the
// way `tsvd-run -trapfile` performs it: process 1 runs once and publishes its
// trap set to a local trap file; process 2 (a fresh harness invocation over
// the same file) catches single-occurrence bugs on its very first run.
func TestTrapFileAcrossProcesses(t *testing.T) {
	suite := workload.GenerateSuite(33, 120) // cold-bug-rich seed
	if suite.BugsByKind()[workload.BugCold] < 3 {
		t.Fatalf("suite has too few cold bugs: %v", suite.BugsByKind())
	}
	path := filepath.Join(t.TempDir(), "traps.json")
	process := func() *Outcome {
		o := opts(config.AlgoTSVD, 1)
		o.Store = trapstore.NewFileStore(path, nil)
		out := Run(suite, o)
		if out.StoreErr != nil {
			t.Fatal(out.StoreErr)
		}
		return out
	}

	p1 := process()
	persisted, err := trapfile.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(persisted.Pairs) == 0 {
		t.Fatal("process 1 left no pairs in its trap file (sites not interned?)")
	}
	p2 := process()

	coldP1 := p1.FoundByKind(suite)[workload.BugCold]
	coldP2 := p2.FoundByKind(suite)[workload.BugCold]
	if coldP2 <= coldP1 {
		t.Fatalf("trap file across processes did not help cold bugs: p1=%d p2=%d",
			coldP1, coldP2)
	}
}

// TestGapHistogramObserved: near misses populate the gap histogram and it
// survives harness aggregation.
func TestGapHistogramObserved(t *testing.T) {
	suite := workload.GenerateSuite(21, 20)
	out := Run(suite, opts(config.AlgoTSVD, 1))
	if out.Stats.NearMisses == 0 {
		t.Fatal("no near misses to histogram")
	}
	if got := out.Stats.NearMissGaps.Total(); got != out.Stats.NearMisses {
		t.Fatalf("histogram total %d != near misses %d", got, out.Stats.NearMisses)
	}
	if out.Stats.NearMissGaps.String() == "(empty)" {
		t.Fatal("histogram rendered empty")
	}
}

// TestGapHistogramBuckets pins the log₂ bucketing contract.
func TestGapHistogramBuckets(t *testing.T) {
	var h core.GapHistogram
	h.Observe(0)                  // bucket 0
	h.Observe(1500 * 1000)        // 1500µs → bucket 10 ([1024,2048))
	h.Observe(3 * 1000)           // 3µs → bucket 1
	h.Observe(1 << 40 * 1000_000) // absurd: clamps to last bucket
	if h[0] != 1 || h[1] != 1 || h[10] != 1 || h[len(h)-1] != 1 {
		t.Fatalf("bucketing wrong: %v", h)
	}
	if h.Total() != 4 {
		t.Fatalf("Total = %d", h.Total())
	}
	var sum core.GapHistogram
	sum.Add(h)
	sum.Add(h)
	if sum.Total() != 8 {
		t.Fatalf("Add broken: %d", sum.Total())
	}
}
