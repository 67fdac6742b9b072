package core_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ids"
)

// The two sides of a violation, each reached through its own helper so that
// the user's frame of either stack has a known name. catchOn parks a trap on
// obj from a new goroutine, springs it from the caller's, and returns once
// the sleeper has woken.

//go:noinline
func trappedSide(det core.Detector, obj ids.ObjectID) {
	core.InjectDelay(det, core.Access{Thread: 1 << 40, Obj: obj, Op: 7001, Kind: core.KindWrite}, 2*time.Second)
}

//go:noinline
func trappedSideByAnotherPath(det core.Detector, obj ids.ObjectID) { trappedSide(det, obj) }

//go:noinline
func conflictingSide(det core.Detector, obj ids.ObjectID) {
	det.OnCall(core.Access{Thread: 2 << 40, Obj: obj, Op: 7002, Kind: core.KindWrite})
}

func catchOn(t *testing.T, det core.Detector, obj ids.ObjectID, park func(core.Detector, ids.ObjectID)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		park(det, obj)
	}()
	for i := 0; core.Parked(det) == 0; i++ {
		if i > 50000 {
			t.Fatal("trap never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	conflictingSide(det, obj)
	<-done
}

// TestSprungTrapReportsBothStacks: the delayed side is kept as program
// counters and rendered only now, and the report is none the poorer for it —
// both stacks are there, as deep as runtime.Callers said, each leaving the
// detector through the user's frame of its side.
func TestSprungTrapReportsBothStacks(t *testing.T) {
	det, err := core.New(config.Defaults(config.AlgoTSVD).Scaled(0.1))
	if err != nil {
		t.Fatal(err)
	}
	catchOn(t, det, 1, trappedSide)
	vs := det.Reports().Violations()
	if len(vs) != 1 {
		t.Fatalf("%d violations, want 1", len(vs))
	}
	for _, side := range []struct {
		name, user string
		pcs        []uintptr
		stack      string
	}{
		{"trapped", "repro/internal/core_test.trappedSide", vs[0].Trapped.PCs, vs[0].Trapped.Stack},
		{"conflicting", "repro/internal/core_test.conflictingSide", vs[0].Conflicting.PCs, vs[0].Conflicting.Stack},
	} {
		if side.stack == "" || len(side.pcs) == 0 {
			t.Fatalf("%s side has no stack", side.name)
		}
		if lines := strings.Count(side.stack, "\n"); lines != 2*len(side.pcs) {
			t.Errorf("%s stack has %d lines for %d frames:\n%s", side.name, lines, len(side.pcs), side.stack)
		}
		if !strings.HasPrefix(side.stack, "repro/internal/core.") {
			t.Errorf("%s stack does not start inside the detector:\n%s", side.name, side.stack)
		}
		if !strings.Contains(side.stack, "\n"+side.user+"(...)\n") {
			t.Errorf("%s stack does not pass through %s:\n%s", side.name, side.user, side.stack)
		}
	}
}

// TestStackPairsCountCallPathsNotOccurrences: stack text used to carry
// argument values, so every occurrence was a stack pair of its own.
func TestStackPairsCountCallPathsNotOccurrences(t *testing.T) {
	det, err := core.New(config.Defaults(config.AlgoTSVD).Scaled(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for obj := ids.ObjectID(1); obj <= 2; obj++ { // one call site: identical paths
		catchOn(t, det, obj, trappedSide)
	}
	bugs := det.Reports().Bugs()
	if len(bugs) != 1 || bugs[0].Occurrences != 2 || bugs[0].StackPairs != 1 {
		t.Fatalf("two catches through one call path: %d bugs, %d occurrences, %d stack pairs; want 1, 2, 1",
			len(bugs), bugs[0].Occurrences, bugs[0].StackPairs)
	}
	catchOn(t, det, 3, trappedSideByAnotherPath)
	if b := det.Reports().Bugs()[0]; b.Occurrences != 3 || b.StackPairs != 2 {
		t.Fatalf("a third catch through another path: %d occurrences, %d stack pairs; want 3, 2", b.Occurrences, b.StackPairs)
	}
}
