package report

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/ids"
)

func mkViolation(op1, op2 ids.OpID, stack1, stack2 string) Violation {
	return Violation{
		Object: 7,
		Trapped: Side{
			Thread: 1, Op: op1, Write: true,
			Class: "Dictionary", Method: "Add", Stack: stack1,
		},
		Conflicting: Side{
			Thread: 2, Op: op2, Write: false,
			Class: "Dictionary", Method: "ContainsKey", Stack: stack2,
		},
	}
}

func TestKeyOfCanonical(t *testing.T) {
	if KeyOf(5, 3) != KeyOf(3, 5) {
		t.Fatal("KeyOf is not order-insensitive")
	}
	k := KeyOf(5, 3)
	if k.A != 3 || k.B != 5 {
		t.Fatalf("KeyOf(5,3) = %+v, want sorted", k)
	}
	if KeyOf(4, 4) != (PairKey{4, 4}) {
		t.Fatal("self-pair broken")
	}
}

func TestViolationPredicates(t *testing.T) {
	v := mkViolation(10, 20, "", "")
	if v.SameLocation() {
		t.Fatal("distinct locations reported same")
	}
	if !v.ReadWrite() {
		t.Fatal("write/read pair not detected as read-write")
	}
	same := mkViolation(10, 10, "", "")
	same.Conflicting.Write = true
	if !same.SameLocation() || same.ReadWrite() {
		t.Fatal("same-location write-write misclassified")
	}
	if v.Key() != KeyOf(10, 20) {
		t.Fatal("Key mismatch")
	}
}

func TestCollectorDedupByLocationPair(t *testing.T) {
	c := NewCollector()
	// The same bug manifests 3 times through 2 distinct stack pairs.
	c.Add(mkViolation(10, 20, "sA", "sB"))
	c.Add(mkViolation(10, 20, "sA", "sB"))
	c.Add(mkViolation(10, 20, "sC", "sD"))
	// Roles swapped: same two stacks, still the same stack pair.
	swapped := mkViolation(20, 10, "sB", "sA")
	c.Add(swapped)
	// A different bug.
	c.Add(mkViolation(10, 30, "x", "y"))

	if got := c.UniqueBugs(); got != 2 {
		t.Fatalf("UniqueBugs = %d, want 2", got)
	}
	bugs := c.Bugs()
	if len(bugs) != 2 {
		t.Fatalf("len(Bugs) = %d", len(bugs))
	}
	first := bugs[0] // sorted: (10,20) before (10,30)
	if first.Key != KeyOf(10, 20) {
		t.Fatalf("first bug key = %+v", first.Key)
	}
	if first.Occurrences != 4 {
		t.Fatalf("Occurrences = %d, want 4", first.Occurrences)
	}
	if first.StackPairs != 2 {
		t.Fatalf("StackPairs = %d, want 2 (role swap is the same pair)", first.StackPairs)
	}
	if got := len(c.Violations()); got != 5 {
		t.Fatalf("Violations = %d, want 5", got)
	}
}

func TestCollectorConcurrentAdd(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Add(mkViolation(ids.OpID(g), ids.OpID(i%10), "a", "b"))
			}
		}(g)
	}
	wg.Wait()
	if got := len(c.Violations()); got != 800 {
		t.Fatalf("Violations = %d, want 800", got)
	}
}

func TestCollectorMerge(t *testing.T) {
	a := NewCollector()
	a.Add(mkViolation(1, 2, "s1", "s2"))
	b := NewCollector()
	b.Add(mkViolation(1, 2, "s3", "s4"))
	b.Add(mkViolation(3, 4, "s5", "s6"))
	a.Merge(b)
	if a.UniqueBugs() != 2 {
		t.Fatalf("UniqueBugs after merge = %d, want 2", a.UniqueBugs())
	}
	bugs := a.Bugs()
	if bugs[0].Occurrences != 2 || bugs[0].StackPairs != 2 {
		t.Fatalf("merged bug = %+v", bugs[0])
	}
}

// TestCollectorReset: a reset collector holds nothing and counts afresh,
// while what it returned before the reset keeps its values.
func TestCollectorReset(t *testing.T) {
	c := NewCollector()
	c.Add(mkViolation(1, 2, "s1", "s2"))
	c.Add(mkViolation(1, 2, "s3", "s4"))
	bugs, all := c.Bugs(), c.Violations()
	c.Reset()
	if c.UniqueBugs() != 0 || len(c.Violations()) != 0 || len(c.Bugs()) != 0 {
		t.Fatalf("after Reset: %d bugs, %d violations", c.UniqueBugs(), len(c.Violations()))
	}
	c.Add(mkViolation(3, 4, "s5", "s6"))
	if got := c.Bugs(); len(got) != 1 || got[0].Key != KeyOf(3, 4) || got[0].Occurrences != 1 {
		t.Fatalf("after Reset and one Add: %+v", got)
	}
	if len(bugs) != 1 || bugs[0].Occurrences != 2 || len(all) != 2 || all[1].Trapped.Stack != "s3" {
		t.Fatalf("Reset changed what the collector returned before it: %+v, %+v", bugs, all)
	}
}

func TestViolationString(t *testing.T) {
	v := mkViolation(10, 20, "stackLineA\nstackLineB", "stackLineC")
	s := v.String()
	for _, want := range []string{
		"thread-safety violation", "Dictionary.Add", "Dictionary.ContainsKey",
		"write", "read", "stackLineA", "stackLineC", "thread 1", "thread 2",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}
