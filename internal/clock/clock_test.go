package clock

import (
	"sync"
	"testing"
	"time"
)

func TestRealSleepDuration(t *testing.T) {
	c := Real{}
	start := time.Now()
	slept, woken := c.Sleep(20*time.Millisecond, nil)
	elapsed := time.Since(start)
	if woken {
		t.Fatal("sleep reported early wake without a cancel")
	}
	if slept < 15*time.Millisecond {
		t.Fatalf("slept %v, want >= ~20ms", slept)
	}
	if elapsed < 15*time.Millisecond {
		t.Fatalf("elapsed %v, want >= ~20ms", elapsed)
	}
}

func TestRealSleepEarlyWake(t *testing.T) {
	c := Real{}
	cancel := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(cancel)
	}()
	start := time.Now()
	_, woken := c.Sleep(5*time.Second, cancel)
	if !woken {
		t.Fatal("sleep was not woken early")
	}
	if time.Since(start) > time.Second {
		t.Fatalf("early wake took %v", time.Since(start))
	}
}

func TestRealSleepZero(t *testing.T) {
	slept, woken := Real{}.Sleep(0, nil)
	if slept != 0 || woken {
		t.Fatalf("Sleep(0) = %v,%v", slept, woken)
	}
}

func TestBudgetUnlimited(t *testing.T) {
	var b *Budget // nil budget means unlimited
	if got := b.Allow(time.Hour); got != time.Hour {
		t.Fatalf("nil budget Allow = %v", got)
	}
	b2 := &Budget{} // zero Max also unlimited
	if got := b2.Allow(time.Hour); got != time.Hour {
		t.Fatalf("zero budget Allow = %v", got)
	}
}

func TestBudgetCapsAndExhausts(t *testing.T) {
	b := &Budget{Max: 100 * time.Millisecond}
	if got := b.Allow(60 * time.Millisecond); got != 60*time.Millisecond {
		t.Fatalf("first Allow = %v", got)
	}
	if got := b.Allow(60 * time.Millisecond); got != 40*time.Millisecond {
		t.Fatalf("second Allow = %v, want capped 40ms", got)
	}
	if got := b.Allow(time.Millisecond); got != 0 {
		t.Fatalf("exhausted Allow = %v, want 0", got)
	}
	if b.Used() != 100*time.Millisecond {
		t.Fatalf("Used = %v", b.Used())
	}
}

func TestBudgetRefund(t *testing.T) {
	b := &Budget{Max: 100 * time.Millisecond}
	b.Allow(100 * time.Millisecond)
	b.Refund(30 * time.Millisecond)
	if got := b.Allow(50 * time.Millisecond); got != 30*time.Millisecond {
		t.Fatalf("Allow after refund = %v, want 30ms", got)
	}
}

func TestBudgetTable(t *testing.T) {
	table := BudgetTable{Max: 10 * time.Millisecond}

	// Same thread always resolves to the same Budget, carrying Max.
	b := table.For(1)
	if b.Max != 10*time.Millisecond {
		t.Fatalf("Budget.Max = %v, want table Max", b.Max)
	}
	if table.For(1) != b {
		t.Fatal("second For(1) returned a different Budget")
	}
	if table.For(2) == b {
		t.Fatal("distinct threads share a Budget")
	}

	// Concurrent first lookups for one new thread agree on a single winner,
	// and charges land on that one budget.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			table.For(3).Allow(time.Millisecond)
		}()
	}
	wg.Wait()
	if got := table.For(3).Used(); got != 8*time.Millisecond {
		t.Fatalf("Used = %v, want 8ms (lost charges across For calls)", got)
	}

	// Range visits every thread exactly once.
	seen := map[int64]bool{}
	table.Range(func(thread int64, b *Budget) bool {
		if b == nil || seen[thread] {
			t.Fatalf("Range visited thread %d badly", thread)
		}
		seen[thread] = true
		return true
	})
	if len(seen) != 3 {
		t.Fatalf("Range visited %d threads, want 3", len(seen))
	}
}
