package clock

import (
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

// TestRealSleepReusesTimers: a pooled timer that fired, or was stopped by an
// early wake, never leaks its old expiry into the next sleep.
func TestRealSleepReusesTimers(t *testing.T) {
	c := Real{}
	closed := make(chan struct{})
	close(closed)
	for i := 0; i < 50; i++ {
		if _, woken := c.Sleep(time.Hour, closed); !woken {
			t.Fatal("sleep on a closed cancel channel ran to its timer")
		}
		if slept, woken := c.Sleep(200*time.Microsecond, nil); woken || slept < 200*time.Microsecond {
			t.Fatalf("Sleep(200µs) = %v, %v after a reused timer", slept, woken)
		}
	}
}
