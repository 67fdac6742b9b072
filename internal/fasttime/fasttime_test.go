package fasttime

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestSinceTicksTracksWallClock: when the TSC path is enabled, its measured
// durations must agree with the standard clock to within a few percent. When
// disabled the test is vacuous — the detector falls back to time.Since.
func TestSinceTicksTracksWallClock(t *testing.T) {
	if !Enabled() {
		t.Skip("fasttime disabled on this host")
	}
	start := Ticks()
	t0 := time.Now()
	time.Sleep(20 * time.Millisecond)
	wall := time.Since(t0)
	got := SinceTicks(start)
	diff := got - wall
	if diff < 0 {
		diff = -diff
	}
	if diff > wall/20 {
		t.Fatalf("SinceTicks = %v, wall = %v (>5%% apart)", got, wall)
	}
}

// TestSinceTicksMonotone: repeated reads never go backwards.
func TestSinceTicksMonotone(t *testing.T) {
	if !Enabled() {
		t.Skip("fasttime disabled on this host")
	}
	start := Ticks()
	prev := SinceTicks(start)
	for i := 0; i < 100000; i++ {
		d := SinceTicks(start)
		if d < prev {
			t.Fatalf("duration went backwards: %v -> %v", prev, d)
		}
		prev = d
	}
}

func BenchmarkSinceTicks(b *testing.B) {
	if !Enabled() {
		b.Skip("fasttime disabled on this host")
	}
	start := Ticks()
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		sink += SinceTicks(start)
	}
	_ = sink
}

func BenchmarkTimeSince(b *testing.B) {
	start := time.Now()
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		sink += time.Since(start)
	}
	_ = sink
}

// The next three benchmarks take OnCall's timestamp apart (docs/PERFORMANCE.md,
// "Hot-path cost model"): a raw TSC read, the same read followed by a locked
// instruction — as the publication CAS follows OnCall's read — and the locked
// instruction alone. Every CAS succeeds, as the owner's publication CAS does.
// They measure; they gate nothing.

func BenchmarkTicks(b *testing.B) {
	if !Enabled() {
		b.Skip("fasttime disabled on this host")
	}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += ticks()
	}
	_ = sink
}

func BenchmarkTicksThenCAS(b *testing.B) {
	if !Enabled() {
		b.Skip("fasttime disabled on this host")
	}
	var w atomic.Uint64
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += ticks()
		w.CompareAndSwap(uint64(i), uint64(i+1))
	}
	_ = sink
}

func BenchmarkCAS(b *testing.B) {
	var w atomic.Uint64
	for i := 0; i < b.N; i++ {
		w.CompareAndSwap(uint64(i), uint64(i+1))
	}
}
