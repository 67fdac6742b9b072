package tsvd

// Microbenchmarks of the OnCall hot path and of one instrumented call end to
// end — what bench_gate.json gates and `make bench` runs. The paper's tables
// and figures are regenerated by `tsvd-bench -exp` (internal/experiments).

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/collections"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/metrics"
)

// --- OnCall hot-path microbenchmarks ---

func benchOnCall(b *testing.B, algo config.Algorithm) {
	b.Helper()
	det, err := core.New(config.Defaults(algo))
	if err != nil {
		b.Fatal(err)
	}
	a := core.Access{
		Thread: ids.CurrentThreadID(), Obj: 1, Op: 42,
		Site: det.Sites().Register(42, "Dictionary", "ContainsKey", false),
		Kind: core.KindRead,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.OnCall(a)
	}
}

func BenchmarkOnCall_TSVD(b *testing.B)   { benchOnCall(b, config.AlgoTSVD) }
func BenchmarkOnCall_TSVDHB(b *testing.B) { benchOnCall(b, config.AlgoTSVDHB) }
func BenchmarkOnCall_Nop(b *testing.B)    { benchOnCall(b, config.AlgoNop) }

// BenchmarkOnCallUncontended is the regression-gated figure: one goroutine,
// one object, the lock-free single-writer fast path end to end (TSC read,
// cached thread and object probes, publication CAS). cmd/tsvd-bench-gate runs
// the TSVD case against the threshold committed in bench_gate.json; `make
// bench-gate` (part of `make check`) fails the build when the fast path
// regresses past it.
func BenchmarkOnCallUncontended(b *testing.B) {
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB, config.AlgoNop} {
		b.Run(algo.String(), func(b *testing.B) { benchOnCall(b, algo) })
	}
}

// --- OnCall contention: many goroutines, conflict-free workload ---
//
// The scalability benchmark behind docs/PERFORMANCE.md: G goroutines hammer
// OnCall with *disjoint* objects and locations (KindWrite, so nothing is
// skipped as read-read), so no near miss, no dangerous pair and no delay ever
// forms and the measurement isolates pure detector-bookkeeping throughput.
// With disjoint objects every goroutine owns the objects it touches; the
// "sharedObj" variant aims every goroutine at one object (read-only, still
// conflict-free), which its reads promote to read-shared: each goroutine then
// records into the stripe of its own thread id, and a per-read store to a line
// the readers share shows here first (the TSVD case is gated in
// bench_gate.json).

// contentionParallelism converts a desired goroutine count into the
// per-GOMAXPROCS parallelism factor RunParallel understands.
func contentionParallelism(goroutines int) int {
	p := goroutines / runtime.GOMAXPROCS(0)
	if p < 1 {
		p = 1
	}
	return p
}

func benchContention(b *testing.B, algo config.Algorithm, goroutines int, shared, traced, metered bool, mutate ...func(*config.Config)) {
	b.Helper()
	cfg := config.Defaults(algo)
	cfg.Trace = traced
	for _, m := range mutate {
		m(&cfg)
	}
	var copts []core.Option
	if metered {
		copts = append(copts,
			core.WithDetectorMetrics(core.NewDetectorMetrics(metrics.NewRegistry())))
	}
	det, err := core.New(cfg, copts...)
	if err != nil {
		b.Fatal(err)
	}
	var workers atomic.Int64
	b.SetParallelism(contentionParallelism(goroutines))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := workers.Add(1)
		a := core.Access{
			Thread: ids.ThreadID(1000 + w),
			Obj:    ids.ObjectID(1000 + w),
			Op:     ids.OpID(1000 + w),
			Site:   det.Sites().Register(ids.OpID(1000+w), "Dictionary", "Add", true),
			Kind:   core.KindWrite,
		}
		if shared {
			a.Obj = 7 // every goroutine on one object ⇒ one object lock
			a.Kind = core.KindRead
			a.Site = det.Sites().Register(a.Op, "Dictionary", "ContainsKey", false)
		}
		for pb.Next() {
			det.OnCall(a)
		}
	})
	if det.Reports().UniqueBugs() != 0 {
		b.Fatal("conflict-free workload produced a report")
	}
}

func BenchmarkOnCallContention(b *testing.B) {
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB} {
		for _, g := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%v/goroutines=%d", algo, g), func(b *testing.B) {
				benchContention(b, algo, g, false, false, false)
			})
		}
		b.Run(fmt.Sprintf("%v/sharedObj/goroutines=8", algo), func(b *testing.B) {
			benchContention(b, algo, 8, true, false, false)
		})
		// Tracing enabled on the same conflict-free workload: the fast path
		// crosses no emission point, so this pins the observability layer's
		// hot-path overhead (<5% is the budget docs/PERFORMANCE.md records).
		for _, g := range []int{1, 8} {
			b.Run(fmt.Sprintf("%v/trace/goroutines=%d", algo, g), func(b *testing.B) {
				benchContention(b, algo, g, false, true, false)
			})
		}
		b.Run(fmt.Sprintf("%v/trace/sharedObj/goroutines=8", algo), func(b *testing.B) {
			benchContention(b, algo, 8, true, true, false)
		})
		// Live metrics attached on the same conflict-free workload: the Stats
		// series are function-backed and read only at scrape time, and the
		// histogram hooks sit on action paths this workload never crosses, so
		// the metered delta pins what attaching a registry costs the fast
		// path (<5% is the budget docs/PERFORMANCE.md records).
		for _, g := range []int{1, 8} {
			b.Run(fmt.Sprintf("%v/metrics/goroutines=%d", algo, g), func(b *testing.B) {
				benchContention(b, algo, g, false, false, true)
			})
		}
		b.Run(fmt.Sprintf("%v/metrics/sharedObj/goroutines=8", algo), func(b *testing.B) {
			benchContention(b, algo, 8, true, false, true)
		})
	}
}

// BenchmarkSharedReadChurn is the sharedObj workload under goroutine churn:
// the reading thread changes every reads calls, as a fresh goroutine per
// task would change it, so new thread ids keep arriving at a read-shared
// object whose eight read stripes older, finished threads have claimed. Such
// a read records under the object's lock (docs/PERFORMANCE.md, "What a
// second thread costs"). BenchmarkOnCallContention's sharedObj is the same
// workload without churn.
func BenchmarkSharedReadChurn(b *testing.B) {
	for _, reads := range []int{16, 4096} {
		b.Run(fmt.Sprintf("TSVD/reads=%d/goroutines=8", reads), func(b *testing.B) {
			det, err := core.New(config.Defaults(config.AlgoTSVD))
			if err != nil {
				b.Fatal(err)
			}
			site := det.Sites().Register(7, "Dictionary", "ContainsKey", false)
			var threads atomic.Int64
			b.SetParallelism(contentionParallelism(8))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				a := core.Access{Thread: ids.ThreadID(threads.Add(1)), Obj: 7, Op: 7, Site: site, Kind: core.KindRead}
				for n := 0; pb.Next(); n++ {
					if n == reads {
						n, a.Thread = 0, ids.ThreadID(threads.Add(1))
					}
					det.OnCall(a)
				}
			})
		})
	}
}

// BenchmarkOnCallContentionModes runs the same conflict-free contention
// workload under each sampling mode (docs/SAMPLING.md). Expectations the
// per-mode overhead table in docs/PERFORMANCE.md records:
//
//   - observe-only tracks full mode (it only suppresses sleeps, and this
//     workload never reaches a sleep);
//   - sampled at p=1 adds the admission draws, an entry timestamp and the
//     per-call charge to the overhead account;
//   - sampled at low p approaches the skip path's floor — one atomic
//     decrement of the goroutine's own countdown (these calls arrive with a
//     built Access; through a container the floor also skips the identity
//     prologue — BenchmarkDictionarySetSampledAuto);
//   - the auto-throttled run converges toward its target, so its steady
//     state looks like low p.
func BenchmarkOnCallContentionModes(b *testing.B) {
	modes := []struct {
		name string
		mut  func(*config.Config)
	}{
		{"full", func(*config.Config) {}},
		{"observe-only", func(c *config.Config) { c.Mode = config.ModeObserveOnly }},
		{"sampled-p1", func(c *config.Config) {
			c.Mode = config.ModeSampled
			c.SampleProbability = 1
		}},
		{"sampled-p0.01", func(c *config.Config) {
			c.Mode = config.ModeSampled
			c.SampleProbability = 0.01
		}},
		{"sampled-auto-1pct", func(c *config.Config) {
			c.Mode = config.ModeSampled
			c.SampleProbability = 1
			c.OverheadTarget = 0.01
		}},
	}
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB} {
		for _, m := range modes {
			b.Run(fmt.Sprintf("%v/%s/goroutines=8", algo, m.name), func(b *testing.B) {
				benchContention(b, algo, 8, false, false, false, m.mut)
			})
		}
	}
}

// BenchmarkDictionarySetInstrumented measures the end-to-end per-operation
// cost through the public API (prologue + detector + raw op).
func BenchmarkDictionarySetInstrumented(b *testing.B) {
	if _, err := Install(DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	d := NewDictionary[int, int]()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Set(i&1023, i)
	}
}

// BenchmarkDictionarySetRotating is the same call spread over 16 dictionaries
// the goroutine owns, picked by an LCG — the shape of the benchmark's
// hot_calls stream. Against BenchmarkDictionarySetInstrumented it prices what
// leaving the last-touched object costs: the thread state's one-entry object
// cache misses on 15 calls of 16, and those calls must still record lock-free
// (gated in bench_gate.json).
func BenchmarkDictionarySetRotating(b *testing.B) {
	if _, err := Install(DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	var ds [16]*Dictionary[int, int]
	for i := range ds {
		ds[i] = NewDictionary[int, int]()
	}
	b.ReportAllocs()
	b.ResetTimer()
	x := uint32(1)
	for i := 0; i < b.N; i++ {
		x = x*1664525 + 1013904223
		ds[x>>28].Set(i&1023, i)
	}
}

// BenchmarkDictionarySetRotatingParallel is BenchmarkDictionarySetRotating on
// GOMAXPROCS goroutines, each rotating over 16 dictionaries of its own — the
// hot_calls workload's shape. With a second thread about, every call also
// publishes its time for the phase verdicts, so this is the one benchmark
// where that store and the object-cache miss fall on the same call. ns/op is
// wall time over all goroutines' calls; ungated, docs/PERFORMANCE.md has its
// numbers.
func BenchmarkDictionarySetRotatingParallel(b *testing.B) {
	if _, err := Install(DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var ds [16]*Dictionary[int, int]
		for i := range ds {
			ds[i] = NewDictionary[int, int]()
		}
		x := uint32(1)
		for i := 0; pb.Next(); i++ {
			x = x*1664525 + 1013904223
			ds[x>>28].Set(i&1023, i)
		}
	})
}

// BenchmarkDictionarySetSampledAuto is the same call under the sampled tier
// with a 1 % overhead target: in steady state nearly every call is rejected
// by the admission countdown before it buys an identity, so this is what the
// tier's floor costs end to end (gated in bench_gate.json).
func BenchmarkDictionarySetSampledAuto(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Mode = ModeSampled
	cfg.SampleProbability = 1
	cfg.OverheadTarget = 0.01
	if _, err := Install(cfg); err != nil {
		b.Fatal(err)
	}
	d := NewDictionary[int, int]()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Set(i&1023, i)
	}
}

// BenchmarkDictionarySetUninstrumented is the same operation with a nil
// detector: the pay-as-you-go floor (no OnCall prologue at all).
func BenchmarkDictionarySetUninstrumented(b *testing.B) {
	d := collections.NewDictionary[int, int](nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Set(i&1023, i)
	}
}
