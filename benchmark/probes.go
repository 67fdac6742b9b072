package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fasttime"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/sampler"
	"repro/internal/sites"
	"repro/internal/syncx"
	"repro/internal/task"
	"repro/internal/trace"
)

// The layer probes time one exported function of one layer in a standalone
// loop, at the workload's worker count: several of these layers share state
// across goroutines (the runtime's stack-dump lock behind the goroutine id,
// the site table, an object's lock), and a single-goroutine number would
// hide exactly the cost the call workloads pay.

const probeBatch = 1024

// probeSink keeps results alive so the compiler cannot drop a probed call.
var probeSink atomic.Int64

// prober runs the probe loops: `workers` goroutines for `dur` each.
type prober struct {
	workers int
	dur     time.Duration
}

// run returns the median, over all batches of all workers, of the batch's
// mean nanoseconds per iteration. mk builds each worker's loop on the
// worker's own goroutine — several probes capture the goroutine's identity
// — and the loop runs n iterations per call.
func (p prober) run(mk func(worker int) func(n int)) float64 {
	return p.runN(p.workers, probeBatch, mk)
}

func (p prober) runN(workers, batch int, mk func(worker int) func(n int)) float64 {
	samples := make([][]float64, workers)
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	ready.Add(workers)
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer done.Done()
			loop := mk(w)
			loop(batch) // warm
			ready.Done()
			<-start
			for begin := time.Now(); time.Since(begin) < p.dur; {
				t := time.Now()
				loop(batch)
				samples[w] = append(samples[w], float64(time.Since(t).Nanoseconds())/float64(batch))
			}
		}(w)
	}
	ready.Wait()
	close(start)
	done.Wait()
	var all []float64
	for _, s := range samples {
		all = append(all, s...)
	}
	return median(all)
}

// proxyDepth is how many frames sit between a call workload's worker loop
// and the proxy prologue (batch, do, the container method, onCall). The
// goroutine id is parsed out of a stack dump, which costs more the deeper
// the stack is, so the probe has to run at the depth the calls run at.
const proxyDepth = 4

//go:noinline
func nest(depth int, f func()) {
	if depth > 1 {
		nest(depth-1, f)
		return
	}
	f()
}

// workerOp interns one location per probe and worker, so that no two
// workers share a site unless the probe means them to.
func workerOp(probe string, worker int) ids.OpID {
	return ids.InternKey(fmt.Sprintf("benchmark/%s.go:%d", probe, worker+1))
}

func mustDetector(cfg config.Config, opts ...core.Option) core.Detector {
	det, err := core.New(cfg, opts...)
	if err != nil {
		panic(err) // the configurations below are constants of this file
	}
	return det
}

// onCallLoop is the detector's OnCall with a pre-built access: everything
// the proxy prologue computes per call is computed once, outside the loop.
func onCallLoop(det core.Detector, obj ids.ObjectID, op ids.OpID, kind core.Kind) func(n int) {
	a := core.Access{
		Thread: ids.CurrentThreadID(), Obj: obj, Op: op, Kind: kind,
		Site: det.Sites().ForCall(op, "Dictionary", "Set", kind == core.KindWrite),
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			det.OnCall(a)
		}
	}
}

// runProbes measures every standalone layer metric.
func runProbes(ctx *runCtx) map[string]float64 {
	span := ctx.spans.begin("layer_probes", 0)
	defer ctx.spans.end(span)
	w := ctx.workers
	p := prober{workers: w, dur: max(ctx.share(0.006), 2*time.Millisecond)}
	out := map[string]float64{}

	var idFailures atomic.Int64
	out["ids.thread_id_ns"] = p.run(func(int) func(int) {
		return func(n int) {
			nest(proxyDepth, func() {
				for i := 0; i < n; i++ {
					if ids.CurrentThreadID() == -1 {
						idFailures.Add(1)
					}
				}
			})
		}
	})
	out["ids.thread_id_failures"] = float64(idFailures.Load())
	out["ids.caller_op_ns"] = p.run(func(int) func(int) {
		return func(n int) {
			var op ids.OpID
			for i := 0; i < n; i++ {
				op = ids.CallerOp(0)
			}
			probeSink.Store(int64(op))
		}
	})
	reg := sites.New()
	out["sites.for_call_ns"] = p.run(func(worker int) func(int) {
		op := workerOp("probe", worker)
		return func(n int) {
			var id ids.SiteID
			for i := 0; i < n; i++ {
				id = reg.ForCall(op, "Dictionary", "Set", true)
			}
			probeSink.Store(int64(id))
		}
	})

	full := config.Defaults(config.AlgoTSVD)
	det := mustDetector(full)
	out["core.oncall_ns"] = p.run(func(worker int) func(int) {
		// One object and one site per worker: the single-writer path.
		return onCallLoop(det, ids.NewObjectID(), workerOp("owned", worker), core.KindWrite)
	})
	sharedObj := ids.NewObjectID()
	out["core.oncall_shared_ns"] = p.run(func(worker int) func(int) {
		// Every worker reads one object: shared mode, no conflict.
		return onCallLoop(det, sharedObj, workerOp("shared", worker), core.KindRead)
	})
	sampled := full
	sampled.Mode = config.ModeSampled
	sampled.SampleProbability = 0.01
	sdet := mustDetector(sampled)
	out["core.oncall_sampled_out_ns"] = p.run(func(worker int) func(int) {
		return onCallLoop(sdet, ids.NewObjectID(), workerOp("sampled", worker), core.KindWrite)
	})
	out["core.new_detector_us"] = p.runN(w, 16, func(int) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				mustDetector(full)
			}
		}
	}) / 1e3
	mreg := metrics.NewRegistry()
	mdet := mustDetector(full, core.WithDetectorMetrics(core.NewDetectorMetrics(mreg)))
	out["metrics.metered_oncall_ns"] = p.run(func(worker int) func(int) {
		return onCallLoop(mdet, ids.NewObjectID(), workerOp("metered", worker), core.KindWrite)
	})
	out["metrics.write_prometheus_us"] = p.runN(1, 16, func(int) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				mreg.WritePrometheus(io.Discard)
			}
		}
	}) / 1e3

	samp := sampler.New(sampler.Params{BaseProbability: 0.01, OverheadTarget: 0.01, Interval: 100 * time.Millisecond})
	out["sampler.admit_ns"] = p.run(func(worker int) func(int) {
		state := sampler.SeedRand(ctx.seed, int64(worker))
		site := ids.SiteID(worker + 1)
		return func(n int) {
			admitted := 0
			for i := 0; i < n; i++ {
				if samp.Admit(site, sampler.Rand(&state)) {
					admitted++
				}
			}
			probeSink.Store(int64(admitted))
		}
	})
	var tickNow atomic.Int64
	out["sampler.tick_ns"] = p.run(func(int) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				// Every call is a later instant, a microsecond on, so one
				// in 10⁵ runs the controller and the rest take the
				// interval-not-elapsed exit — the mix OnCall sees.
				samp.Tick(time.Duration(tickNow.Add(1)) * time.Microsecond)
			}
		}
	})

	startTicks, startTime := fasttime.Ticks(), time.Now()
	out["fasttime.now_ns"] = p.run(func(int) func(int) {
		if !fasttime.Enabled() {
			return func(n int) {
				var d time.Duration
				for i := 0; i < n; i++ {
					d = time.Since(startTime)
				}
				probeSink.Store(int64(d))
			}
		}
		return func(n int) {
			var d time.Duration
			for i := 0; i < n; i++ {
				d = fasttime.SinceTicks(startTicks)
			}
			probeSink.Store(int64(d))
		}
	})

	taskLoop := func(det core.Detector) func(int) func(int) {
		return func(int) func(int) {
			sched := task.NewScheduler(det, task.WithForceAsync())
			return func(n int) {
				for i := 0; i < n; i++ {
					task.Run(sched, func() struct{} { return struct{}{} }).Wait()
				}
			}
		}
	}
	out["task.run_wait_ns"] = p.runN(w, 64, taskLoop(det))
	out["task.run_wait_base_ns"] = p.runN(w, 64, taskLoop(nil))
	out["syncx.lock_unlock_ns"] = p.run(func(int) func(int) {
		mu := syncx.NewMutex(det)
		return func(n int) {
			for i := 0; i < n; i++ {
				mu.Lock()
				mu.Unlock()
			}
		}
	})

	tr := trace.New(trace.DefaultBufferSize)
	out["trace.emit_ns"] = p.run(func(worker int) func(int) {
		thread, obj := ids.CurrentThreadID(), ids.NewObjectID()
		return func(n int) {
			for i := 0; i < n; i++ {
				tr.Emit(trace.KindNearMiss, thread, obj, 1, 2, time.Duration(i), time.Microsecond)
			}
		}
	})
	return out
}
