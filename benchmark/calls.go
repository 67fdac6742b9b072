package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	tsvd "repro"
	"repro/internal/collections"
	"repro/internal/core"
)

// callKind selects one of the three call workloads.
type callKind int

const (
	hotCalls callKind = iota
	sharedReads
	sampledCalls
)

func (k callKind) String() string {
	return [...]string{"hot_calls", "shared_reads", "sampled_calls"}[k]
}

// Container classes, in the order containerClasses lists one entry per
// container: 8 Dictionary, 5 List, HashSet, Counter, Queue — close to the
// 55/37/8 class mix of the paper's Table 1.
const (
	classDict = iota
	classList
	classSet
	classCounter
	classQueue
)

var (
	containerClasses = [16]int{
		classDict, classDict, classDict, classDict, classDict, classDict, classDict, classDict,
		classList, classList, classList, classList, classList,
		classSet, classCounter, classQueue,
	}
	// containerIndex is each container's index within its class.
	containerIndex = [16]int{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 0, 0, 0}
)

const queuePrefill = 16

// containerSet is one worker's containers (or, on shared_reads, the one set
// every worker reads). The same type serves the instrumented arm (built with
// the public tsvd constructors) and the uninstrumented arm (nil detector).
type containerSet struct {
	d [8]*collections.Dictionary[int, int]
	l [5]*collections.List[int]
	h *collections.HashSet[int]
	c *collections.Counter
	q *collections.Queue[int]
}

// newContainerSet builds and fills the containers and returns how many API
// calls that took. It must run on the goroutine that will use the set: an
// object stays on the detector's single-writer path only while one thread
// touches it.
func newContainerSet(instrumented bool) (*containerSet, int64) {
	cs := &containerSet{}
	for i := range cs.d {
		if instrumented {
			cs.d[i] = tsvd.NewDictionary[int, int]()
		} else {
			cs.d[i] = collections.NewDictionary[int, int](nil)
		}
	}
	for i := range cs.l {
		if instrumented {
			cs.l[i] = tsvd.NewList[int]()
		} else {
			cs.l[i] = collections.NewList[int](nil)
		}
	}
	if instrumented {
		cs.h, cs.c, cs.q = tsvd.NewHashSet[int](), tsvd.NewCounter(), tsvd.NewQueue[int]()
	} else {
		cs.h, cs.c, cs.q = collections.NewHashSet[int](nil), collections.NewCounter(nil), collections.NewQueue[int](nil)
	}
	calls := int64(0)
	for k := 0; k <= keyMask; k++ {
		for _, d := range cs.d {
			d.Add(k, k)
		}
		for _, l := range cs.l {
			l.Add(k)
		}
		cs.h.Add(k)
		calls += int64(len(cs.d) + len(cs.l) + 1)
	}
	for k := 0; k < queuePrefill; k++ {
		cs.q.Enqueue(k)
		calls++
	}
	return cs, calls
}

// checksumCalls is how many API calls checksum issues.
const checksumCalls = 16

// checksum digests the final contents of every container, one API call
// each. Map-backed containers iterate in no fixed order, so their entries
// are summed; ordered containers are chained.
func (cs *containerSet) checksum() uint64 {
	mix := func(a, b uint64) uint64 { return (a ^ b*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9 }
	sum := uint64(0)
	for i, d := range cs.d {
		part := uint64(0)
		d.ForEach(func(k, v int) bool { part += mix(uint64(k), uint64(v)); return true })
		sum = mix(sum, part+uint64(i))
	}
	for _, l := range cs.l {
		part := uint64(0)
		l.ForEach(func(i, v int) bool { part = mix(part, uint64(v)); return true })
		sum = mix(sum, part)
	}
	part := uint64(0)
	for _, k := range cs.h.ToSlice() {
		part += mix(uint64(k), 1)
	}
	sum = mix(sum, part)
	sum = mix(sum, uint64(cs.c.Value()))
	for _, v := range cs.q.ToSlice() {
		sum = mix(sum, uint64(v))
	}
	return sum
}

// spinIters is sampled_calls' application work after every call: a
// dependent integer chain the compiler cannot shorten, identical in both
// arms.
const spinIters = 256

func spin(x uint64) uint64 {
	for i := 0; i < spinIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// batch runs one batch of the stream starting at call index from and returns
// the sum of what the calls returned, which the replay on uninstrumented
// containers must reproduce.
func (cs *containerSet) batch(ops []op, from int, appWork bool, sink *uint64) uint64 {
	sum := uint64(0)
	for i := from; i < from+batchCalls; i++ {
		sum += uint64(cs.do(ops[i]))
		if appWork {
			*sink = spin(*sink)
		}
	}
	return sum
}

// workerResult is what one worker measured.
type workerResult struct {
	batchNs  []float64 // wall of each timed batch
	sums     []uint64  // result sum of every batch, warm-up included
	issued   int64     // API calls issued, set-up and checksum included
	end      time.Time // of the worker's last batch in the current slice
	checksum uint64
	spinSink uint64
}

// arm is one side of a call workload — instrumented or not — kept alive
// across the run's timed slices: one goroutine per worker from container
// construction to checksum, so an object only ever sees its own thread.
type arm struct {
	workers []workerResult
	// slices carries each slice's deadline to a worker; closing it sends
	// the worker on to its checksum.
	slices []chan time.Time
	sliced sync.WaitGroup
	done   sync.WaitGroup
	shared *containerSet // shared_reads' one set, built and digested here
	// sharedChecksum and sharedIssued cover that set.
	sharedChecksum uint64
	sharedIssued   int64
}

func (a *arm) issued() int64 {
	n := a.sharedIssued
	for _, w := range a.workers {
		n += w.issued
	}
	return n
}

const warmBatches = 4

// nearMissQuiet is how long shared_reads waits between filling the shared
// containers and the first read by another goroutine. A write followed
// within the detector's 100 ms near-miss window by another thread's read is
// a near miss and earns an injected delay; this workload measures the
// read-read path, where nothing is ever delayed.
const nearMissQuiet = 150 * time.Millisecond

// startArm builds and fills the containers and warms them up; it returns
// when every worker is ready for its first slice. room is how many timed
// batches to make room for, so that the timed loop never allocates.
func startArm(kind callKind, instrumented bool, streams [][]op, room int, rec *spanRecorder, parent int) *arm {
	a := &arm{workers: make([]workerResult, len(streams)), slices: make([]chan time.Time, len(streams))}
	if kind == sharedReads {
		a.shared, a.sharedIssued = newContainerSet(instrumented)
		time.Sleep(nearMissQuiet)
	}
	appWork := kind == sampledCalls
	var ready sync.WaitGroup
	ready.Add(len(streams))
	a.done.Add(len(streams))
	for w := range streams {
		a.slices[w] = make(chan time.Time)
		go func(w int) {
			defer a.done.Done()
			r := &a.workers[w]
			ops := streams[w]
			cs := a.shared
			if cs == nil {
				cs, r.issued = newContainerSet(instrumented)
			}
			r.batchNs = make([]float64, 0, room)
			r.sums = make([]uint64, 0, room+warmBatches)
			pos := 0
			for i := 0; i < warmBatches; i++ {
				r.sums = append(r.sums, cs.batch(ops, pos, appWork, &r.spinSink))
				pos = (pos + batchCalls) % len(ops)
			}
			ready.Done()
			for deadline := range a.slices[w] {
				for {
					id := rec.begin("batch", parent)
					b0 := time.Now()
					sum := cs.batch(ops, pos, appWork, &r.spinSink)
					now := time.Now()
					rec.end(id)
					r.batchNs = append(r.batchNs, float64(now.Sub(b0).Nanoseconds()))
					r.sums = append(r.sums, sum)
					pos = (pos + batchCalls) % len(ops)
					if !now.Before(deadline) {
						r.end = now
						break
					}
				}
				a.sliced.Done()
			}
			r.issued += int64(len(r.sums)) * batchCalls
			if a.shared == nil {
				r.checksum = cs.checksum()
				r.issued += checksumCalls
			}
		}(w)
	}
	ready.Wait()
	return a
}

// sliceResult is one timed slice of an arm.
type sliceResult struct {
	wall    time.Duration
	calls   int64
	mallocs uint64
	callNs  []float64 // per batch: wall ÷ calls
}

// slice times batches on every worker for dur.
func (a *arm) slice(dur time.Duration) sliceResult {
	from := make([]int, len(a.workers))
	for w := range a.workers {
		from[w] = len(a.workers[w].batchNs)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	a.sliced.Add(len(a.workers))
	for _, ch := range a.slices {
		ch <- begin.Add(dur)
	}
	a.sliced.Wait()
	runtime.ReadMemStats(&m1)
	res := sliceResult{mallocs: m1.Mallocs - m0.Mallocs}
	for w, r := range a.workers {
		res.wall = max(res.wall, r.end.Sub(begin))
		for _, ns := range r.batchNs[from[w]:] {
			res.callNs = append(res.callNs, ns/batchCalls)
			res.calls += batchCalls
		}
	}
	return res
}

// finish sends the workers to their checksums and waits for them.
func (a *arm) finish() {
	for _, ch := range a.slices {
		close(ch)
	}
	a.done.Wait()
	if a.shared != nil {
		a.sharedChecksum = a.shared.checksum()
		a.sharedIssued += checksumCalls
	}
}

// replay recomputes, on uninstrumented containers, the result sum of every
// batch the instrumented arm ran and the final contents, and returns how
// many batches disagree and whether the contents do.
func replay(kind callKind, streams [][]op, inst *arm) (badBatches int, contentsDiffer bool) {
	var shared *containerSet
	if kind == sharedReads {
		shared, _ = newContainerSet(false)
	}
	for w, r := range inst.workers {
		cs := shared
		if cs == nil {
			cs, _ = newContainerSet(false)
		}
		pos, sink := 0, uint64(0)
		for _, want := range r.sums {
			if cs.batch(streams[w], pos, false, &sink) != want {
				badBatches++
			}
			pos = (pos + batchCalls) % len(streams[w])
		}
		if shared == nil && cs.checksum() != r.checksum {
			contentsDiffer = true
		}
	}
	if shared != nil && shared.checksum() != inst.sharedChecksum {
		contentsDiffer = true
	}
	return badBatches, contentsDiffer
}

// callsMeasurement is one complete pass of a call workload: set-ups, the
// timed cycles, and the output checks.
type callsMeasurement struct {
	setups    []float64 // seconds, one per set-up
	stats     core.Stats
	sites     int
	samplerP  float64
	attempted int
	failed    int
	problems  []string

	// One entry per cycle: a slice of the instrumented arm followed at
	// once by a slice of the uninstrumented arm on the same streams, so
	// that a slow stretch of the machine weighs on both sides of a ratio.
	callsPerS []float64
	cycleNs   []float64 // median instrumented per-call ns
	slowdown  []float64
	allocs    []float64 // per call
	instNs    []float64 // per-call ns of every instrumented batch
	rawNs     []float64
}

// cycles is how many instrumented/uninstrumented slice pairs a pass is cut
// into.
const cycles = 8

func callConfig(kind callKind) tsvd.Config {
	cfg := tsvd.DefaultConfig()
	if kind == sampledCalls {
		cfg.Mode = tsvd.ModeSampled
		cfg.SampleProbability = 1
		cfg.OverheadTarget = 0.01
	}
	return cfg
}

// measureCalls runs one pass: instDur and rawDur of timed calls on the two
// arms, cut into cycles. setups is how many times the set-up (streams,
// session, containers, fill, warm-up) is made. The first is the one the
// pass runs on; the others are thrown away, and are made between the cycles
// so that setup_s is a median over the same stretch of time as the other
// metrics rather than over the run's first second.
func measureCalls(ctx *runCtx, kind callKind, instDur, rawDur time.Duration, setups int, rec *spanRecorder) (*callsMeasurement, error) {
	m := &callsMeasurement{}
	// Room for every batch of a slice series even at 20 ns a call.
	room := int(instDur.Nanoseconds()/(20*batchCalls)) + cycles

	var reg *tsvd.MetricsRegistry
	var opts []core.Option
	if rec != nil {
		// The traced pass reads the sampler's probability from the
		// function-backed gauge; nothing is added to the call path.
		reg = tsvd.NewMetricsRegistry()
		opts = append(opts, tsvd.WithDetectorMetrics(tsvd.NewDetectorMetrics(reg)))
	}
	var streams [][]op
	setUp := func(room int, rec *spanRecorder, span int) (*tsvd.Session, *arm, error) {
		t0 := time.Now()
		streams = make([][]op, ctx.workers)
		for w := range streams {
			streams[w] = genStream(kind, ctx.seed, w)
		}
		sess, err := tsvd.Install(callConfig(kind), opts...)
		if err != nil {
			return nil, nil, err
		}
		a := startArm(kind, true, streams, room, rec, span)
		m.setups = append(m.setups, time.Since(t0).Seconds())
		return sess, a, nil
	}

	span := rec.begin("instrumented_arm", 0)
	sess, inst, err := setUp(room, rec, span)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	raw := startArm(kind, false, streams, room, nil, 0)
	for c := 0; c < cycles; c++ {
		si := inst.slice(instDur / cycles)
		sr := raw.slice(rawDur / cycles)
		m.callsPerS = append(m.callsPerS, float64(si.calls)/si.wall.Seconds())
		m.cycleNs = append(m.cycleNs, median(si.callNs))
		m.slowdown = append(m.slowdown, median(si.callNs)/median(sr.callNs))
		m.allocs = append(m.allocs, float64(si.mallocs)/float64(si.calls))
		m.instNs = append(m.instNs, si.callNs...)
		m.rawNs = append(m.rawNs, sr.callNs...)
		if c%2 == 1 && len(m.setups) < setups {
			// The running arms' containers keep reporting to their own
			// session; this one only exists to be timed.
			spare, a, err := setUp(0, nil, 0)
			if err != nil {
				return nil, err
			}
			a.finish()
			spare.Close()
		}
	}
	inst.finish()
	raw.finish()
	rec.end(span)

	m.stats = sess.Stats()
	m.sites = sess.Sites().Len()
	if reg != nil {
		m.samplerP = reg.Values()["tsvd_sampler_probability"]
	}
	bugs := len(sess.Bugs())

	for _, w := range inst.workers {
		m.attempted += len(w.sums)
	}
	bad, differ := replay(kind, streams, inst)
	m.failed = bad
	if bad > 0 {
		m.problems = append(m.problems, fmt.Sprintf("%d batches returned other values than the uninstrumented replay", bad))
	}
	if differ {
		m.problems = append(m.problems, "final container contents differ from the uninstrumented replay")
	}
	if want := inst.issued() + int64(skew); m.stats.OnCalls != want {
		m.problems = append(m.problems, fmt.Sprintf("detector saw %d calls, %d were issued", m.stats.OnCalls, want))
	}
	if m.stats.DelaysInjected != 0 {
		m.problems = append(m.problems, fmt.Sprintf("%d delays injected on a conflict-free workload", m.stats.DelaysInjected))
	}
	if bugs != 0 {
		m.problems = append(m.problems, fmt.Sprintf("%d violations reported on a conflict-free workload", bugs))
	}
	return m, nil
}

func runCallWorkload(kind callKind) func(*runCtx) *result {
	return func(ctx *runCtx) *result {
		res := newResult(kind.String())
		if !ctx.trace {
			m, err := measureCalls(ctx, kind, ctx.share(0.8), ctx.share(0.2), ctx.setups(5), nil)
			if err != nil {
				return res.fail(err)
			}
			res.absorbCalls(m)
			res.set("setup_s", median(m.setups))
			res.set("slowdown_x", median(m.slowdown))
			res.set("allocs_per_op_plus1", 1+median(m.allocs))
			res.set("found_frac", 1-float64(m.failed)/float64(m.attempted))
			res.note("call_ns %v", summarize(m.instNs))
			res.note("uninstrumented_call_ns %v (base of slowdown_x)", summarize(m.rawNs))
			res.note("calls_per_s %v", summarize(m.callsPerS))
			res.note("cycle_call_ns %.0f", m.cycleNs)
			return res
		}

		// Traced: the same pass twice at a quarter of the length, spans
		// off then on, then the standalone layer probes.
		plain, err := measureCalls(ctx, kind, ctx.share(0.25), ctx.share(0.08), 1, nil)
		if err != nil {
			return res.fail(err)
		}
		m, err := measureCalls(ctx, kind, ctx.share(0.25), ctx.share(0.08), 1, ctx.spans)
		if err != nil {
			return res.fail(err)
		}
		res.absorbCalls(plain)
		res.absorbCalls(m)
		probes := runProbes(ctx)
		res.setAll(probes)
		res.set("bench.ops_per_s", median(plain.callsPerS))
		res.set("bench.op_us_p50", median(plain.instNs)/1e3)
		res.set("bench.trace_overhead_frac", 1-median(m.callsPerS)/median(plain.callsPerS))
		res.set("sites.registered", float64(m.sites))
		callNs, rawNs := median(m.instNs), median(m.rawNs)
		res.set("rawcol.op_ns", rawNs)
		res.set("collections.call_ns_p50", callNs)
		res.set("collections.call_ns_p95", percentile(m.instNs, 0.95))
		res.set("collections.allocs_per_call", median(m.allocs))
		res.set("collections.proxy_ns", callNs-rawNs)
		oncall := map[callKind]string{hotCalls: "core.oncall_ns", sharedReads: "core.oncall_shared_ns", sampledCalls: "core.oncall_sampled_out_ns"}[kind]
		res.set("collections.unattributed_ns", callNs-rawNs-probes["ids.thread_id_ns"]-probes["ids.caller_op_ns"]-probes["sites.for_call_ns"]-probes[oncall])
		res.setStats(m.stats, 1)
		res.set("sampler.throttles", float64(m.stats.SamplerThrottles))
		res.set("sampler.final_probability", m.samplerP)
		res.note("call_ns %v", summarize(m.instNs))
		return res
	}
}
