package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
)

// lookupObjects are the objects TestObjectLookupLandsOnItsObject rotates
// over: i and i+64 share a home slot in a table of 64 or 128 slots (the hash
// multiplies by an odd constant, so its low bits are a permutation of the
// key's), so one of each pair sits away from home and its lookup goes out of
// line. Thread 2 writes the second half too, which puts them in shared mode.
func lookupObjects() []ids.ObjectID {
	var objs []ids.ObjectID
	for i := 1; i <= 12; i++ {
		objs = append(objs, ids.ObjectID(i), ids.ObjectID(i+64))
	}
	return objs
}

// TestObjectLookupLandsOnItsObject: one thread rotates over objects so that
// its lookups are one-object cache hits, home-slot hits and registry misses
// (first sightings and keys away from home), while a second thread writes
// half of them. Every access must land on its own object's state: each call
// finds exactly the near misses a model of per-object rings of the last
// ObjHistory accesses gives, and each object only the first thread touched
// has published exactly the model's number of calls. Phase detection, the
// near-miss window and HB inference are off, so the model is the ring alone.
func TestObjectLookupLandsOnItsObject(t *testing.T) {
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB} {
		t.Run(algo.String(), func(t *testing.T) {
			cfg := testConfig(algo)
			cfg.Mode = config.ModeObserveOnly
			cfg.ObjHistory = 5
			cfg.DisablePhaseDetection = true
			cfg.DisableNearMissWindow = true
			cfg.DisableHBInference = true
			clk := &scriptClock{}
			d := mustNew(t, cfg, WithClock(clk))
			rt := runtimeOf(d)
			objs := lookupObjects()
			shared := objs[len(objs)/2:]

			rings := map[ids.ObjectID][]ids.ThreadID{}
			calls := map[ids.ObjectID]int64{}
			var cacheHits, homeHits, misses, awayMisses, nearMisses int
			seen := map[ids.ObjectID]bool{}
			r := rand.New(rand.NewSource(1))
			obj := objs[0]
			for i := 0; i < 3000; i++ {
				tid := ids.ThreadID(1)
				if r.Intn(3) != 0 {
					obj = objs[r.Intn(len(objs))] // else: the same object again
				}
				if r.Intn(8) == 0 {
					tid, obj = 2, shared[r.Intn(len(shared))]
				}
				if tid == 1 {
					st := rt.threadStateFor(1)
					switch _, home := rt.objs.GetFast(int64(obj)); {
					case st.cachedObj == obj && st.cachedState != nil:
						cacheHits++
					case home:
						homeHits++
					default:
						misses++
						if seen[obj] {
							awayMisses++
						}
					}
					seen[obj] = true
				}

				want := int64(0)
				for _, u := range rings[obj] {
					if u != tid {
						want++
					}
				}
				rings[obj] = append(rings[obj], tid)
				if n := len(rings[obj]); n > cfg.ObjHistory {
					rings[obj] = rings[obj][n-cfg.ObjHistory:]
				}
				calls[obj]++

				clk.at += time.Microsecond
				before := d.Stats().NearMisses
				d.OnCall(acc(tid, obj, ids.OpID(1000*int(obj)+int(tid)), KindWrite))
				if got := d.Stats().NearMisses - before; got != want {
					t.Fatalf("call %d (thread %d, object %d): %d near misses, the model %d", i, tid, obj, got, want)
				}
				nearMisses += int(want)
			}
			t.Logf("thread 1: %d cache hits, %d home-slot hits, %d registry misses (%d away from home); %d near misses",
				cacheHits, homeHits, misses, awayMisses, nearMisses)
			if cacheHits == 0 || homeHits == 0 || awayMisses == 0 || nearMisses == 0 {
				t.Fatal("the rotation missed a lookup path, or found no near miss")
			}
			if algo != config.AlgoTSVD {
				return
			}
			for _, o := range objs[:len(objs)/2] {
				if got := int64(rt.objs.Get(int64(o)).ring.pub.Load() &^ ringClosed); got != calls[o] {
					t.Errorf("object %d published %d calls, the model %d", o, got, calls[o])
				}
			}
		})
	}
}

// TestVerdictSeesHandedOffCall: thread U calls on its own goroutine and
// hands off over a channel; thread S, which has made W calls since U's
// previous one, must then find the phase concurrent — U's latest call time,
// stored without a locked instruction on amd64, is visible to the goroutine
// it handed off to. Before the handoff the same verdict is sequential.
func TestVerdictSeesHandedOffCall(t *testing.T) {
	const u, s = ids.ThreadID(1), ids.ThreadID(2)
	cfg := testConfig(config.AlgoTSVD)
	cfg.Mode = config.ModeObserveOnly
	clk := &scriptClock{}
	d := mustNew(t, cfg, WithClock(clk))
	rt := runtimeOf(d)
	call := func(tid ids.ThreadID) {
		clk.at += time.Microsecond
		d.OnCall(acc(tid, ids.ObjectID(tid), ids.OpID(tid), KindWrite))
	}
	call(u)
	call(s)
	for i := 0; i < cfg.PhaseBufferSize; i++ {
		call(s)
	}
	st := rt.threadStateFor(s)
	if rt.concurrent(st, s, noCall, 0) {
		t.Fatal("concurrent before U's next call: U's last call precedes S's window")
	}
	handoff := make(chan struct{})
	go func() {
		call(u)
		handoff <- struct{}{}
	}()
	<-handoff
	if !rt.concurrent(st, s, noCall, 0) {
		t.Fatalf("sequential after U handed off: U's latest call (%v) is not visible", time.Duration(rt.threadStateFor(u).latest.Load()))
	}
}
