package workload

import (
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/report"
	"repro/internal/syncx"
	"repro/internal/task"
)

// Each block builder appends one unit test and (optionally) ground-truth
// bugs to the module under construction. Blocks return their nominal
// uninstrumented duration in pace units.

// addHotBug plants an always-overlapping conflicting loop: the bread and
// butter of run-1 detection. A coin decides write-write vs read-write and
// whether both sides share one static location (Table 1's 34%).
func (b *blockBuilder) addHotBug() {
	class := b.pickClass()
	sameLoc := b.rng.Float64() < 0.34
	readWrite := !sameLoc && b.rng.Float64() < 0.49

	s1 := b.site("hot", core.KindWrite, class, writeMethod(class))
	s2 := s1
	if !sameLoc {
		k, m := core.KindWrite, writeMethod(class)
		if readWrite {
			k, m = core.KindRead, readMethod(class)
		}
		s2 = b.site("hot", k, class, m)
	}
	b.bugs = append(b.bugs, PlantedBug{
		Pair: report.KeyOf(s1.op, s2.op), Kind: BugHot, Class: class,
		ReadWrite: readWrite, SameLocation: sameLoc,
	})

	const iters = 12
	b.tests = append(b.tests, Test{
		Name:         "hot",
		NominalUnits: iters * 2.5,
		Body: func(env *Env) {
			obj := ids.NewObjectID()
			d1 := spawn(func() {
				for i := 0; i < iters && !env.expired(); i++ {
					env.call(s1, obj)
					env.sleep(1)
				}
			})
			d2 := spawn(func() {
				for i := 0; i < iters && !env.expired(); i++ {
					env.call(s2, obj)
					env.sleep(1)
				}
			})
			<-d1
			<-d2
		},
	})
}

// addNoiseBug is a hot write loop whose object also receives a burst of
// same-thread *read* accesses from other sites between the writes, plus a
// single racing read from the victim thread. The read noise conflicts with
// nothing, but it evicts the dangerous write from a too-small per-object
// history (Fig. 9b: N_nm = 1 "misses many bugs").
func (b *blockBuilder) addNoiseBug() {
	class := b.pickClass()
	s1 := b.site("noise", core.KindWrite, class, writeMethod(class))
	s2 := b.site("noise", core.KindRead, class, readMethod(class))
	noise := make([]site, 4)
	for i := range noise {
		noise[i] = b.site("noise", core.KindRead, class, readMethod(class))
	}
	b.bugs = append(b.bugs, PlantedBug{
		Pair: report.KeyOf(s1.op, s2.op), Kind: BugNoise, Class: class,
		ReadWrite: true,
	})

	const iters = 14
	b.tests = append(b.tests, Test{
		Name:         "noise",
		NominalUnits: iters + 4,
		Body: func(env *Env) {
			obj := ids.NewObjectID()
			d1 := spawn(func() {
				for i := 0; i < iters && !env.expired(); i++ {
					env.call(s1, obj)
					for _, n := range noise {
						env.call(n, obj)
					}
					env.sleep(1)
				}
			})
			d2 := spawn(func() {
				env.sleep(float64(iters) / 2) // land mid-loop
				env.call(s2, obj)             // the single racing read
			})
			<-d1
			<-d2
		},
	})
}

// addAsyncCacheBug is Figure 3: concurrent getSqrt tasks race a
// check-then-add on a shared cache dictionary. Both racy pairs of Figure 4
// are ground truth: the write-write same-location Add/Add pair and the
// read-write ContainsKey/Add pair.
func (b *blockBuilder) addAsyncCacheBug() {
	sContains := b.site("asynccache", core.KindRead, "Dictionary", "ContainsKey")
	sAdd := b.site("asynccache", core.KindWrite, "Dictionary", "Add")
	b.bugs = append(b.bugs,
		PlantedBug{
			Pair: report.KeyOf(sAdd.op, sAdd.op), Kind: BugAsync,
			Class: "Dictionary", SameLocation: true, Async: true,
		},
		PlantedBug{
			Pair: report.KeyOf(sContains.op, sAdd.op), Kind: BugAsync,
			Class: "Dictionary", ReadWrite: true, Async: true,
		},
	)

	const rounds = 6
	b.tests = append(b.tests, Test{
		Name:         "asynccache",
		NominalUnits: rounds * 3,
		Body: func(env *Env) {
			obj := ids.NewObjectID()
			getSqrt := func() *task.Task[struct{}] {
				return task.Run(env.Sched, func() struct{} {
					env.call(sContains, obj)
					env.sleep(0.5)
					env.call(sAdd, obj)
					return struct{}{}
				})
			}
			for r := 0; r < rounds && !env.expired(); r++ {
				a := getSqrt()
				c := getSqrt()
				a.Wait()
				c.Wait()
				env.sleep(0.5)
			}
		},
	})
}

// addColdBug executes each side exactly once, concurrently: run 1 learns
// the pair (near miss), run 2 traps the first occurrence (§3.4.6).
func (b *blockBuilder) addColdBug() {
	class := b.pickClass()
	s1 := b.site("cold", core.KindWrite, class, writeMethod(class))
	s2 := b.conflictingSite("cold", class)
	b.bugs = append(b.bugs, PlantedBug{
		Pair: report.KeyOf(s1.op, s2.op), Kind: BugCold, Class: class,
		ReadWrite: s2.kind == core.KindRead,
	})
	b.tests = append(b.tests, Test{
		Name:         "cold",
		NominalUnits: 4,
		Body: func(env *Env) {
			obj := ids.NewObjectID()
			d1 := spawn(func() {
				env.call(s1, obj) // executes exactly once per run
			})
			d2 := spawn(func() {
				env.sleep(0.3) // land just after s1 — near miss, no overlap
				env.call(s2, obj)
			})
			<-d1
			<-d2
		},
	})
}

// addRareBug keeps its sides far apart except under a rare schedule
// (probability ~0.15 per run), reproducing §5.3's near-miss false
// negatives: most runs produce no near miss at all.
func (b *blockBuilder) addRareBug() {
	class := b.pickClass()
	s1 := b.site("rare", core.KindWrite, class, writeMethod(class))
	s2 := b.conflictingSite("rare", class)
	b.bugs = append(b.bugs, PlantedBug{
		Pair: report.KeyOf(s1.op, s2.op), Kind: BugRare, Class: class,
		ReadWrite: s2.kind == core.KindRead,
	})
	b.tests = append(b.tests, Test{
		Name:         "rare",
		NominalUnits: 14,
		Body: func(env *Env) {
			obj := ids.NewObjectID()
			rare := env.Rng.Float64() < 0.15
			if rare {
				// The rare schedule: a short hot burst.
				d1 := spawn(func() {
					for i := 0; i < 6 && !env.expired(); i++ {
						env.call(s1, obj)
						env.sleep(1)
					}
				})
				d2 := spawn(func() {
					for i := 0; i < 6 && !env.expired(); i++ {
						env.call(s2, obj)
						env.sleep(1)
					}
				})
				<-d1
				<-d2
				return
			}
			// The common schedule: a long gap between the sides (e.g. a
			// resource use and its de-allocation) — no near miss.
			d1 := spawn(func() { env.call(s1, obj) })
			<-d1
			env.sleep(10) // several near-miss windows
			d2 := spawn(func() { env.call(s2, obj) })
			<-d2
		},
	})
}

// addMarginalBug offsets its sides by 0.5–1.5 delay lengths each run:
// when the offset exceeds the injected delay, the trap expires before the
// partner arrives (§5.3's delay-injection false negatives). Longer delays
// (Fig. 9h) convert more of these runs into catches.
func (b *blockBuilder) addMarginalBug() {
	class := b.pickClass()
	s1 := b.site("marginal", core.KindWrite, class, writeMethod(class))
	s2 := b.conflictingSite("marginal", class)
	b.bugs = append(b.bugs, PlantedBug{
		Pair: report.KeyOf(s1.op, s2.op), Kind: BugMarginal, Class: class,
		ReadWrite: s2.kind == core.KindRead,
	})
	// sWarm is side B's private busy-work site: it keeps B's inter-access
	// gaps well under δ_hb·delay so the offset is never misattributed to
	// an injected delay (that would be an HB-inference false negative, a
	// different category).
	sWarm := b.site("marginal", core.KindWrite, class, writeMethod(class))
	const iters = 8
	b.tests = append(b.tests, Test{
		Name:         "marginal",
		NominalUnits: 24,
		Body: func(env *Env) {
			obj := ids.NewObjectID()
			objWarm := ids.NewObjectID() // private to B
			offset := time.Duration((0.5 + env.Rng.Float64()) * float64(env.Delay))
			period := offset + 2*env.Pace
			d1 := spawn(func() {
				for i := 0; i < iters && !env.expired(); i++ {
					env.call(s1, obj)
					time.Sleep(period)
				}
			})
			d2 := spawn(func() {
				for i := 0; i < iters && !env.expired(); i++ {
					// Busy warm-up spanning the offset in short hops.
					for w := 0; w < 4; w++ {
						time.Sleep(offset / 4)
						env.call(sWarm, objWarm)
					}
					env.call(s2, obj) // lands ~offset after s1
					time.Sleep(2 * env.Pace)
				}
			})
			<-d1
			<-d2
		},
	})
}

// addHBShadowedBug is ordered by ad-hoc (unmonitored) synchronization for
// its first iterations — any delay at s1 visibly stalls s2, so TSVD infers
// HB and permanently suppresses the pair — and truly concurrent afterwards,
// when the suppressed bug strikes unseen (§5.3's HB-inference false
// negatives).
func (b *blockBuilder) addHBShadowedBug() {
	class := b.pickClass()
	s1 := b.site("hbshadow", core.KindWrite, class, writeMethod(class))
	s2 := b.site("hbshadow", core.KindWrite, class, writeMethod(class))
	b.bugs = append(b.bugs, PlantedBug{
		Pair: report.KeyOf(s1.op, s2.op), Kind: BugHBShadowed, Class: class,
	})
	b.tests = append(b.tests, Test{
		Name:         "hbshadow",
		NominalUnits: 22,
		Body: func(env *Env) {
			obj := ids.NewObjectID()
			baton := make(chan struct{}, 1)
			// Phase 1: strict ad-hoc ordering s1 → s2, invisible to the
			// detector (plain channel).
			const ordered = 5
			d1 := spawn(func() {
				// Closing the baton releases a receiver still waiting for a
				// turn the expired deadline will never hand it.
				defer close(baton)
				for i := 0; i < ordered && !env.expired(); i++ {
					env.call(s1, obj)
					baton <- struct{}{}
					env.sleep(0.5)
				}
			})
			d2 := spawn(func() {
				for i := 0; i < ordered && !env.expired(); i++ {
					if _, ok := <-baton; !ok {
						return
					}
					env.call(s2, obj)
				}
				// A receiver that stops on the deadline must not leave the
				// sender blocked on a full baton.
				for range baton {
				}
			})
			<-d1
			<-d2
			// Phase 2: the same sites race for real — briefly.
			e1 := spawn(func() {
				for i := 0; i < 4 && !env.expired(); i++ {
					env.call(s1, obj)
					env.sleep(1)
				}
			})
			e2 := spawn(func() {
				for i := 0; i < 4 && !env.expired(); i++ {
					env.call(s2, obj)
					env.sleep(1)
				}
			})
			<-e1
			<-e2
		},
	})
}

// addSafeLocked protects conflicting accesses with a monitored mutex: a
// stream of near misses that can never overlap. TSVD must learn the HB
// relationship from its own delays; TSVDHB sees the lock directly.
func (b *blockBuilder) addSafeLocked() {
	class := b.pickClass()
	s1 := b.site("safelock", core.KindWrite, class, writeMethod(class))
	s2 := b.site("safelock", core.KindWrite, class, writeMethod(class))
	const iters = 10
	b.tests = append(b.tests, Test{
		Name:         "safelock",
		NominalUnits: iters * 2.5,
		Body: func(env *Env) {
			obj := ids.NewObjectID()
			mu := syncx.NewMutex(env.Det)
			worker := func(s site) chan struct{} {
				return spawn(func() {
					for i := 0; i < iters && !env.expired(); i++ {
						mu.Lock()
						env.call(s, obj)
						mu.Unlock()
						env.sleep(1)
					}
				})
			}
			d1 := worker(s1)
			d2 := worker(s2)
			<-d1
			<-d2
		},
	})
}

// addPingPongSafe alternates two threads through unmonitored channels —
// near misses every iteration, never concurrent. TSVD's wasted delays must
// decay away; TSVDHB accumulates spurious pairs (it cannot see the
// channels).
func (b *blockBuilder) addPingPongSafe() {
	class := b.pickClass()
	s1 := b.site("pingpong", core.KindWrite, class, writeMethod(class))
	s2 := b.site("pingpong", core.KindWrite, class, writeMethod(class))
	const iters = 10
	b.tests = append(b.tests, Test{
		Name:         "pingpong",
		NominalUnits: iters * 1.2,
		Body: func(env *Env) {
			obj := ids.NewObjectID()
			ping := make(chan struct{})
			pong := make(chan struct{})
			d1 := spawn(func() {
				for i := 0; i < iters; i++ {
					env.call(s1, obj)
					ping <- struct{}{}
					<-pong
				}
			})
			d2 := spawn(func() {
				for i := 0; i < iters; i++ {
					<-ping
					env.call(s2, obj)
					pong <- struct{}{}
				}
			})
			<-d1
			<-d2
		},
	})
}

// addSequentialPhase writes from the main thread (initialization), then
// reads concurrently through tasks: no violation is possible, and the
// phase buffer keeps TSVD from pairing the init writes with anything.
func (b *blockBuilder) addSequentialPhase() {
	class := b.pickClass()
	sInit := b.site("seqphase", core.KindWrite, class, writeMethod(class))
	sRead := b.site("seqphase", core.KindRead, class, readMethod(class))
	b.tests = append(b.tests, Test{
		Name:         "seqphase",
		NominalUnits: 14,
		Body: func(env *Env) {
			obj := ids.NewObjectID()
			for i := 0; i < 120 && !env.expired(); i++ {
				env.call(sInit, obj) // init phase: single thread, hot
			}
			reader := func() *task.Task[struct{}] {
				return task.Run(env.Sched, func() struct{} {
					for i := 0; i < 8 && !env.expired(); i++ {
						env.call(sRead, obj)
						env.sleep(0.5)
					}
					return struct{}{}
				})
			}
			r1, r2 := reader(), reader()
			r1.Wait()
			r2.Wait()
		},
	})
}

// addTaskStorm models the async-heavy programs of §2.3: many short tasks
// created and joined, each touching a private object once or twice. There
// is nothing to find — the block exists so that synchronization operations
// rival data accesses in volume, which is the population TSVDHB must pay
// vector-clock work for while TSVD's hooks stay no-ops.
func (b *blockBuilder) addTaskStorm() {
	class := b.pickClass()
	sW := b.site("taskstorm", core.KindWrite, class, writeMethod(class))
	sR := b.site("taskstorm", core.KindRead, class, readMethod(class))
	const tasks = 40
	b.tests = append(b.tests, Test{
		Name:         "taskstorm",
		NominalUnits: 6,
		Body: func(env *Env) {
			handles := make([]*task.Task[struct{}], tasks)
			for i := range handles {
				handles[i] = task.Run(env.Sched, func() struct{} {
					obj := ids.NewObjectID() // private: no conflicts
					env.call(sW, obj)
					env.call(sR, obj)
					return struct{}{}
				})
			}
			for _, h := range handles {
				h.Wait()
			}
		},
	})
}

// addHotSafeLoop hammers a private object from one thread: pure overhead
// soak for techniques that inject delays indiscriminately.
func (b *blockBuilder) addHotSafeLoop() {
	class := b.pickClass()
	s := b.site("hotsafe", core.KindWrite, class, writeMethod(class))
	b.tests = append(b.tests, Test{
		Name:         "hotsafe",
		NominalUnits: 4,
		Body: func(env *Env) {
			obj := ids.NewObjectID()
			// A genuinely hot sequential path: hundreds of tightly
			// spaced TSVD points. Per-call random injection drowns
			// here; TSVD never plans a delay (no dangerous pair).
			for i := 0; i < 300 && !env.expired(); i++ {
				env.call(s, obj)
			}
		},
	})
}
