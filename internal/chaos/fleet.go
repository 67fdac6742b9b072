package chaos

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/trapfile"
	"repro/internal/trapstore"
	"repro/internal/workload"
)

// chaosTool labels every trap set the harness produces.
const chaosTool = "TSVD"

// gatedHandler fronts the daemon's HTTP handler behind a stable URL for the
// whole fleet lifetime. Clients hold a fixed URL across daemon restarts (as
// they would a fixed host:port in production), so the listener must outlive
// the daemon process it serves: a down daemon answers 503 — which HTTPStore
// classifies exactly like a refused connection (retry, then ErrUnavailable)
// — and a restarted daemon swaps a fresh handler in behind the same URL.
type gatedHandler struct {
	mu    sync.Mutex
	inner http.Handler // nil while the daemon is down
}

func (g *gatedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	inner := g.inner
	g.mu.Unlock()
	if inner == nil {
		http.Error(w, "chaos: daemon unreachable", http.StatusServiceUnavailable)
		return
	}
	inner.ServeHTTP(w, r)
}

func (g *gatedHandler) swap(h http.Handler) {
	g.mu.Lock()
	g.inner = h
	g.mu.Unlock()
}

func (g *gatedHandler) up() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inner != nil
}

// fleet is the simulated deployment: one in-process tsvd-trapd — a real
// trapstore handler behind a real HTTP listener, persisting through the real
// SnapshotPersister — plus per-shard local trap files.
type fleet struct {
	dir    string
	locals []string

	snapPath string
	srv      *httptest.Server
	gate     *gatedHandler
	checker  *trapstore.HTTPStore // pristine client the invariant checks read through
}

func newFleet(cfg Config, dir string) (*fleet, error) {
	gate := &gatedHandler{}
	f := &fleet{
		dir:      dir,
		locals:   make([]string, cfg.Shards),
		snapPath: filepath.Join(dir, "daemon-snapshot.json"),
		gate:     gate,
		srv:      httptest.NewServer(gate),
	}
	for i := range f.locals {
		f.locals[i] = filepath.Join(dir, fmt.Sprintf("shard%d-traps.json", i))
	}
	f.checker = trapstore.NewHTTPStore(f.srv.URL, fastRetries(trapstore.HTTPConfig{}))
	if err := f.startDaemon(); err != nil {
		f.shutdown()
		return nil, err
	}
	return f, nil
}

// startDaemon boots the daemon: a new Memory restored from its snapshot file
// and log (continuing the persisted generation under a fresh boot epoch,
// exactly as cmd/tsvd-trapd does), served behind its stable URL, persisting
// every growing merge through a fresh SnapshotPersister.
func (f *fleet) startDaemon() error {
	persister := trapstore.NewSnapshotPersister(f.snapPath)
	seed, prev, err := persister.Load()
	if err != nil {
		// The snapshot is written atomically; an unreadable one is a bug,
		// not an environment problem — but it is detected by the invariant
		// checks, not here. Refuse like the real daemon does.
		return fmt.Errorf("chaos: daemon refused to start: %w", err)
	}
	mem := trapstore.NewMemory(chaosTool, nil)
	mem.Restore(seed, prev)
	onMerge := func(file trapfile.File, st trapstore.SyncState) { _ = persister.Save(file, st) }
	f.gate.swap(trapstore.NewHandler(mem, trapstore.HandlerOptions{OnMerge: onMerge}))
	return nil
}

// killDaemon drops the daemon hard: its in-memory set is gone and its URL
// starts refusing (503, which clients classify like a dead host). Only the
// snapshot file and log survive.
func (f *fleet) killDaemon() { f.gate.swap(nil) }

func (f *fleet) shutdown() {
	f.killDaemon()
	f.checker.Close()
	f.srv.Close()
}

// fastRetries tightens a client config to chaos pace: two attempts,
// millisecond backoffs. Callers' Tracer/Metrics/Transport fields pass
// through.
func fastRetries(cfg trapstore.HTTPConfig) trapstore.HTTPConfig {
	cfg.Timeout = 2 * time.Second
	cfg.Attempts = 2
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 4 * time.Millisecond
	return cfg
}

// violation builds a Violation anchored at action act, naming the offending
// pairs for the explanation slice.
func violation(act int, invariant, detail string, pairs []trapfile.Pair) *Violation {
	return &Violation{Action: act, Invariant: invariant, Detail: detail, pairs: pairs}
}

// apply executes one action, updating the model. A non-nil return is an
// invariant breach observed during the action itself (oracle failures);
// post-action state checks live in checkInvariants.
func (f *fleet) apply(act int, a action, m *model) *Violation {
	switch a.kind {
	case actRunShard:
		return f.runShard(act, a, m)
	case actKillDaemon:
		m.event("act#%02d daemon killed (in-memory set discarded)", act)
		f.killDaemon()
		return nil
	case actRestartDaemon:
		f.killDaemon()
		if err := f.startDaemon(); err != nil {
			return violation(act, "daemon-restart",
				fmt.Sprintf("daemon failed to restart from its own snapshot: %v", err), nil)
		}
		m.event("act#%02d daemon restarted, restored from snapshot", act)
		return nil
	case actTornLogTail:
		return f.tornLogTail(act, a, m)
	case actCrashMidCompaction:
		return f.crashMidCompaction(act, a, m)
	case actCorruptFile:
		if err := os.WriteFile(f.locals[a.shard], []byte("{ this is not a trap file"), 0o644); err != nil {
			return violation(act, "environment", fmt.Sprintf("corrupting shard file: %v", err), nil)
		}
		m.corrupt[a.shard] = true
		m.event("act#%02d shard %d trap file overwritten with garbage", act, a.shard)
		return nil
	case actTruncateFile:
		if err := trapfile.Save(f.locals[a.shard], trapfile.File{Tool: chaosTool}); err != nil {
			return violation(act, "environment", fmt.Sprintf("truncating shard file: %v", err), nil)
		}
		m.clearLocal(a.shard, act, "file truncated to an empty valid trap file")
		m.corrupt[a.shard] = false
		m.event("act#%02d shard %d trap file truncated to empty", act, a.shard)
		return nil
	case actConcurrentPublish:
		return f.concurrentPublish(act, a, m)
	case actSupersedeInstall:
		return f.supersedeInstall(act, a)
	case actConverge:
		return f.converge(act, m)
	default:
		return violation(act, "plan", fmt.Sprintf("unknown action kind %d", a.kind), nil)
	}
}

// runShard executes one CI shard run through the full production stack —
// harness, Fallback(HTTPStore, FileStore), tracer, metrics — then applies
// the in-process oracles: store-error classification, ground-truth
// containment, exact trace reconciliation (trace.CheckDir) and
// exact metrics reconciliation (core.CheckCounters plus the store wire
// totals) — and folds the observed outcome into the model.
func (f *fleet) runShard(act int, a action, m *model) *Violation {
	cfg := config.Defaults(a.algo).Scaled(chaosScale)
	cfg.Trace = true
	cfg.Seed = a.detSeed
	cfg.Mode = a.mode
	if a.mode == config.ModeSampled {
		cfg.SampleProbability = a.sampleP
	}
	if err := cfg.Validate(); err != nil {
		return violation(act, "plan", fmt.Sprintf("invalid shard config: %v", err), nil)
	}

	storeTracer := trace.New(1 << 14)
	detReg := metrics.NewRegistry()
	detMet := core.NewDetectorMetrics(detReg)
	storeReg := metrics.NewRegistry()

	rt := newFaultRT(a.fault, func() {
		m.event("act#%02d daemon killed mid-run by injected fault", act)
		f.killDaemon()
	})
	httpCfg := fastRetries(trapstore.HTTPConfig{Tracer: storeTracer, Metrics: storeReg, Transport: rt})
	remote := trapstore.NewHTTPStore(f.srv.URL, httpCfg)
	local := trapstore.NewFileStore(f.locals[a.shard], storeTracer)
	store := trapstore.NewFallback(remote, local, storeTracer)
	store.RegisterMetrics(storeReg)
	defer store.Close()

	suite := workload.GenerateSuite(a.suite, a.modules)
	out := harness.Run(suite, harness.Options{
		Config:      cfg,
		Runs:        1,
		Parallelism: 4,
		RunSeedBase: harness.Seed(a.runSeed),
		Store:       store,
		Metrics:     detMet,
	})

	remTotals, localTotals, fbTotals := remote.Totals(), local.Totals(), store.Totals()

	// Oracle 1: the detector never fabricates pairs.
	if len(out.UnknownPairs) > 0 {
		return violation(act, "ground-truth",
			fmt.Sprintf("shard %d reported %d pairs outside the suite's planted ground truth",
				a.shard, len(out.UnknownPairs)), nil)
	}

	// Oracle 2: exact trace reconciliation — write the trace directory
	// exactly as tsvd-run -trace does (detector modules plus the store
	// pseudo-module) and check it exactly as tsvd-triage does: schema,
	// per-kind counts against the summary, and every count against the
	// detector and store counters.
	traceDir := filepath.Join(f.dir, "trace")
	if _, err := harness.WriteTrace(traceDir, a.modules, out, store, storeTracer); err != nil {
		return violation(act, "trace-write", fmt.Sprintf("writing trace: %v", err), nil)
	}
	m.storeTail = storeTraceTail(filepath.Join(traceDir, "events.jsonl"))
	if _, _, err := trace.CheckDir(traceDir); err != nil {
		return violation(act, "trace-reconcile", err.Error(), nil)
	}

	// Oracle 3: exact metrics reconciliation — the exported series must
	// equal the same counters the trace just reconciled.
	if v := reconcileMetrics(act, a.shard, detReg, storeReg, out, remTotals,
		fbTotals.Fallbacks-remTotals.Fallbacks-localTotals.Fallbacks); v != nil {
		return v
	}

	// Oracle 4: store-error classification. A corrupt local file is the one
	// legitimate store failure, and it must classify as exit code 3; the
	// shard then heals by deleting the file, as an operator would.
	if m.corrupt[a.shard] {
		if code := harness.StoreExitCode(out.StoreErr); code != 3 {
			return violation(act, "corrupt-classification",
				fmt.Sprintf("shard %d ran over a corrupted trap file; StoreExitCode = %d (err %v), want 3",
					a.shard, code, out.StoreErr), nil)
		}
		if err := os.Remove(f.locals[a.shard]); err != nil {
			return violation(act, "environment", fmt.Sprintf("healing corrupt file: %v", err), nil)
		}
		m.corrupt[a.shard] = false
		m.clearLocal(a.shard, act, "corrupt file detected (exit 3) and deleted")
		m.event("act#%02d shard %d detected corruption, healed by deleting the file", act, a.shard)
		return nil
	}
	if out.StoreErr != nil {
		return violation(act, "store-error",
			fmt.Sprintf("shard %d store error with a healthy file (the Fallback should have degraded): %v",
				a.shard, out.StoreErr), nil)
	}

	// Fold the observed outcome into the model, by contract: publish
	// success ⇒ pairs durable in the local file; a daemon publish ack ⇒
	// pairs durable in the daemon's snapshot and log.
	pairs := trapfile.FromKeys(out.FinalTraps)
	m.localAdd(a.shard, pairs, act, fmt.Sprintf("published by %s run", a.algo))
	switch {
	case remTotals.Publishes >= 1:
		m.ack(pairs, act, fmt.Sprintf("shard %d publish acknowledged", a.shard))
	case rt.maybeDeliveredPosts() > 0:
		m.limboAdd(pairs, act, fmt.Sprintf("shard %d publish reached the wire but failed", a.shard))
	}
	return nil
}

// storeTraceTail extracts the trailing trapstore-module lines of an
// events.jsonl for the explanation slice.
func storeTraceTail(path string) []string {
	data, _ := os.ReadFile(path) // an unreadable file fails trace.CheckDir next
	var tail []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, `"module":"trapstore"`) || strings.Contains(line, `"trapstore"`) {
			tail = append(tail, "store event: "+line)
		}
	}
	const max = 10
	if len(tail) > max {
		tail = tail[len(tail)-max:]
	}
	return tail
}

// reconcileMetrics applies the exact-reconciliation rule in-process: every
// detector series equals Outcome.Stats (core.CheckCounters), store series
// equal the wire totals.
func reconcileMetrics(act, shard int, detReg, storeReg *metrics.Registry, out *harness.Outcome,
	rem trace.StoreTotals, fbOwnFallbacks int64) *Violation {

	if err := core.CheckCounters(detReg.Values(), out.Stats); err != nil {
		return violation(act, "metrics-reconcile", fmt.Sprintf("shard %d: %v", shard, err), nil)
	}
	storeVals := storeReg.Values()
	for _, c := range []struct {
		series string
		want   int64
	}{
		{`tsvd_store_ops_total{op="fetch"}`, rem.Fetches},
		{`tsvd_store_ops_total{op="publish"}`, rem.Publishes},
		{`tsvd_store_ops_total{op="fallback"}`, fbOwnFallbacks},
	} {
		if got := storeVals[c.series]; got != float64(c.want) {
			return violation(act, "metrics-reconcile",
				fmt.Sprintf("shard %d: %s = %v, wire totals say %d", shard, c.series, got, c.want), nil)
		}
	}
	return nil
}

// concurrentPublish hits the daemon with three simultaneous direct
// publishers carrying disjoint synthetic pair sets — the merge path under
// real request concurrency. Skipped (a visible no-op) when the daemon is
// down: there is nothing to publish at.
func (f *fleet) concurrentPublish(act int, a action, m *model) *Violation {
	if !f.gate.up() {
		m.event("act#%02d concurrent-publish skipped: daemon down", act)
		return nil
	}
	const writers = 3
	files := make([]trapfile.File, writers)
	for w := range files {
		ns := a.base + w
		files[w] = trapfile.File{Tool: chaosTool, Pairs: []trapfile.Pair{
			{A: fmt.Sprintf("chaos/pub%d.go:1", ns), B: fmt.Sprintf("chaos/pub%d.go:2", ns)},
			{A: fmt.Sprintf("chaos/pub%d.go:3", ns), B: fmt.Sprintf("chaos/pub%d.go:4", ns)},
		}}
	}
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := trapstore.NewHTTPStore(f.srv.URL, fastRetries(trapstore.HTTPConfig{}))
			defer s.Close()
			errs[w] = s.Publish(files[w])
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err == nil {
			m.ack(files[w].Pairs, act, fmt.Sprintf("concurrent publisher %d acknowledged", w))
		} else {
			// The pairs reached the wire against a live daemon; treat the
			// failed writer's delivery as ambiguous rather than guessing.
			m.limboAdd(files[w].Pairs, act, fmt.Sprintf("concurrent publisher %d failed: %v", w, err))
		}
	}
	m.event("act#%02d concurrent-publish: 3 writers, %d pairs", act, 2*writers)
	return nil
}

// converge is the closing round: restart the daemon if it is down, heal
// corrupt files, push every shard file to the daemon, pull its snapshot back
// into every shard file, and require exact set equality between the daemon
// and all shard files.
func (f *fleet) converge(act int, m *model) *Violation {
	if !f.gate.up() {
		if err := f.startDaemon(); err != nil {
			return violation(act, "daemon-restart",
				fmt.Sprintf("converge could not restart the daemon: %v", err), nil)
		}
		m.event("act#%02d converge restarted the daemon from its snapshot", act)
	}

	// Heal corrupt files the way a shard run would (detect, delete).
	for i := range f.locals {
		if !m.corrupt[i] {
			continue
		}
		if _, err := trapfile.LoadFile(f.locals[i]); !errors.Is(err, trapfile.ErrCorrupt) {
			return violation(act, "corrupt-classification",
				fmt.Sprintf("shard %d file was corrupted but loads as %v, want ErrCorrupt", i, err), nil)
		}
		if err := os.Remove(f.locals[i]); err != nil {
			return violation(act, "environment", fmt.Sprintf("healing corrupt file: %v", err), nil)
		}
		m.corrupt[i] = false
		m.clearLocal(i, act, "corrupt file healed during converge")
	}

	// Push: every shard file's pairs enter the daemon.
	for i, path := range f.locals {
		file, err := trapfile.LoadFile(path)
		if err != nil {
			return violation(act, "shard-file-load",
				fmt.Sprintf("shard %d file unreadable during converge: %v", i, err), nil)
		}
		if len(file.Pairs) == 0 {
			continue
		}
		if err := f.checker.Publish(file); err != nil {
			return violation(act, "converge-push",
				fmt.Sprintf("pushing shard %d file to a live daemon failed: %v", i, err), nil)
		}
		m.ack(file.Pairs, act, fmt.Sprintf("shard %d file pushed during converge", i))
	}

	want, err := f.checker.Fetch()
	if err != nil {
		return violation(act, "converge-pull",
			fmt.Sprintf("fetching the snapshot from a live daemon failed: %v", err), nil)
	}
	wantSet := setOf(want.Pairs)
	// Nothing is in flight, so what the daemon serves it has already
	// persisted: the handler persists through OnMerge before it answers.
	m.ack(want.Pairs, act, "served by the daemon at converge")

	// Pull: every shard file absorbs the daemon's snapshot.
	for i, path := range f.locals {
		file, err := trapfile.LoadFile(path)
		if err != nil {
			return violation(act, "shard-file-load",
				fmt.Sprintf("shard %d file unreadable during converge pull: %v", i, err), nil)
		}
		merged := trapfile.Merge(file, want)
		if err := trapfile.Save(path, merged); err != nil {
			return violation(act, "environment", fmt.Sprintf("saving shard %d file: %v", i, err), nil)
		}
		m.local[i] = setOf(merged.Pairs)
		m.localAdd(i, merged.Pairs, act, "converge pulled the snapshot")
	}

	// The converged fleet must agree exactly: every shard file == snapshot.
	for i, path := range f.locals {
		file, err := trapfile.LoadFile(path)
		if err != nil {
			return violation(act, "shard-file-load", fmt.Sprintf("shard %d: %v", i, err), nil)
		}
		got := setOf(file.Pairs)
		if missing := wantSet.minus(got); len(missing) > 0 {
			return violation(act, "converge-equality",
				fmt.Sprintf("after converge, shard %d file is missing %d snapshot pairs: %v",
					i, len(missing), missing), missing)
		}
		if extra := got.minus(wantSet); len(extra) > 0 {
			return violation(act, "converge-equality",
				fmt.Sprintf("after converge, shard %d file holds %d pairs the snapshot lacks: %v",
					i, len(extra), extra), extra)
		}
	}
	m.event("act#%02d converge complete: the daemon and %d shards agree on %d pairs",
		act, len(f.locals), len(want.Pairs))
	return nil
}
