package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trapfile"
	"repro/internal/trapstore"
)

const (
	fleetReps      = 3
	fleetSeedPairs = 4096
	fleetRounds    = 160 // per client at the standard 20 s; ≈ 6 s a repetition on the seed commit
	idleFetches    = 3   // polls after the post-publish fetch
	coldEvery      = 50  // every 50th round a brand-new client fetches the full set
)

// fleetRep is one repetition of fleet_sync.
type fleetRep struct {
	setupS  []float64 // seconds, one per set-up
	wall    time.Duration
	rounds  int
	mallocs uint64

	roundMs, publishMs, deltaMs, notModMs, fullMs []float64
	persistMs                                     []float64
	refMs, mergeUs                                []float64

	wire      trapstore.WireStats // summed over the clients
	fullBytes int64               // of the last cold full fetch
	retries   float64
	pairs     int
	held      int // expected pairs the store holds at the end
	expected  int

	attempted, failed int
}

func pairFile(pairs []trapfile.Pair) trapfile.File {
	return trapfile.File{Version: trapfile.FormatVersion, Tool: "TSVD", Pairs: pairs}
}

// samePairs reports how many of want are in got, and whether got is exactly
// want.
func samePairs(got []trapfile.Pair, want map[trapfile.Pair]bool) (held int, exact bool) {
	for _, p := range got {
		if want[p] {
			held++
		}
	}
	return held, held == len(want) && len(got) == len(want)
}

// fleetClient times one client's store calls and sorts them by what the
// daemon answered.
type fleetClient struct {
	store *trapstore.HTTPStore
	rep   *fleetRep
	mu    *sync.Mutex
	spans *spanRecorder
	span  int
}

func (c *fleetClient) publish(pairs []trapfile.Pair) {
	id := c.spans.begin("HTTPStore.Publish", c.span)
	t := time.Now()
	err := c.store.Publish(pairFile(pairs))
	ms := float64(time.Since(t).Nanoseconds()) / 1e6
	c.spans.end(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.attempted++
	if err != nil {
		c.rep.failed++
		return
	}
	c.rep.publishMs = append(c.rep.publishMs, ms)
}

func (c *fleetClient) fetch() (trapfile.File, error) {
	before := c.store.WireStats()
	id := c.spans.begin("HTTPStore.Fetch", c.span)
	t := time.Now()
	f, err := c.store.Fetch()
	ms := float64(time.Since(t).Nanoseconds()) / 1e6
	c.spans.end(id)
	after := c.store.WireStats()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.attempted++
	switch {
	case err != nil:
		c.rep.failed++
	case after.NotModified > before.NotModified:
		c.rep.notModMs = append(c.rep.notModMs, ms)
	case after.DeltaFetches > before.DeltaFetches:
		c.rep.deltaMs = append(c.rep.deltaMs, ms)
	default:
		c.rep.fullMs = append(c.rep.fullMs, ms)
		c.rep.fullBytes = after.FetchBytes - before.FetchBytes
	}
	return f, err
}

// fleetServer is the daemon side of a repetition, wired as cmd/tsvd-trapd
// wires it: a Memory behind the HTTP handler, persisted with fsync after
// every merge that grew the set.
type fleetServer struct {
	mem       *trapstore.Memory
	persister *trapstore.SnapshotPersister
	url       string
	stop      func()
}

// startFleetServer seeds a fresh store, persists it once, and serves it on
// a loopback port. persisted is told how long each later save took.
func startFleetServer(ctx *runCtx, seed []trapfile.Pair, parent int, persisted func(ms float64, err error)) (*fleetServer, error) {
	if err := os.MkdirAll(ctx.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(ctx.outDir, "fleet-")
	if err != nil {
		return nil, err
	}
	fs := &fleetServer{mem: trapstore.NewMemory("TSVD", nil),
		persister: trapstore.NewSnapshotPersister(filepath.Join(dir, "snapshot.json"))}
	fs.mem.Seed(pairFile(seed))
	if err := fs.persister.Save(fs.mem.SnapshotState()); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	handler := trapstore.NewHandler(fs.mem, trapstore.HandlerOptions{
		OnMerge: func(f trapfile.File, st trapstore.SyncState) {
			id := ctx.spans.begin("SnapshotPersister.Save", parent)
			t := time.Now()
			err := fs.persister.Save(f, st)
			ms := float64(time.Since(t).Nanoseconds()) / 1e6
			ctx.spans.end(id)
			persisted(ms, err)
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	fs.url = "http://" + ln.Addr().String()
	fs.stop = func() {
		srv.Shutdown(context.Background())
		<-served
		os.RemoveAll(dir)
	}
	return fs, nil
}

// runFleetRep runs one repetition: a fresh seeded store behind a
// fleetServer and `workers` closed-loop clients each doing `rounds` rounds
// of publish → fetch → idle polls. The set-up is made `setups` times; all
// but the last are thrown away.
func runFleetRep(ctx *runCtx, rep, rounds, seedPairs, setups int, res *result) (*fleetRep, error) {
	fr := &fleetRep{rounds: rounds * ctx.workers}
	var mu sync.Mutex
	repSpan := ctx.spans.begin("fleet_rep", 0)
	defer ctx.spans.end(repSpan)

	var in fleetInputs
	var fs *fleetServer
	var persistErr error
	clients := make([]*fleetClient, ctx.workers)
	regs := make([]*metrics.Registry, ctx.workers)
	newClient := func(reg *metrics.Registry) *fleetClient {
		return &fleetClient{store: trapstore.NewHTTPStore(fs.url, trapstore.HTTPConfig{Metrics: reg}),
			rep: fr, mu: &mu, spans: ctx.spans, span: repSpan}
	}
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		in = genFleet(ctx.seed, rep, ctx.workers, rounds, seedPairs)
		var err error
		fs, err = startFleetServer(ctx, in.seed, repSpan, func(ms float64, err error) {
			mu.Lock()
			fr.persistMs = append(fr.persistMs, ms)
			persistErr = errors.Join(persistErr, err)
			mu.Unlock()
		})
		if err != nil {
			return nil, err
		}
		for c := range clients {
			if ctx.trace {
				regs[c] = metrics.NewRegistry() // the retry counter lives here
			}
			clients[c] = newClient(regs[c])
		}
		fr.setupS = append(fr.setupS, time.Since(t0).Seconds())
		stop := func(fs *fleetServer, clients []*fleetClient) {
			for _, cl := range clients {
				cl.store.Close()
			}
			fs.stop()
		}
		if i < setups-1 {
			stop(fs, clients)
		} else {
			defer stop(fs, clients)
		}
	}
	fr.expected = len(in.expected) + skew
	mem, persister := fs.mem, fs.persister

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *fleetClient) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				t := time.Now()
				cl.publish(in.publish[c][r])
				for i := 0; i < 1+idleFetches; i++ {
					cl.fetch()
				}
				ms := float64(time.Since(t).Nanoseconds()) / 1e6
				mu.Lock()
				fr.roundMs = append(fr.roundMs, ms)
				mu.Unlock()
				if (r+1)%coldEvery == 0 {
					cold := newClient(nil)
					cold.fetch()
					cold.store.Close()
				}
			}
		}(c, cl)
	}
	wg.Wait()
	fr.wall = time.Since(begin)
	runtime.ReadMemStats(&m1)
	fr.mallocs = m1.Mallocs - m0.Mallocs

	// Output checks: the store, a fresh client's full fetch, and the
	// snapshot on disk must each hold exactly the generated pair set.
	if persistErr != nil {
		res.problem("snapshot save: %v", persistErr)
	}
	fr.pairs = mem.PairCount()
	if fr.pairs != fr.expected {
		res.problem("store holds %d pairs, %d were generated", fr.pairs, fr.expected)
	}
	fresh := newClient(nil)
	full, err := fresh.fetch()
	fresh.store.Close()
	var exact bool
	if fr.held, exact = samePairs(full.Pairs, in.expected); err != nil || !exact {
		res.problem("a fresh client fetched %d pairs, %d of the %d generated: %v", len(full.Pairs), fr.held, fr.expected, err)
	}
	saved, _, err := persister.Load()
	if _, exact := samePairs(saved.Pairs, in.expected); err != nil || !exact {
		res.problem("the snapshot on disk holds %d pairs, not the %d generated: %v", len(saved.Pairs), fr.expected, err)
	}
	for i, cl := range clients {
		w := cl.store.WireStats()
		fr.wire.Fetches += w.Fetches
		fr.wire.DeltaFetches += w.DeltaFetches
		fr.wire.NotModified += w.NotModified
		fr.wire.FetchBytes += w.FetchBytes
		if regs[i] != nil {
			fr.retries += regs[i].Values()[`tsvd_store_ops_total{op="retry"}`]
		}
	}

	// The base of slowdown_x, taken right after the rounds so that a slow
	// stretch of the machine or the disk weighs on both sides of the ratio.
	if fr.refMs, err = durableRewrites(ctx.outDir, in.expected); err != nil {
		return nil, err
	}
	if ctx.trace {
		directReplay(in, rounds, fr, res)
	}
	return fr, nil
}

// durableRewrites times the least a daemon could do to make the final pair
// set durable with nothing but the standard library: encode it, write it to
// a temporary file, fsync, rename — 15 times. It is the reference arm of
// fleet_sync: it calls no code of the system, so a slower merge or a
// heavier wire format cannot hide in it, and it shares the system's disk.
func durableRewrites(outDir string, pairs map[trapfile.Pair]bool) ([]float64, error) {
	dir, err := os.MkdirTemp(outDir, "ref-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	all := make([]trapfile.Pair, 0, len(pairs))
	for p := range pairs {
		all = append(all, p)
	}
	var ms []float64
	for i := 0; i < 15; i++ {
		t := time.Now()
		data, err := json.Marshal(pairFile(all))
		if err != nil {
			return nil, err
		}
		f, err := os.CreateTemp(dir, "tmp-")
		if err != nil {
			return nil, err
		}
		_, err = f.Write(data)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(f.Name(), filepath.Join(dir, "snapshot.json"))
		}
		if err != nil {
			return nil, fmt.Errorf("reference rewrite: %w", err)
		}
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return ms, nil
}

// directReplay applies the same publishes straight to a Memory, without
// wire or disk: what a merge alone costs (trapstore.merge_us_p50), and one
// more place the generated set must come out exact.
func directReplay(in fleetInputs, rounds int, fr *fleetRep, res *result) {
	direct := trapstore.NewMemory("TSVD", nil)
	direct.Seed(pairFile(in.seed))
	var mu sync.Mutex
	var wg sync.WaitGroup
	var publishErr error
	for c := range in.publish {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				t := time.Now()
				err := direct.Publish(pairFile(in.publish[c][r]))
				us := float64(time.Since(t).Nanoseconds()) / 1e3
				mu.Lock()
				fr.mergeUs = append(fr.mergeUs, us)
				publishErr = errors.Join(publishErr, err)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if publishErr != nil || direct.PairCount() != fr.expected {
		res.problem("the in-memory replay holds %d pairs, %d were generated: %v", direct.PairCount(), fr.expected, publishErr)
	}
}

func runFleetWorkload(ctx *runCtx) *result {
	res := newResult("fleet_sync")
	scale := ctx.scale()
	if ctx.trace {
		scale /= 3
	}
	rounds := max(2, int(fleetRounds*scale))
	seedPairs := max(32, int(fleetSeedPairs*ctx.scale()))

	var reps []*fleetRep
	for rep := 0; rep < fleetReps; rep++ {
		fr, err := runFleetRep(ctx, rep, rounds, seedPairs, ctx.setups(9), res)
		if err != nil {
			return res.fail(err)
		}
		reps = append(reps, fr)
		res.attempted += fr.attempted
		res.failed += fr.failed
	}
	if res.failed > 0 {
		res.problem("%d of %d store operations failed", res.failed, res.attempted)
	}
	over := func(f func(*fleetRep) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	pool := func(f func(*fleetRep) []float64) []float64 {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, f(r)...)
		}
		return xs
	}
	roundsPerS := over(func(r *fleetRep) float64 { return float64(r.rounds) / r.wall.Seconds() })
	roundMs := pool(func(r *fleetRep) []float64 { return r.roundMs })
	slowdown := over(func(r *fleetRep) float64 { return median(r.roundMs) / median(r.refMs) })
	publishMs := pool(func(r *fleetRep) []float64 { return r.publishMs })
	deltaMs := pool(func(r *fleetRep) []float64 { return r.deltaMs })
	res.note("round_ms %v", summarize(roundMs))
	res.note("publish_ms %v", summarize(publishMs))
	res.note("fetch_delta_ms %v", summarize(deltaMs))
	res.note("rounds_per_s %v", summarize(roundsPerS))

	if !ctx.trace {
		res.set("setup_s", median(pool(func(r *fleetRep) []float64 { return r.setupS })))
		res.set("slowdown_x", median(slowdown))
		res.set("allocs_per_op_plus1", 1+median(over(func(r *fleetRep) float64 { return float64(r.mallocs) / float64(r.rounds) })))
		res.set("found_frac", median(over(func(r *fleetRep) float64 { return float64(r.held) / float64(r.expected) })))
		res.note("durable_rewrite_ms %v (base of slowdown_x)", summarize(pool(func(r *fleetRep) []float64 { return r.refMs })))
		return res
	}

	res.setAll(runProbes(ctx))
	res.set("bench.ops_per_s", median(roundsPerS))
	res.set("bench.op_us_p50", median(roundMs)*1e3)
	last := reps[len(reps)-1]
	persistMs := pool(func(r *fleetRep) []float64 { return r.persistMs })
	res.set("trapstore.persist_ms_p50", median(persistMs))
	res.set("trapstore.persist_busy_frac", median(over(func(r *fleetRep) float64 {
		busy := 0.0
		for _, ms := range r.persistMs {
			busy += ms
		}
		return busy / 1e3 / r.wall.Seconds()
	})))
	res.set("trapstore.merge_us_p50", median(pool(func(r *fleetRep) []float64 { return r.mergeUs })))
	res.set("trapstore.publish_ms_p50", median(publishMs))
	res.set("trapstore.publish_ms_p95", percentile(publishMs, 0.95))
	res.set("trapstore.fetch_delta_ms_p50", median(deltaMs))
	res.set("trapstore.fetch_delta_ms_p95", percentile(deltaMs, 0.95))
	res.set("trapstore.fetch_304_ms_p50", median(pool(func(r *fleetRep) []float64 { return r.notModMs })))
	res.set("trapstore.fetch_full_ms_p50", median(pool(func(r *fleetRep) []float64 { return r.fullMs })))
	res.set("trapstore.fetch_delta_bytes_per_poll", median(over(func(r *fleetRep) float64 {
		return float64(r.wire.FetchBytes) / float64(max(1, r.wire.Fetches))
	})))
	res.set("trapstore.fetch_full_bytes", float64(last.fullBytes))
	res.set("trapstore.retries", last.retries)
	res.set("trapstore.pairs_final", float64(last.pairs))
	if err := trapfileProbes(ctx, res, last.expected); err != nil {
		res.problem("trapfile probes: %v", err)
	}
	// The traced pass is itself the measurement with spans on; the plain
	// figure to compare it with is the same repetition without them.
	plain := *ctx
	plain.trace, plain.spans = false, nil
	fr, err := runFleetRep(&plain, 0, rounds, seedPairs, 1, res)
	if err != nil {
		return res.fail(err)
	}
	res.set("bench.trace_overhead_frac", 1-roundsPerS[0]/(float64(fr.rounds)/fr.wall.Seconds()))
	return res
}

// trapfileProbes times the file layer alone at the store's final size: one
// crash-safe save, and one merge of a publish-sized batch.
func trapfileProbes(ctx *runCtx, res *result, pairs int) error {
	dir, err := os.MkdirTemp(ctx.outDir, "trapfile-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	in := genFleet(ctx.seed, 99, 1, 1, pairs)
	big := trapfile.Merge(trapfile.File{}, pairFile(in.seed))
	small := pairFile(in.publish[0][0])
	var saveMs, mergeUs []float64
	for i := 0; i < 21; i++ {
		t := time.Now()
		if err := trapfile.Save(filepath.Join(dir, "traps.json"), big); err != nil {
			return fmt.Errorf("trapfile.Save: %w", err)
		}
		saveMs = append(saveMs, float64(time.Since(t).Nanoseconds())/1e6)
		t = time.Now()
		merged := trapfile.Merge(big, small)
		mergeUs = append(mergeUs, float64(time.Since(t).Nanoseconds())/1e3)
		if len(merged.Pairs) != pairs+publishNew {
			return fmt.Errorf("trapfile.Merge gave %d pairs, want %d", len(merged.Pairs), pairs+publishNew)
		}
	}
	res.set("trapfile.save_ms_p50", median(saveMs))
	res.set("trapfile.merge_us_p50", median(mergeUs))
	return nil
}
