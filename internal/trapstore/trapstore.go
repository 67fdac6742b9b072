// Package trapstore shares TSVD's dangerous-pair set across test shards.
//
// The paper's biggest practical lever is seeding a run from pairs earlier
// runs discovered (§3.4.6): a seeded detector traps a dangerous pair on its
// very first occurrence instead of waiting to observe a near miss. A single
// local trap file realizes that across *consecutive* runs of one shard;
// this package generalizes it across *concurrent* shards of a fleet, so N
// CI shards stop rediscovering the same pairs independently.
//
// A TrapStore holds one merged trap set. Three implementations compose:
//
//   - FileStore — the local trap file, now with read-merge-write Publish.
//   - HTTPStore — a client for cmd/tsvd-trapd, the fleet aggregation
//     daemon, with per-request timeouts and bounded exponential backoff.
//   - Fallback — remote-primary/local-secondary: publishes land locally
//     first (a shard can never lose its own discoveries), fetches degrade
//     to the local file when the daemon is unreachable, and the run goes
//     on. Fleet mode is an accelerant, never a point of failure.
//
// All implementations speak trapfile.File and merge with trapfile's one
// union rule (Merge, or Grow, the form it is built on), so every replica
// converges to the same canonical pair set regardless of publish order.
//
// The daemon's Memory holds the set once, as a genLog: the sorted view, the
// same rows in arrival order, and one offset per generation, so a ?since=
// window is "the log from generation g"; an HTTPStore's mirror of the daemon
// is the sorted view alone, grown by the same trapfile.Grow. Wherever the set
// leaves a process — GET body, POST payload, snapshot file — it is one JSON
// shape, envelope (a trapfile.File, site table included, plus the sync
// state), read by one function, decodeEnvelope.
//
// Stores count their operations (Totals) and optionally emit internal/trace
// events (store_fetch, store_publish, store_fallback) so that
// trace.Summary.Check can reconcile a traced run's store activity exactly.
package trapstore

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/trapfile"
)

// ErrUnavailable marks a store that could not be reached: every retry of a
// remote operation failed at the transport or with a server error. Callers
// distinguish it from data errors (trapfile.ErrCorrupt) with errors.Is —
// an unavailable store is degraded around, a corrupt payload is a bug.
var ErrUnavailable = errors.New("trapstore: unavailable")

// TrapStore is one shared dangerous-pair set. Implementations must tolerate
// concurrent calls from multiple goroutines; Fetch and Publish are
// idempotent at the pair-set level (publishing twice merges twice into the
// same union).
type TrapStore interface {
	// Fetch returns the store's current merged trap set, normalized. Its rows
	// may be shared with the store and never change; do not write into them.
	Fetch() (trapfile.File, error)
	// Publish merges f's pairs into the store.
	Publish(f trapfile.File) error
	// Totals snapshots the store's operation accounting — successful
	// fetches and publishes, and primary→local fallbacks — the counters the
	// store_* trace events mirror.
	Totals() trace.StoreTotals
	// Close releases the store's resources. Close is idempotent; the store
	// must not be used afterwards.
	Close() error
}

// instr is the shared operation accounting + trace emission every store
// embeds. Events carry the store's interned endpoint key as their location,
// so a drained trace names which store served which operation.
type instr struct {
	tracer                        *trace.Tracer
	op                            ids.OpID
	start                         time.Time
	fetches, publishes, fallbacks atomic.Int64
	// notModified counts fetches served from the conditional-GET cache (the
	// daemon answered 304); retries counts extra attempts after a first
	// failure. deltaFetches counts successful fetches served as an O(delta)
	// incremental body rather than a full snapshot, and fetchBytes sums the
	// response body bytes of successful fetches (the wire-economy series —
	// delta sync exists to shrink it). All stay zero for stores without
	// those notions.
	notModified, retries, deltaFetches, fetchBytes atomic.Int64
	// fetchDur/publishDur are set by register; nil (no-op) without a
	// registry, so the accounting paths need no branches.
	fetchDur, publishDur *metrics.Histogram
}

func newInstr(tracer *trace.Tracer, endpoint string) instr {
	return instr{tracer: tracer, op: ids.InternKey("trapstore:" + endpoint), start: time.Now()}
}

// register exports the store's operation counters and per-op latency
// histograms on reg (docs/OBSERVABILITY.md, "Live metrics"). The counters
// are function-backed reads of the same atomics Totals snapshots, so the
// exported series reconcile exactly against the wire accounting —
// internal/e2e's TestMetricsReconcileExactly enforces this. reg may be nil
// (no-op). One registry
// should carry at most one store client: the series are unlabeled by store.
func (i *instr) register(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	const opsName = "tsvd_store_ops_total"
	const opsHelp = "Trap-store client operations by kind."
	load := func(c *atomic.Int64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	for _, e := range []struct {
		op string
		c  *atomic.Int64
	}{
		{"fetch", &i.fetches},
		{"publish", &i.publishes},
		{"not_modified", &i.notModified},
		{"retry", &i.retries},
		{"delta", &i.deltaFetches},
	} {
		reg.CounterFunc(opsName, opsHelp, load(e.c), metrics.Label{Name: "op", Value: e.op})
	}
	reg.CounterFunc("tsvd_store_fetch_bytes_total",
		"Response body bytes of successful trap-store fetches (delta sync shrinks this).",
		load(&i.fetchBytes))
	const durName = "tsvd_store_op_duration_seconds"
	const durHelp = "Trap-store operation latency (successful operations)."
	bounds := metrics.ExpBounds(int64(500*time.Microsecond), 2, 13) // 500µs..~2s
	i.fetchDur = reg.Histogram(durName, durHelp, 1e-9, bounds, metrics.Label{Name: "op", Value: "fetch"})
	i.publishDur = reg.Histogram(durName, durHelp, 1e-9, bounds, metrics.Label{Name: "op", Value: "publish"})
}

func (i *instr) emit(kind trace.Kind, dur time.Duration) {
	i.tracer.Emit(kind, ids.CurrentThreadID(), 0, i.op, 0, time.Since(i.start), dur)
}

func (i *instr) fetched(dur time.Duration) {
	i.fetches.Add(1)
	i.fetchDur.Observe(int64(dur))
	i.emit(trace.KindStoreFetch, dur)
}

func (i *instr) published(dur time.Duration) {
	i.publishes.Add(1)
	i.publishDur.Observe(int64(dur))
	i.emit(trace.KindStorePublish, dur)
}

func (i *instr) fellBack() {
	i.fallbacks.Add(1)
	i.emit(trace.KindStoreFallback, 0)
}

func (i *instr) sawNotModified() { i.notModified.Add(1) }

func (i *instr) retried() { i.retries.Add(1) }

func (i *instr) sawDelta() { i.deltaFetches.Add(1) }

func (i *instr) countFetchBytes(n int) { i.fetchBytes.Add(int64(n)) }

// WireStats is a point-in-time view of a client's wire accounting, exposed
// for smoke tests and experiments that assert polls really are delta-sized.
type WireStats struct {
	// Fetches counts successful Fetch calls; DeltaFetches how many of those
	// were served as O(delta) incremental bodies; NotModified how many were
	// answered 304 from the conditional-GET cache.
	Fetches, DeltaFetches, NotModified int64
	// FetchBytes sums the response body bytes of successful fetches.
	FetchBytes int64
}

func (i *instr) wireStats() WireStats {
	return WireStats{
		Fetches:      i.fetches.Load(),
		DeltaFetches: i.deltaFetches.Load(),
		NotModified:  i.notModified.Load(),
		FetchBytes:   i.fetchBytes.Load(),
	}
}

func (i *instr) totals() trace.StoreTotals {
	return trace.StoreTotals{
		Fetches:   i.fetches.Load(),
		Publishes: i.publishes.Load(),
		Fallbacks: i.fallbacks.Load(),
	}
}

// FileStore is the local trap file as a TrapStore. Publish is
// read-merge-write under a process-local lock, so concurrent in-process
// publishers union rather than clobber; across processes the crash-safe
// rename in trapfile.Save keeps the file intact (last writer wins on truly
// simultaneous cross-process saves — shards use distinct local files).
type FileStore struct {
	path string
	mu   sync.Mutex
	instr
}

// NewFileStore returns a store backed by the trap file at path. The file
// need not exist yet. tracer may be nil (no events).
func NewFileStore(path string, tracer *trace.Tracer) *FileStore {
	return &FileStore{path: path, instr: newInstr(tracer, "file:"+path)}
}

// Path returns the backing trap-file path.
func (s *FileStore) Path() string { return s.path }

// Fetch implements TrapStore. A missing file is an empty set, not an error.
func (s *FileStore) Fetch() (trapfile.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	begin := time.Now()
	f, err := trapfile.LoadFile(s.path)
	if err != nil {
		return f, err
	}
	s.fetched(time.Since(begin))
	return f, nil
}

// Publish implements TrapStore: load, merge, atomically save.
func (s *FileStore) Publish(f trapfile.File) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	begin := time.Now()
	cur, err := trapfile.LoadFile(s.path)
	if err != nil {
		// A corrupt local file must not absorb (and thereby discard) a
		// run's discoveries; surface it instead of silently overwriting.
		return err
	}
	if err := trapfile.Save(s.path, trapfile.Merge(cur, f)); err != nil {
		return err
	}
	s.published(time.Since(begin))
	return nil
}

// Totals implements TrapStore.
func (s *FileStore) Totals() trace.StoreTotals { return s.totals() }

// Close implements TrapStore; the file needs no teardown.
func (s *FileStore) Close() error { return nil }

// Fallback composes a remote primary with a local secondary so fleet mode
// degrades instead of failing:
//
//   - Fetch merges both stores' sets when the primary answers; when the
//     primary is unreachable (ErrUnavailable) it serves the local set alone
//     and counts a fallback.
//   - Publish lands on the local store first — the shard's own discoveries
//     are durable before any network I/O — then best-efforts the primary;
//     an unreachable primary counts a fallback and is not an error.
//
// Data errors (a corrupt local file, a version-mismatched daemon) are not
// degraded around: they propagate.
type Fallback struct {
	primary, local TrapStore
	instr
}

// NewFallback wires primary (remote) over local. tracer may be nil; it only
// covers the fallback transitions — the sub-stores carry their own tracers.
func NewFallback(primary, local TrapStore, tracer *trace.Tracer) *Fallback {
	return &Fallback{primary: primary, local: local, instr: newInstr(tracer, "fallback")}
}

// Fetch implements TrapStore.
func (s *Fallback) Fetch() (trapfile.File, error) {
	localFile, err := s.local.Fetch()
	if err != nil {
		return trapfile.File{Version: trapfile.FormatVersion}, err
	}
	remoteFile, err := s.primary.Fetch()
	if err != nil {
		if errors.Is(err, ErrUnavailable) {
			s.fellBack()
			return localFile, nil
		}
		return localFile, err
	}
	return trapfile.Merge(localFile, remoteFile), nil
}

// Publish implements TrapStore.
func (s *Fallback) Publish(f trapfile.File) error {
	if err := s.local.Publish(f); err != nil {
		return err
	}
	if err := s.primary.Publish(f); err != nil {
		if errors.Is(err, ErrUnavailable) {
			s.fellBack()
			return nil
		}
		return err
	}
	return nil
}

// Totals implements TrapStore: the sub-stores' successful operations plus
// this composite's fallbacks, matching the union of emitted events when all
// three share one tracer.
func (s *Fallback) Totals() trace.StoreTotals {
	p, l, own := s.primary.Totals(), s.local.Totals(), s.totals()
	return trace.StoreTotals{
		Fetches:   p.Fetches + l.Fetches,
		Publishes: p.Publishes + l.Publishes,
		Fallbacks: p.Fallbacks + l.Fallbacks + own.Fallbacks,
	}
}

// Close implements TrapStore, closing both sides.
func (s *Fallback) Close() error {
	return errors.Join(s.primary.Close(), s.local.Close())
}
