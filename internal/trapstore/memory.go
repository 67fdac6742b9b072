package trapstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/trapfile"
)

// SyncState identifies a point in one daemon's merge history: the boot epoch
// of the process that assigned the generation, plus the generation itself.
// Generations alone are ambiguous across restarts — two daemon lifetimes
// both pass "generation 3" with different pair sets — so every place a
// generation crosses a process boundary (ETags, ?since= delta requests,
// persisted snapshots) carries the epoch with it.
type SyncState struct {
	// Epoch is a random 64-bit ID minted once per daemon boot. Zero means
	// "no epoch": a fresh Memory that has never merged, or a legacy snapshot
	// persisted before epochs existed.
	Epoch uint64
	// Generation counts set growth. It is restored across restarts (via
	// SnapshotPersister) so it is monotone over a daemon's whole history,
	// but only (Epoch, Generation) together name a unique set state.
	Generation uint64
}

// String renders the state in the wire form used by ETags and ?since=
// cursors: "e<epoch-hex>-g<generation>".
func (st SyncState) String() string {
	return "e" + strconv.FormatUint(st.Epoch, 16) + "-g" + strconv.FormatUint(st.Generation, 10)
}

// epochHex renders the epoch as wire bodies and snapshot files carry it:
// hex, and "" for "no epoch".
func (st SyncState) epochHex() string {
	if st.Epoch == 0 {
		return ""
	}
	return strconv.FormatUint(st.Epoch, 16)
}

// parseSyncState parses the String form. It accepts exactly what String
// produces; anything else is an error (clients with unparseable cursors get
// a full snapshot, which is always correct).
func parseSyncState(s string) (SyncState, error) {
	rest, ok := strings.CutPrefix(s, "e")
	if !ok {
		return SyncState{}, fmt.Errorf("trapstore: sync state %q: missing epoch", s)
	}
	eh, gh, ok := strings.Cut(rest, "-g")
	if !ok {
		return SyncState{}, fmt.Errorf("trapstore: sync state %q: missing generation", s)
	}
	epoch, err := strconv.ParseUint(eh, 16, 64)
	if err != nil {
		return SyncState{}, fmt.Errorf("trapstore: sync state %q: bad epoch: %v", s, err)
	}
	gen, err := strconv.ParseUint(gh, 10, 64)
	if err != nil {
		return SyncState{}, fmt.Errorf("trapstore: sync state %q: bad generation: %v", s, err)
	}
	return SyncState{Epoch: epoch, Generation: gen}, nil
}

// newEpoch mints a boot epoch. Cryptographic randomness is unnecessary —
// the epoch only needs to make accidental collision across restarts
// vanishingly unlikely, and 64 random bits do that.
func newEpoch() uint64 {
	for {
		e := rand.Uint64()
		if e != 0 { // zero is reserved for "no epoch"
			return e
		}
	}
}

// Memory is an in-process trap set with an epoch-qualified generation
// counter — the aggregation core of cmd/tsvd-trapd, and a zero-dependency
// shared store for in-process fleet simulation (internal/harness.RunFleet).
//
// The generation counter increments exactly when the set grows (a pair or a
// site row it did not hold); with the boot epoch it forms the ETag, so a
// shard that polls with the state it last saw gets a cheap "unchanged"
// answer (same epoch, same generation), an O(delta) incremental response
// (same epoch, older generation), or a full snapshot (a different epoch, or
// a cursor from before Restore).
type Memory struct {
	mu  sync.Mutex
	log genLog
	instr
}

// NewMemory returns an empty store labeled with tool, under a fresh boot
// epoch. tracer may be nil.
func NewMemory(tool string, tracer *trace.Tracer) *Memory {
	return &Memory{
		log:   newGenLog(newEpoch(), trapfile.Normalize(trapfile.File{Tool: tool}), 0),
		instr: newInstr(tracer, "mem:"+tool),
	}
}

// Status is one consistent reading of a Memory that copies nothing: the sync
// state, the size of the set that state names, and its tool label.
type Status struct {
	SyncState
	Pairs int
	Tool  string
}

// Status reads the store's state under one lock acquisition, so Generation
// and Pairs always describe the same set.
func (m *Memory) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.statusLocked()
}

func (m *Memory) statusLocked() Status {
	return Status{SyncState: m.log.state(), Pairs: len(m.log.set.Pairs), Tool: m.log.set.Tool}
}

// SnapshotState returns the merged set and the sync state that names it —
// what the persister stores and the handler serves. The rows are shared with
// the store and never change afterwards; do not write into them.
func (m *Memory) SnapshotState() (trapfile.File, SyncState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.snapshot(), m.log.state()
}

// window returns what a holder of the set as of since lacks — the rows added
// after it (delta=true), or the whole set when since names no generation of
// this boot — together with the current sync state, under one lock
// acquisition: a merge between "try the delta" and "fall back to the
// snapshot" would otherwise skip rows. The zero SyncState always yields the
// whole set, because a Memory's boot epoch is never zero.
func (m *Memory) window(since SyncState) (f trapfile.File, cur SyncState, delta bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, delta = m.log.window(since)
	return f, m.log.state(), delta
}

// PairCount returns the current merged set size without copying it.
func (m *Memory) PairCount() int { return m.Status().Pairs }

// Seed replaces the set wholesale (daemon startup from a bare snapshot
// file). It bumps the generation when the seeded set is non-empty so
// pre-seed pollers refetch. Daemons restoring persisted sync state use
// Restore instead, which keeps the generation monotone across restarts.
func (m *Memory) Seed(f trapfile.File) {
	m.Restore(f, SyncState{})
}

// Restore replaces the set wholesale with the contents of a persisted
// snapshot and continues its generation counter: the restored daemon's next
// growth assigns prev.Generation+2, never a number an earlier lifetime
// already used for a different set.
//
// The epoch is NOT restored — the Memory keeps the fresh epoch minted at
// construction. Reusing a persisted epoch would be unsound: a kill-9 can
// land between a merge a client observed (GET at generation G) and the
// snapshot save, so the restored daemon would sit below G under the same
// epoch and later re-reach G with different pairs — exactly the stale-304
// collision the epoch exists to prevent. A fresh epoch per boot forces one
// full refetch per client per restart, which is the correct price.
//
// The generation still bumps past prev.Generation when the restored set is
// non-empty, so clients that cache (freshEpoch, prev.Generation) from an
// earlier Restore in this same boot would refetch; with prev.Generation==0
// this degrades to Seed's behavior. The log restarts at the new generation —
// it cannot describe the jump from whatever a client saw before — so older
// cursors get a full snapshot.
func (m *Memory) Restore(f trapfile.File, prev SyncState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gen := max(m.log.state().Generation, prev.Generation)
	set := trapfile.Normalize(f)
	if rows(set) > 0 {
		gen++
	}
	m.log = newGenLog(m.log.epoch, set, gen)
}

// merge folds f in and reports what the set gained and the status after the
// merge (so callers can ack without a second lock acquisition). The
// generation moves only when the set actually grew.
func (m *Memory) merge(f trapfile.File) (added trapfile.File, st Status) {
	m.mu.Lock()
	defer m.mu.Unlock()
	added = m.log.grow(f, m.log.state().Generation+1)
	return added, m.statusLocked()
}

// Fetch implements TrapStore.
func (m *Memory) Fetch() (trapfile.File, error) {
	begin := time.Now()
	f, _ := m.SnapshotState()
	m.fetched(time.Since(begin))
	return f, nil
}

// Publish implements TrapStore.
func (m *Memory) Publish(f trapfile.File) error {
	begin := time.Now()
	m.merge(f)
	m.published(time.Since(begin))
	return nil
}

// Totals implements TrapStore.
func (m *Memory) Totals() trace.StoreTotals { return m.totals() }

// Close implements TrapStore.
func (m *Memory) Close() error { return nil }

// --- HTTP wire schema (cmd/tsvd-trapd <-> HTTPStore) ---

// TrapsPath is the daemon's single read-write resource: the merged trap set.
const TrapsPath = "/v1/traps"

// SinceParam is the query parameter carrying a client's sync cursor in its
// SyncState.String() form. A cursor that names a generation of the daemon's
// current boot is answered with a delta; any other with the full set.
const SinceParam = "since"

// wireAck is the POST response: the post-merge generation (epoch-qualified)
// and set size.
type wireAck struct {
	Generation uint64 `json:"generation"`
	Epoch      string `json:"epoch,omitempty"`
	Pairs      int    `json:"pairs"`
}

// wireError carries a machine-readable rejection.
type wireError struct {
	Error string `json:"error"`
}

// wireHealth is the GET /healthz body (documented in docs/DEPLOYMENT.md).
type wireHealth struct {
	Status        string  `json:"status"`
	Generation    uint64  `json:"generation"`
	Epoch         string  `json:"epoch,omitempty"`
	Pairs         int     `json:"pairs"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// etagOf renders the epoch-qualified ETag. Before epochs the tag was just
// the generation ("g3"), which collided across restarts: a new daemon
// lifetime re-reaching generation 3 with different pairs would 304 a client
// holding the old lifetime's tag. The epoch makes tags from different boots
// never compare equal.
func etagOf(st SyncState) string { return `"` + st.String() + `"` }

// defaultMaxTrapPayload bounds a POST /v1/traps body. The largest observed
// fleet trap sets are a few thousand pairs (tens of KB); 8 MiB leaves three
// orders of magnitude of headroom while keeping a misbehaving (or
// malicious) client from ballooning the daemon's heap. Clients chunk
// oversized publishes (HTTPConfig.PublishChunkBytes) instead of failing.
const defaultMaxTrapPayload = 8 << 20

// HandlerOptions configure NewHandler. The zero value serves the store with
// no persistence hook, no logging and no metrics.
type HandlerOptions struct {
	// OnMerge, when non-nil, runs after every merge that grew the set (the
	// daemon persists its snapshot there), with a snapshot at least as new
	// as that merge and the sync state that names it. The rows are shared
	// with the store and never change afterwards; do not write into them.
	OnMerge func(trapfile.File, SyncState)
	// Logf, when non-nil, receives one line per state-changing request.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, registers the daemon metric families
	// (tsvd_trapd_*) and serves the whole registry at GET /metrics in the
	// Prometheus text format.
	Metrics *metrics.Registry
	// MaxPayloadBytes caps a POST /v1/traps body; 0 means the 8 MiB
	// default. Tests lower it to exercise the 413/chunking path cheaply.
	MaxPayloadBytes int64
}

// NewHandler serves m over HTTP:
//
//	GET  /v1/traps  → the merged snapshot; ETag is the epoch-qualified sync
//	                  state ("e<epoch>-g<gen>"), and a matching If-None-Match
//	                  yields 304 with no body, so idle shards poll for the
//	                  price of a header exchange. With ?since=<state>, a
//	                  client whose cursor names a generation of this boot gets
//	                  only the rows added since — O(delta) instead of
//	                  O(pairs) — marked delta:true; a foreign epoch or a
//	                  cursor from before Restore gets the full snapshot.
//	POST /v1/traps  → merge the payload's pairs and site rows; replies with
//	                  the new epoch-qualified generation. A foreign schema
//	                  version is a 400; a body over the payload cap is a 413.
//	GET  /healthz   → liveness probe: JSON status, generation, epoch, pair
//	                  count (one consistent reading) and uptime.
//	GET  /metrics   → Prometheus exposition of opts.Metrics (absent when no
//	                  registry is configured).
func NewHandler(m *Memory, opts HandlerOptions) http.Handler {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	maxPayload := opts.MaxPayloadBytes
	if maxPayload <= 0 {
		maxPayload = defaultMaxTrapPayload
	}
	reg := opts.Metrics
	start := time.Now()
	reg.GaugeFunc("tsvd_trapd_generation",
		"Trap-set generation (increments when the merged set grows).",
		func() float64 { return float64(m.Status().Generation) })
	reg.GaugeFunc("tsvd_trapd_pairs",
		"Pairs in the merged trap set.",
		func() float64 { return float64(m.PairCount()) })
	reg.GaugeFunc("tsvd_trapd_uptime_seconds",
		"Seconds since the handler was created.",
		func() float64 { return time.Since(start).Seconds() })
	merges := reg.Counter("tsvd_trapd_merges_total",
		"Accepted POST /v1/traps merges (including no-op merges).")
	mergedPairs := reg.Counter("tsvd_trapd_merged_pairs_total",
		"Pairs the merged set gained across all merges.")
	snapKind := func(kind string) *metrics.Counter {
		return reg.Counter("tsvd_trapd_snapshot_responses_total",
			"GET /v1/traps responses by kind: full snapshot, delta, or 304.",
			metrics.Label{Name: "kind", Value: kind})
	}
	fullResponses := snapKind("full")
	deltaResponses := snapKind("delta")
	notModifiedResponses := snapKind("not_modified")

	// instrument wraps an endpoint handler with a request counter and a
	// latency histogram. The counter increments at entry, so the scrape
	// serving a /metrics request reports that request itself — the
	// reconciliation contract counts requests received, not completed.
	latBounds := metrics.ExpBounds(int64(100*time.Microsecond), 2, 13) // 100µs..~400ms
	instrument := func(endpoint string, h http.HandlerFunc) http.HandlerFunc {
		lbl := metrics.Label{Name: "endpoint", Value: endpoint}
		reqs := reg.Counter("tsvd_trapd_requests_total",
			"HTTP requests received by endpoint.", lbl)
		lat := reg.Histogram("tsvd_trapd_request_seconds",
			"HTTP request handling latency by endpoint.", 1e-9, latBounds, lbl)
		return func(w http.ResponseWriter, r *http.Request) {
			reqs.Inc()
			begin := time.Now()
			h(w, r)
			lat.Observe(int64(time.Since(begin)))
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		st := m.Status()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wireHealth{
			Status:        "ok",
			Generation:    st.Generation,
			Epoch:         st.epochHex(),
			Pairs:         st.Pairs,
			UptimeSeconds: time.Since(start).Seconds(),
		})
	}))
	if reg != nil {
		mux.HandleFunc("GET /metrics", instrument("metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		}))
	}
	mux.HandleFunc("GET "+TrapsPath, instrument("traps_get", func(w http.ResponseWriter, r *http.Request) {
		// An absent or unparseable cursor is the zero state, which names no
		// generation of any boot: the client gets the full set, which is
		// always correct.
		since, _ := parseSyncState(r.URL.Query().Get(SinceParam))
		f, st, delta := m.window(since)
		body := envelopeOf(f, st)
		if delta {
			body.Delta, body.Since = true, since.Generation
		}

		tag := etagOf(st)
		w.Header().Set("ETag", tag)
		if r.Header.Get("If-None-Match") == tag {
			notModifiedResponses.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if body.Delta {
			deltaResponses.Inc()
		} else {
			fullResponses.Inc()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(body)
	}))
	mux.HandleFunc("POST "+TrapsPath, instrument("traps_post", func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPayload))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				reject(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("payload exceeds %d bytes", tooBig.Limit))
				return
			}
			reject(w, http.StatusBadRequest, fmt.Sprintf("unreadable payload: %v", err))
			return
		}
		in, _, err := decodeEnvelope(data)
		if err != nil {
			reject(w, http.StatusBadRequest, fmt.Sprintf("invalid payload: %v", err))
			return
		}
		added, st := m.merge(in.File)
		merges.Inc()
		mergedPairs.Add(int64(len(added.Pairs)))
		if rows(added) > 0 && opts.OnMerge != nil {
			// Only a growing merge is persisted; its snapshot is shared, not copied.
			opts.OnMerge(m.SnapshotState())
		}
		logf("merge from %s: +%d pairs (%d total, generation %d)", r.RemoteAddr, len(added.Pairs), st.Pairs, st.Generation)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wireAck{Generation: st.Generation, Epoch: st.epochHex(), Pairs: st.Pairs})
	}))
	return mux
}

func reject(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(wireError{Error: msg})
}
