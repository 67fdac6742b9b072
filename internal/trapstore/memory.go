package trapstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/trapfile"
	"repro/internal/triage"
)

// SyncState identifies a point in one daemon's merge history: the boot epoch
// of the process that assigned the generation, plus the generation itself.
// Generations alone are ambiguous across restarts — two daemon lifetimes
// both pass "generation 3" with different pair sets — so every place a
// generation crosses a process boundary (ETags, ?since= delta requests,
// persisted snapshots, peer sync cursors) carries the epoch with it.
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

// deltaLogMaxPairs bounds the pairs retained across all delta-log entries.
// Past the bound the oldest entries are compacted away and ?since= requests
// from before the compaction floor fall back to a full snapshot. The bound
// is deliberately generous: fleet trap sets top out at a few thousand pairs,
// so in practice the whole history fits and every incremental poll is a
// delta.
const deltaLogMaxPairs = 1 << 16

// deltaLog records, per generation, the pairs that merge added — the source
// of O(delta) incremental sync. Entry i holds the pairs added by generation
// floor+1+i; a request "since generation g" with g >= floor is served by
// concatenating entries past g-floor.
type deltaLog struct {
	// floor is the generation the log starts after: deltas since any
	// generation >= floor can be served, older cursors need a full snapshot.
	floor uint64
	adds  [][]trapfile.Pair
	pairs int // total pairs across adds, for the compaction bound
}

// append records the pairs added by the generation after floor+len(adds).
func (l *deltaLog) append(added []trapfile.Pair) {
	l.adds = append(l.adds, added)
	l.pairs += len(added)
	for l.pairs > deltaLogMaxPairs && len(l.adds) > 1 {
		l.pairs -= len(l.adds[0])
		l.adds[0] = nil // release the backing array before reslicing
		l.adds = l.adds[1:]
		l.floor++
	}
}

// since returns the pairs added after generation g, and whether the log
// still covers that window. g below the compaction floor (or above the head,
// which a correct client never sends) reports ok=false.
func (l *deltaLog) since(g uint64) (pairs []trapfile.Pair, ok bool) {
	head := l.floor + uint64(len(l.adds))
	if g < l.floor || g > head {
		return nil, false
	}
	for _, a := range l.adds[g-l.floor:] {
		pairs = append(pairs, a...)
	}
	return pairs, true
}

// Memory is an in-process trap set with an epoch-qualified generation
// counter — the aggregation core of cmd/tsvd-trapd, and a zero-dependency
// shared store for in-process fleet simulation (internal/harness.RunFleet).
//
// The generation counter increments exactly when the pair set grows; with
// the boot epoch it forms the ETag, so a shard that polls with the state it
// last saw gets a cheap "unchanged" answer (same epoch, same generation), an
// O(delta) incremental response (same epoch, older generation still in the
// delta log), or a full snapshot (different epoch or compacted window).
type Memory struct {
	mu    sync.Mutex
	file  trapfile.File
	epoch uint64
	gen   uint64
	log   deltaLog
	instr
}

// NewMemory returns an empty store labeled with tool, under a fresh boot
// epoch. tracer may be nil.
func NewMemory(tool string, tracer *trace.Tracer) *Memory {
	return &Memory{
		file:  trapfile.File{Version: trapfile.FormatVersion, Tool: tool},
		epoch: newEpoch(),
		instr: newInstr(tracer, "mem:"+tool),
	}
}

// Snapshot returns a copy of the current merged set and its generation.
func (m *Memory) Snapshot() (trapfile.File, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked(), m.gen
}

func (m *Memory) snapshotLocked() trapfile.File {
	f := m.file
	f.Pairs = append([]trapfile.Pair(nil), m.file.Pairs...)
	return f
}

// SnapshotState returns a copy of the merged set and the full sync state —
// what the persister stores and the handler serves.
func (m *Memory) SnapshotState() (trapfile.File, SyncState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked(), SyncState{Epoch: m.epoch, Generation: m.gen}
}

// Generation returns the current generation without copying the set.
func (m *Memory) Generation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen
}

// State returns the current sync state without copying the set.
func (m *Memory) State() SyncState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return SyncState{Epoch: m.epoch, Generation: m.gen}
}

// PairCount returns the current merged set size without copying it.
func (m *Memory) PairCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.file.Pairs)
}

// Tool returns the set's current tool label.
func (m *Memory) Tool() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.file.Tool
}

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
// this degrades to Seed's behavior.
func (m *Memory) Restore(f trapfile.File, prev SyncState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.file = trapfile.Merge(trapfile.File{}, f)
	if prev.Generation > m.gen {
		m.gen = prev.Generation
	}
	if len(m.file.Pairs) > 0 {
		m.gen++
	}
	// The log cannot describe the jump from whatever a client saw before
	// the restore, so start it empty at the new generation: older cursors
	// fall back to a full snapshot.
	m.log = deltaLog{floor: m.gen}
}

// merge folds f in and reports the new sync state, the pairs the union
// gained, and the post-merge set size (so callers can ack without taking a
// second snapshot). The generation moves only when the set actually grew,
// and the gained pairs are appended to the delta log.
func (m *Memory) merge(f trapfile.File) (st SyncState, added []trapfile.Pair, total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	before := m.file.Pairs
	m.file = trapfile.Merge(m.file, f)
	total = len(m.file.Pairs)
	if total > len(before) {
		added = diffSorted(m.file.Pairs, before)
		m.gen++
		m.log.append(added)
	}
	return SyncState{Epoch: m.epoch, Generation: m.gen}, added, total
}

// diffSorted returns the pairs in after that are not in before. Both slices
// are normalized (sorted, deduplicated) and before ⊆ after — the shape
// trapfile.Merge guarantees — so one linear pass suffices.
func diffSorted(after, before []trapfile.Pair) []trapfile.Pair {
	out := make([]trapfile.Pair, 0, len(after)-len(before))
	i := 0
	for _, p := range after {
		if i < len(before) && before[i] == p {
			i++
			continue
		}
		out = append(out, p)
	}
	return out
}

// Delta returns the pairs added strictly after since, the current sync
// state, and whether the delta could be served. ok=false — a foreign epoch,
// a cursor older than the compaction floor, or a cursor from the future —
// means the caller must take a full snapshot instead.
func (m *Memory) Delta(since SyncState) (pairs []trapfile.Pair, cur SyncState, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur = SyncState{Epoch: m.epoch, Generation: m.gen}
	if since.Epoch != m.epoch {
		return nil, cur, false
	}
	pairs, ok = m.log.since(since.Generation)
	return pairs, cur, ok
}

// Fetch implements TrapStore.
func (m *Memory) Fetch() (trapfile.File, error) {
	begin := time.Now()
	f, _ := m.Snapshot()
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

// RegisterMetrics exports the in-process store's operation counters and
// latency histograms on reg (nil-safe) — what HTTPConfig.Metrics does for
// the HTTP client, for fleets simulated with a shared Memory.
func (m *Memory) RegisterMetrics(reg *metrics.Registry) { m.register(reg) }

// Totals implements TrapStore.
func (m *Memory) Totals() trace.StoreTotals { return m.totals() }

// Close implements TrapStore.
func (m *Memory) Close() error { return nil }

// --- HTTP wire schema (cmd/tsvd-trapd <-> HTTPStore) ---

// TrapsPath is the daemon's single read-write resource: the merged trap set.
const TrapsPath = "/v1/traps"

// BugsPath is the read-only triage view over the merged snapshot: one
// signature-keyed cluster per dangerous pair, identity resolved through the
// merged site table (internal/triage.FromTrapFile). The daemon only ever
// sees pairs, so the view carries no firing counts — those live in the
// shards' own bugs.json reports.
const BugsPath = "/v1/bugs"

// SinceParam is the query parameter carrying a client's sync cursor in its
// SyncState.String() form. A daemon that can serve the window answers with
// a delta snapshot; otherwise it falls back to the full set.
const SinceParam = "since"

// wireSnapshot is the GET body and the POST payload. Version is
// trapfile.FormatVersion — the daemon and its shards must agree on the pair
// encoding exactly as two consecutive local runs must; a mismatch is
// rejected, never coerced. Generation and Epoch are server-assigned and
// ignored on POST. A Delta=true body carries only the pairs added after the
// requested cursor; Since echoes the cursor's generation so the client can
// verify the window lines up with its cache before applying it.
type wireSnapshot struct {
	Version    int             `json:"version"`
	Tool       string          `json:"tool"`
	Generation uint64          `json:"generation"`
	Epoch      string          `json:"epoch,omitempty"` // hex; "" from pre-epoch daemons
	Delta      bool            `json:"delta,omitempty"`
	Since      uint64          `json:"since,omitempty"`
	Pairs      []trapfile.Pair `json:"pairs"`
}

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

// wireBugs is the GET /v1/bugs body: the sync state the view was derived
// from plus one cluster per dangerous pair (documented in
// docs/DEPLOYMENT.md).
type wireBugs struct {
	Tool       string               `json:"tool"`
	Generation uint64               `json:"generation"`
	Epoch      string               `json:"epoch,omitempty"`
	Clusters   int                  `json:"clusters"`
	Bugs       []triage.JSONCluster `json:"bugs"`
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
	// daemon persists its snapshot there), with the post-merge set and the
	// sync state that produced it.
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
//	                  client whose epoch matches and whose window is still in
//	                  the delta log gets only the pairs added since — O(delta)
//	                  instead of O(pairs) — marked delta:true; anything else
//	                  falls back to the full snapshot.
//	POST /v1/traps  → merge the payload's pairs; replies with the new
//	                  epoch-qualified generation. A foreign schema version is
//	                  a 400; a body over the payload cap is a 413.
//	GET  /healthz   → liveness probe: JSON status, generation, epoch, pair
//	                  count and uptime.
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
		func() float64 { return float64(m.Generation()) })
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
		_, st := m.SnapshotState()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wireHealth{
			Status:        "ok",
			Generation:    st.Generation,
			Epoch:         strconv.FormatUint(st.Epoch, 16),
			Pairs:         m.PairCount(),
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
		// Serve the delta when the client's cursor allows it; otherwise the
		// full set. Delta and snapshot must come from one lock acquisition —
		// a merge between "try delta" and "fall back to snapshot" would
		// otherwise skip pairs.
		var since SyncState
		haveSince := false
		if raw := r.URL.Query().Get(SinceParam); raw != "" {
			if st, err := parseSyncState(raw); err == nil {
				since, haveSince = st, true
			}
		}
		m.mu.Lock()
		st := SyncState{Epoch: m.epoch, Generation: m.gen}
		var body wireSnapshot
		if haveSince && since.Epoch == m.epoch {
			if pairs, ok := m.log.since(since.Generation); ok {
				body = wireSnapshot{
					Version: trapfile.FormatVersion, Tool: m.file.Tool,
					Generation: st.Generation, Epoch: strconv.FormatUint(st.Epoch, 16),
					Delta: true, Since: since.Generation, Pairs: pairs,
				}
			}
		}
		if !body.Delta {
			f := m.snapshotLocked()
			body = wireSnapshot{
				Version: trapfile.FormatVersion, Tool: f.Tool,
				Generation: st.Generation, Epoch: strconv.FormatUint(st.Epoch, 16),
				Pairs: f.Pairs,
			}
		}
		m.mu.Unlock()

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
	mux.HandleFunc("GET "+BugsPath, instrument("bugs_get", func(w http.ResponseWriter, r *http.Request) {
		// Read-only triage view: derive clusters from one consistent
		// snapshot. Same ETag discipline as GET /v1/traps — the view is a
		// pure function of the sync state.
		f, st := m.SnapshotState()
		tag := etagOf(st)
		w.Header().Set("ETag", tag)
		if r.Header.Get("If-None-Match") == tag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		clusters := triage.FromTrapFile(f)
		body := wireBugs{
			Tool:       f.Tool,
			Generation: st.Generation,
			Epoch:      strconv.FormatUint(st.Epoch, 16),
			Clusters:   len(clusters),
			Bugs:       make([]triage.JSONCluster, 0, len(clusters)),
		}
		for _, c := range clusters {
			body.Bugs = append(body.Bugs, triage.JSONClusterOf(c))
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(body)
	}))
	mux.HandleFunc("POST "+TrapsPath, instrument("traps_post", func(w http.ResponseWriter, r *http.Request) {
		var in wireSnapshot
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPayload)).Decode(&in); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				reject(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("payload exceeds %d bytes", tooBig.Limit))
				return
			}
			reject(w, http.StatusBadRequest, fmt.Sprintf("invalid payload: %v", err))
			return
		}
		if in.Version != trapfile.FormatVersion {
			reject(w, http.StatusBadRequest, fmt.Sprintf(
				"payload version %d, want %d", in.Version, trapfile.FormatVersion))
			return
		}
		st, added, total := m.merge(trapfile.File{Version: trapfile.FormatVersion, Tool: in.Tool, Pairs: in.Pairs})
		merges.Inc()
		mergedPairs.Add(int64(len(added)))
		if len(added) > 0 && opts.OnMerge != nil {
			// The only path that needs the full set — a no-op merge never
			// pays for a snapshot copy.
			f, _ := m.Snapshot()
			opts.OnMerge(f, st)
		}
		logf("merge from %s: +%d pairs (%d total, generation %d)", r.RemoteAddr, len(added), total, st.Generation)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wireAck{
			Generation: st.Generation, Epoch: strconv.FormatUint(st.Epoch, 16), Pairs: total,
		})
	}))
	return mux
}

func reject(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(wireError{Error: msg})
}
